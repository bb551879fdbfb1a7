package tpm

import (
	"crypto/sha1"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestStateFormatGolden pins the checkpoint serialization byte for byte.
// Checkpoints, E8's overhead table and stored blobs from earlier builds all
// depend on this layout, so any change to how AppendState or
// marshalPrivateKey writes its fields (the ordering of NV areas and
// counters, the big-integer encodings, the B32 length prefixes) must show
// up here as a changed digest. Every engine below is seeded, so its keys,
// DRBG and client nonces repeat on every run.
func TestStateFormatGolden(t *testing.T) {
	eng12, cli := newOwnedTPM(t, "golden")
	if _, err := cli.Extend(7, sha1.Sum([]byte("golden-measurement"))); err != nil {
		t.Fatal(err)
	}
	// Two NV areas and two counters, defined out of index order so the
	// sorted layout is exercised.
	areaAuth := authOf("golden-nv")
	for _, nv := range []struct {
		idx  uint32
		size uint32
		data string
	}{{0x2000, 16, "second area"}, {0x1000, 32, "first area"}} {
		if err := cli.NVDefineSpace(ownerAuth, nv.idx, nv.size, NVPerAuthWrite, areaAuth); err != nil {
			t.Fatalf("NVDefineSpace(%#x): %v", nv.idx, err)
		}
		if err := cli.NVWrite(nv.idx, 0, []byte(nv.data), &areaAuth); err != nil {
			t.Fatalf("NVWrite(%#x): %v", nv.idx, err)
		}
	}
	counterAuth := authOf("golden-counter")
	for _, label := range [][4]byte{{'c', 'n', 't', 'a'}, {'c', 'n', 't', 'b'}} {
		id, _, err := cli.CreateCounter(ownerAuth, counterAuth, label)
		if err != nil {
			t.Fatalf("CreateCounter: %v", err)
		}
		if _, err := cli.IncrementCounter(id, counterAuth); err != nil {
			t.Fatalf("IncrementCounter: %v", err)
		}
	}

	eng20, err := New2(Config{RSABits: testBits, Seed: []byte("golden-2.0")})
	if err != nil {
		t.Fatal(err)
	}
	cli2 := NewClient2(DirectTransport{TPM: eng20}, newDRBG([]byte("golden-client2")))
	if err := cli2.Startup(TPM2SUClear); err != nil {
		t.Fatal(err)
	}
	if err := cli2.Extend(7, []byte("golden-event")); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		blob []byte
		want string
	}{
		{"SaveState 1.2", eng12.SaveState(), "5257f1d3a8a0d82e23685a19d25c420412b2be7e291cf817b36ee99de753fbf2"},
		{"SaveState 2.0", eng20.SaveState(), "ab13c55a38eeb2a81d43f37833373d8d13925489dd03bc13e5664fa36811bb2f"},
		{"marshalPrivateKey(EK)", marshalPrivateKey(eng12.ek), "f70f7b6ba7f8379564fec7e823d2cb1761aa08a526cd79ba2b09360d2c989bfe"},
	} {
		sum := sha256.Sum256(tc.blob)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: %d bytes, sha256 %s, want %s", tc.name, len(tc.blob), got, tc.want)
		}
	}
}
