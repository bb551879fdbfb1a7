package tpm

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"testing"
)

// FuzzExecute throws arbitrary bytes at the command engine: it must always
// return a well-formed response (≥10 bytes, correct size field) and never
// panic. This is the guest-facing attack surface — a hostile frontend can
// put anything on the ring.
func FuzzExecute(f *testing.F) {
	eng, err := New(Config{RSABits: 512, Seed: []byte("fuzz")})
	if err != nil {
		f.Fatal(err)
	}
	cli := NewClient(DirectTransport{TPM: eng}, newDRBG([]byte("fc")))
	if err := cli.Startup(STClear); err != nil {
		f.Fatal(err)
	}
	// Seed with a valid command and interesting corruptions of it.
	valid := NewWriter()
	valid.U16(TagRQUCommand)
	valid.U32(14)
	valid.U32(OrdGetRandom)
	valid.U32(8)
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xC1})
	trunc := append([]byte(nil), valid.Bytes()...)
	f.Add(trunc[:9])
	huge := append([]byte(nil), valid.Bytes()...)
	huge[2] = 0xFF // size lies
	f.Add(huge)
	f.Fuzz(func(t *testing.T, cmd []byte) {
		resp := eng.Execute(cmd)
		if len(resp) < 10 {
			t.Fatalf("short response %x for %x", resp, cmd)
		}
		r := NewReader(resp)
		_ = r.U16()
		size := r.U32()
		if int(size) != len(resp) {
			t.Fatalf("response size field %d, actual %d", size, len(resp))
		}
	})
}

// FuzzRestoreState feeds arbitrary blobs to the state deserializer: it must
// reject gracefully or produce a TPM that round-trips, never panic.
func FuzzRestoreState(f *testing.F) {
	eng, err := New(Config{RSABits: 512, Seed: []byte("fuzz-state")})
	if err != nil {
		f.Fatal(err)
	}
	cli := NewClient(DirectTransport{TPM: eng}, nil)
	cli.Startup(STClear)
	good := eng.SaveState()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("XVTM"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0xFF
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, blob []byte) {
		revived, err := RestoreState(blob)
		if err != nil {
			return // rejection is fine
		}
		// Accepted blobs must yield a usable engine.
		out := revived.SaveState()
		if len(out) < len(stateMagic) || !bytes.HasPrefix(out, stateMagic) {
			t.Fatalf("revived engine saves malformed state")
		}
	})
}

// FuzzUnmarshalPublicKey covers the wire-key parser used on untrusted
// migration and attestation inputs.
func FuzzUnmarshalPublicKey(f *testing.F) {
	eng, _ := New(Config{RSABits: 512, Seed: []byte("fuzz-pub")})
	f.Add(MarshalPublicKey(&eng.ek.PublicKey))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		pub, err := UnmarshalPublicKey(b)
		if err == nil && (pub.N.Sign() <= 0 || pub.E == 0) {
			t.Fatal("accepted degenerate key")
		}
	})
}

// FuzzUnmarshalPrivateKey covers the private-key parser behind state
// restore, LoadKey2 and context load: it must refuse malformed blobs with
// ErrBadKey, and any blob it accepts must yield a key whose PKCS#1 v1.5
// SHA-1 signature verifies under its public half.
func FuzzUnmarshalPrivateKey(f *testing.F) {
	ek := testEK(f, "fuzz-priv")
	f.Add(marshalPrivateKey(ek))
	for _, c := range corruptKeyBlobs(ek) {
		f.Add(c.blob)
	}
	f.Add([]byte{})
	digest := sha1Sum([]byte("fuzz-priv"))
	f.Fuzz(func(t *testing.T, b []byte) {
		k, err := unmarshalPrivateKey(b)
		if err != nil {
			if !errors.Is(err, ErrBadKey) {
				t.Fatalf("rejection is not ErrBadKey: %v", err)
			}
			return
		}
		sig, err := rsa.SignPKCS1v15(nil, k, crypto.SHA1, digest)
		if err != nil {
			t.Fatalf("accepted key cannot sign: %v", err)
		}
		if err := rsa.VerifyPKCS1v15(&k.PublicKey, crypto.SHA1, digest, sig); err != nil {
			t.Fatalf("accepted key's signature does not verify: %v", err)
		}
	})
}

// FuzzBatchedQuoteParse hammers the XBQ1 inclusion-proof decoder with
// arbitrary bytes: it must reject malformed blobs with an error — never
// panic, never accept a blob whose re-encoding differs — and the verifier
// built on it must stay total.
func FuzzBatchedQuoteParse(f *testing.F) {
	key, err := rsa.GenerateKey(newDRBG([]byte("fuzz-batch-key")), 512)
	if err != nil {
		f.Fatal(err)
	}
	digests := [][]byte{
		sha1Sum([]byte("fuzz-a")), sha1Sum([]byte("fuzz-b")),
		sha1Sum([]byte("fuzz-c")), sha1Sum([]byte("fuzz-d")),
		sha1Sum([]byte("fuzz-e")),
	}
	blobs, err := signBatch(newDRBG([]byte("fuzz-batch-rng")), key, crypto.SHA1, digests)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range blobs {
		f.Add(b)
	}
	f.Add([]byte(batchedQuoteMagic))
	f.Add([]byte{})
	f.Add([]byte("XBQ0junk"))
	trunc := append([]byte(nil), blobs[0]...)
	f.Add(trunc[:len(trunc)/2])
	f.Fuzz(func(t *testing.T, blob []byte) {
		p, err := ParseBatchedQuote(blob)
		if err == nil {
			// Accepted blobs must re-encode canonically.
			reenc := encodeBatchedQuote(p.HashLen, p.Count, p.Index, p.Siblings, p.RootSig)
			if !bytes.Equal(reenc, blob) {
				t.Fatalf("non-canonical accept: %x re-encodes to %x", blob, reenc)
			}
		}
		// The verifier must be total on arbitrary input for both banks.
		_ = VerifyBatchedQuote(&key.PublicKey, digests[0], blob)
		d2 := sha256.Sum256([]byte("fuzz-2"))
		_ = VerifyBatchedQuote2(&key.PublicKey, d2[:], blob)
	})
}
