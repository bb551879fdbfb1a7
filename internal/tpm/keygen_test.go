package tpm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"testing"
)

// TestGenerateKey checks the generator's keys on every toolchain: each
// validates, N has exactly the requested size, both primes pass 64
// Miller–Rabin rounds, e·d ≡ 1 modulo λ(N) = lcm(p−1, q−1) with d below
// λ(N), and the same seed gives the same key.
func TestGenerateKey(t *testing.T) {
	one := big.NewInt(1)
	for _, bits := range []int{512, 1024, 2048} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			seeds := 4
			if bits == 2048 {
				seeds = 1
			}
			for i := 0; i < seeds; i++ {
				seed := fmt.Sprintf("keygen-%d-%d", bits, i)
				k, err := GenerateKey(newDRBG([]byte(seed)), bits)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.Validate(); err != nil {
					t.Fatalf("%s: key does not validate: %v", seed, err)
				}
				if got := k.N.BitLen(); got != bits {
					t.Fatalf("%s: N has %d bits, want %d", seed, got, bits)
				}
				for j, p := range k.Primes {
					if !p.ProbablyPrime(64) {
						t.Fatalf("%s: prime %d is composite", seed, j)
					}
				}
				pm1 := new(big.Int).Sub(k.Primes[0], one)
				qm1 := new(big.Int).Sub(k.Primes[1], one)
				lambda := new(big.Int).Mul(pm1, qm1)
				lambda.Quo(lambda, new(big.Int).GCD(nil, nil, pm1, qm1))
				ed := new(big.Int).Mul(big.NewInt(int64(k.E)), k.D)
				if k.E != keyExponent || ed.Mod(ed, lambda).Cmp(one) != 0 || k.D.Cmp(lambda) >= 0 {
					t.Fatalf("%s: d is not e⁻¹ mod lcm(p−1, q−1)", seed)
				}
				again, err := GenerateKey(newDRBG([]byte(seed)), bits)
				if err != nil {
					t.Fatal(err)
				}
				if again.N.Cmp(k.N) != 0 || again.D.Cmp(k.D) != 0 {
					t.Fatalf("%s: the same seed gave two keys", seed)
				}
			}
		})
	}
}

// errSourceFailed is what failingReader returns once it runs dry.
var errSourceFailed = errors.New("random source failed")

// failingReader yields left bytes of a DRBG stream and then fails.
type failingReader struct {
	d     *drbg
	left  int
	reads int
}

func (r *failingReader) Read(p []byte) (int, error) {
	r.reads++
	if r.left == 0 {
		return 0, errSourceFailed
	}
	p = p[:min(len(p), r.left)]
	r.left -= len(p)
	return r.d.Read(p)
}

// TestGenerateKeyRefusals: a source that fails part-way through a prime
// candidate makes GenerateKey return its error, and a size off the
// supported list is refused before anything is read, by the generator and
// by everything that generates through it.
func TestGenerateKeyRefusals(t *testing.T) {
	// 40 bytes are one 32-byte candidate and a quarter of the next: a
	// 512-bit key needs at least two.
	for _, left := range []int{0, 40} {
		r := &failingReader{d: newDRBG([]byte("failing")), left: left}
		if k, err := GenerateKey(r, 512); !errors.Is(err, errSourceFailed) {
			t.Fatalf("source failing after %d bytes: key %v, err %v", left, k != nil, err)
		}
	}
	for _, bits := range []int{0, 1, 768, 1023, 4096} {
		r := &failingReader{d: newDRBG([]byte("unread")), left: 1 << 20}
		if _, err := GenerateKey(r, bits); !errors.Is(err, ErrKeySize) || r.reads != 0 {
			t.Fatalf("%d bits: err %v after %d reads; want ErrKeySize before any", bits, err, r.reads)
		}
	}
	if _, err := New(Config{RSABits: 4096, Seed: []byte("big")}); !errors.Is(err, ErrKeySize) {
		t.Fatalf("New at 4096 bits: %v", err)
	}
	if _, err := New2(Config{RSABits: 4096, Seed: []byte("big")}); !errors.Is(err, ErrKeySize) {
		t.Fatalf("New2 at 4096 bits: %v", err)
	}
	pool := NewKeyPool(KeyPoolConfig{Bits: 4096, Seed: []byte("big")})
	pool.Close()
	if st := pool.Stats(); st.Generated != 0 {
		t.Fatalf("a 4096-bit pool generated %d keys", st.Generated)
	}
}

// keyStream snapshots an engine's key DRBG, which moves only when a key is
// drawn.
func keyStream(eng *TPM) [2][32]byte { return [2][32]byte{eng.keyRng.k, eng.keyRng.v} }

// TestKeyCreationRefusesUnsupportedSizes: TakeOwnership and CreateWrapKey
// answer a key size off the supported list with TPM_BAD_KEY_PROPERTY before
// any key is drawn, and the refusal leaves the engine as it was. A
// supported size other than the engine's own is honoured.
func TestKeyCreationRefusesUnsupportedSizes(t *testing.T) {
	for _, bits := range []uint32{4096, 1} {
		eng, cli := newStartedTPM(t, fmt.Sprintf("own-size-%d", bits))
		before := keyStream(eng)
		srk := KeyParams{Usage: KeyUsageStorage, Scheme: ESRSAESOAEP, Bits: bits}
		if _, err := cli.takeOwnership(ownerAuth, srkAuth, srk); !IsTPMError(err, RCBadKeyProperty) {
			t.Fatalf("TakeOwnership at %d bits: err %v, want RCBadKeyProperty", bits, err)
		}
		if keyStream(eng) != before || eng.Owned() {
			t.Fatalf("TakeOwnership at %d bits drew a key or took ownership", bits)
		}
		if _, err := cli.TakeOwnership(ownerAuth, srkAuth); err != nil {
			t.Fatalf("TakeOwnership after the refusal: %v", err)
		}

		before = keyStream(eng)
		child := KeyParams{Usage: KeyUsageSigning, Scheme: SSRSASSAPKCS1v15SHA1, Bits: bits}
		if _, err := cli.CreateWrapKey(KHSRK, srkAuth, keyAuth, child); !IsTPMError(err, RCBadKeyProperty) {
			t.Fatalf("CreateWrapKey at %d bits: err %v, want RCBadKeyProperty", bits, err)
		}
		if keyStream(eng) != before {
			t.Fatalf("CreateWrapKey at %d bits drew a key", bits)
		}
	}

	_, cli := newOwnedTPM(t, "own-size-1024")
	blob, err := cli.CreateWrapKey(KHSRK, srkAuth, keyAuth,
		KeyParams{Usage: KeyUsageSigning, Scheme: SSRSASSAPKCS1v15SHA1, Bits: 1024})
	if err != nil {
		t.Fatalf("CreateWrapKey at 1024 bits on a %d-bit engine: %v", testBits, err)
	}
	_, pubBytes, _, _ := ParseKeyBlobPublic(blob)
	pub, err := UnmarshalPublicKey(pubBytes)
	if err != nil || pub.N.BitLen() != 1024 {
		t.Fatalf("1024-bit wrap key: %v", err)
	}
}

// withKeySize returns state with its key-size field, which follows the
// 4-byte magic and the version, set to bits.
func withKeySize(state []byte, bits uint32) []byte {
	out := bytes.Clone(state)
	binary.BigEndian.PutUint32(out[len(stateMagic)+4:], bits)
	return out
}

// TestRestoreRefusesUnsupportedKeySize: a 1.2 or 2.0 state blob whose
// key-size field is off the supported list is refused, although the rest of
// the blob restores.
func TestRestoreRefusesUnsupportedKeySize(t *testing.T) {
	eng12, _ := newStartedTPM(t, "restore-size-1.2")
	eng20, err := New2(Config{RSABits: testBits, Seed: []byte("restore-size-2.0")})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		name    string
		state   []byte
		restore func([]byte) error
	}{
		{"RestoreState", eng12.SaveState(), func(b []byte) error { _, err := RestoreState(b); return err }},
		{"RestoreState2", eng20.SaveState(), func(b []byte) error { _, err := RestoreState2(b); return err }},
	} {
		if err := e.restore(withKeySize(e.state, 1024)); err != nil {
			t.Fatalf("%s: a 1024-bit size field does not restore: %v", e.name, err)
		}
		for _, bits := range []uint32{4096, 0, 1} {
			if err := e.restore(withKeySize(e.state, bits)); !errors.Is(err, ErrKeySize) {
				t.Errorf("%s at %d bits: err %v, want ErrKeySize", e.name, bits, err)
			}
		}
	}
}

// BenchmarkGenerateKey times one key per iteration at each supported size,
// all drawn from one seeded stream, so runs of the same -benchtime Nx
// generate the same keys.
func BenchmarkGenerateKey(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			rng := newDRBG([]byte(fmt.Sprintf("bench-keygen-%d", bits)))
			for i := 0; i < b.N; i++ {
				if _, err := GenerateKey(rng, bits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
