package tpm

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"testing"
	"time"
)

// testEK returns the endorsement key of a seeded test engine.
func testEK(t testing.TB, seed string) *rsa.PrivateKey {
	t.Helper()
	eng, err := New(Config{RSABits: testBits, Seed: []byte(seed)})
	if err != nil {
		t.Fatal(err)
	}
	return eng.ek
}

// TestSeededKeysRepeat: a seeded engine's keys — its EK and the keys it
// generates later — and a seeded key pool's sequence come out the same on
// every run.
func TestSeededKeysRepeat(t *testing.T) {
	same := func(what string, a, b *rsa.PrivateKey) {
		t.Helper()
		if a.N.Cmp(b.N) != 0 || a.D.Cmp(b.D) != 0 {
			t.Fatalf("%s differs between two engines seeded alike", what)
		}
	}
	same("EK", testEK(t, "repeat"), testEK(t, "repeat"))
	generated := func() *rsa.PrivateKey {
		eng, err := New(Config{RSABits: testBits, Seed: []byte("repeat")})
		if err != nil {
			t.Fatal(err)
		}
		k, err := newKey(eng.keyPool, eng.keyRng, testBits)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	same("generated key", generated(), generated())
	pooled := func() *rsa.PrivateKey {
		pool := NewKeyPool(KeyPoolConfig{Bits: testBits, Size: 1, Seed: []byte("repeat")})
		defer pool.Close()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if k, ok := pool.Get(testBits); ok {
				return k
			}
		}
		t.Fatal("key pool produced nothing")
		return nil
	}
	same("first pooled key", pooled(), pooled())
}

// corruptKeyBlob is one malformed marshalPrivateKey blob.
type corruptKeyBlob struct {
	name string
	blob []byte
}

// corruptKeyBlobs derives malformed private-key blobs from a valid key: one
// bit flipped in each of n, d, p and q, a repeated prime, an even public
// exponent, a prime below 2, a truncated blob, a q with no inverse modulo p,
// an even p, a d at least n and a small d.
func corruptKeyBlobs(k *rsa.PrivateKey) []corruptKeyBlob {
	with := func(edit func(c *rsa.PrivateKey)) []byte {
		c := &rsa.PrivateKey{
			PublicKey: rsa.PublicKey{N: new(big.Int).Set(k.N), E: k.E},
			D:         new(big.Int).Set(k.D),
			Primes:    []*big.Int{new(big.Int).Set(k.Primes[0]), new(big.Int).Set(k.Primes[1])},
		}
		edit(c)
		return marshalPrivateKey(c)
	}
	flip := func(x *big.Int, bit int) { x.SetBit(x, bit, x.Bit(bit)^1) }
	good := marshalPrivateKey(k)
	return []corruptKeyBlob{
		{"n bit flipped", with(func(c *rsa.PrivateKey) { flip(c.N, 100) })},
		{"d bit flipped", with(func(c *rsa.PrivateKey) { flip(c.D, 5) })},
		{"p bit flipped", with(func(c *rsa.PrivateKey) { flip(c.Primes[0], 3) })},
		{"q bit flipped", with(func(c *rsa.PrivateKey) { flip(c.Primes[1], 3) })},
		{"p = q", with(func(c *rsa.PrivateKey) { c.Primes[1].Set(c.Primes[0]) })},
		{"e = 4", with(func(c *rsa.PrivateKey) { c.E = 4 })},
		{"p = 1", with(func(c *rsa.PrivateKey) { c.Primes[0].SetInt64(1) })},
		{"truncated", good[:len(good)-7]},
		{"q multiple of p", with(func(c *rsa.PrivateKey) { c.Primes[1].Mul(c.Primes[1], c.Primes[0]) })},
		{"p even", with(func(c *rsa.PrivateKey) { c.Primes[0].Add(c.Primes[0], big.NewInt(1)) })},
		{"d >= n", with(func(c *rsa.PrivateKey) { c.D.Add(c.D, c.N) })},
		{"d small", with(func(c *rsa.PrivateKey) { c.D.SetInt64(3) })},
	}
}

// TestUnmarshalPrivateKeyValidates pins the parser's consistency check with
// the key set up before it is validated: every corrupted blob is refused
// with ErrBadKey, and an accepted key carries its CRT values and signs.
func TestUnmarshalPrivateKeyValidates(t *testing.T) {
	ek := testEK(t, "key-parse")
	for _, tc := range corruptKeyBlobs(ek) {
		if k, err := unmarshalPrivateKey(tc.blob); !errors.Is(err, ErrBadKey) {
			t.Errorf("%s: key %v, err %v; want ErrBadKey", tc.name, k != nil, err)
		}
	}

	k, err := unmarshalPrivateKey(marshalPrivateKey(ek))
	if err != nil {
		t.Fatal(err)
	}
	if k.Precomputed.Dp == nil || k.Precomputed.Dq == nil || k.Precomputed.Qinv == nil {
		t.Fatal("accepted key carries no CRT values")
	}
	digest := sha1Sum([]byte("key-parse"))
	sig, err := rsa.SignPKCS1v15(nil, k, crypto.SHA1, digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := rsa.VerifyPKCS1v15(&ek.PublicKey, crypto.SHA1, digest, sig); err != nil {
		t.Fatalf("signature by the parsed key does not verify: %v", err)
	}
}

// seededKey generates a bits-bit RSA key from a seeded DRBG, the same on
// every run.
func seededKey(t testing.TB, bits int, seed string) *rsa.PrivateKey {
	t.Helper()
	k, err := GenerateKey(newDRBG([]byte(seed)), bits)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestUnmarshalPrivateKeyMatchesPrecompute: the CRT values the parser
// derives with math/big are the ones Go's own Precompute derives for a fresh
// copy of the same key, at every key size the engines use.
func TestUnmarshalPrivateKeyMatchesPrecompute(t *testing.T) {
	for _, bits := range []int{512, DefaultRSABits, 2048} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			k := seededKey(t, bits, fmt.Sprintf("crt-%d", bits))
			ref := &rsa.PrivateKey{
				PublicKey: rsa.PublicKey{N: new(big.Int).Set(k.N), E: k.E},
				D:         new(big.Int).Set(k.D),
				Primes:    []*big.Int{new(big.Int).Set(k.Primes[0]), new(big.Int).Set(k.Primes[1])},
			}
			ref.Precompute()
			if ref.Precomputed.Qinv == nil {
				t.Fatal("Go's Precompute derived no CRT values for a generated key")
			}
			got, err := unmarshalPrivateKey(marshalPrivateKey(k))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []struct {
				name      string
				got, want *big.Int
			}{
				{"Dp", got.Precomputed.Dp, ref.Precomputed.Dp},
				{"Dq", got.Precomputed.Dq, ref.Precomputed.Dq},
				{"Qinv", got.Precomputed.Qinv, ref.Precomputed.Qinv},
			} {
				if v.got == nil || v.got.Cmp(v.want) != 0 {
					t.Errorf("%s = %v, Precompute derives %v", v.name, v.got, v.want)
				}
			}
		})
	}
}

// spliceKey returns state with the B32 field that holds the key blob good
// replaced by one holding bad.
func spliceKey(t *testing.T, state, good, bad []byte) []byte {
	t.Helper()
	at := bytes.Index(state, good)
	if at < 4 || binary.BigEndian.Uint32(state[at-4:]) != uint32(len(good)) {
		t.Fatal("key field not found in the state blob")
	}
	return NewWriter().Raw(state[:at-4]).B32(bad).Raw(state[at+len(good):]).Bytes()
}

// TestRestoreRefusesCorruptKeys: every corrupted key, spliced in place of
// the EK of a 1.2 or a 2.0 state blob, makes that engine's restore fail with
// ErrBadKey, while the untouched blob restores.
func TestRestoreRefusesCorruptKeys(t *testing.T) {
	eng12, _ := newOwnedTPM(t, "splice-1.2")
	eng20, err := New2(Config{RSABits: testBits, Seed: []byte("splice-2.0")})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		name    string
		ek      *rsa.PrivateKey
		state   []byte
		restore func([]byte) error
	}{
		{"RestoreState", eng12.ek, eng12.SaveState(), func(b []byte) error { _, err := RestoreState(b); return err }},
		{"RestoreState2", eng20.ek, eng20.SaveState(), func(b []byte) error { _, err := RestoreState2(b); return err }},
	} {
		t.Run(e.name, func(t *testing.T) {
			good := marshalPrivateKey(e.ek)
			if err := e.restore(spliceKey(t, e.state, good, good)); err != nil {
				t.Fatalf("the untouched blob does not restore: %v", err)
			}
			for _, tc := range corruptKeyBlobs(e.ek) {
				if err := e.restore(spliceKey(t, e.state, good, tc.blob)); !errors.Is(err, ErrBadKey) {
					t.Errorf("%s: restore err %v; want ErrBadKey", tc.name, err)
				}
			}
		})
	}
}
