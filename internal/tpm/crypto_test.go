package tpm

import (
	"crypto"
	"crypto/rsa"
	"errors"
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
// every run, although crypto/rsa reads a random extra byte per prime
// candidate.
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
		k, err := generateRSA(eng, testBits)
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
// exponent, a prime below 2 and a truncated blob.
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
