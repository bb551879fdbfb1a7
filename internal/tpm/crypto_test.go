package tpm

import (
	"crypto"
	"crypto/rsa"
	"errors"
	"math/big"
	"testing"
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
