package tpm

import (
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/bits"
)

// Crypto errors.
var (
	ErrEnvelope   = errors.New("tpm: envelope authentication failed")
	ErrBadKey     = errors.New("tpm: malformed key material")
	ErrWrongProof = errors.New("tpm: blob bound to a different TPM")
	ErrKeySize    = errors.New("tpm: unsupported RSA key size")
)

// oaepLabel is the OAEP encoding parameter TPM 1.2 mandates.
var oaepLabel = []byte("TCPA")

// sha1Sum is a convenience wrapper.
func sha1Sum(parts ...[]byte) []byte {
	h := sha1.New()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum(nil)
}

// hmacSHA1 computes the TPM 1.2 authorization HMAC.
func hmacSHA1(key []byte, parts ...[]byte) []byte {
	m := hmac.New(sha1.New, key)
	for _, p := range parts {
		m.Write(p)
	}
	return m.Sum(nil)
}

// hmacEqual compares MACs in constant time.
func hmacEqual(a, b []byte) bool { return subtle.ConstantTimeCompare(a, b) == 1 }

// oaepEncrypt performs RSA-OAEP-SHA1 with the TCPA label, as used for
// TakeOwnership's encrypted owner secret and identity activation.
func oaepEncrypt(rng io.Reader, pub *rsa.PublicKey, msg []byte) ([]byte, error) {
	return rsa.EncryptOAEP(sha1.New(), rng, pub, msg, oaepLabel)
}

// oaepDecrypt reverses oaepEncrypt.
func oaepDecrypt(priv *rsa.PrivateKey, ct []byte) ([]byte, error) {
	return rsa.DecryptOAEP(sha1.New(), nil, priv, ct, oaepLabel)
}

// signSHA1 produces an RSASSA-PKCS1-v1_5 signature over a SHA-1 digest,
// the TPM_SS_RSASSAPKCS1v15_SHA1 scheme.
func signSHA1(rng io.Reader, priv *rsa.PrivateKey, digest []byte) ([]byte, error) {
	if len(digest) != DigestSize {
		return nil, fmt.Errorf("tpm: sign digest is %d bytes, want %d", len(digest), DigestSize)
	}
	return rsa.SignPKCS1v15(rng, priv, crypto.SHA1, digest)
}

// VerifySHA1 verifies an RSASSA-PKCS1-v1_5 SHA-1 signature. Exported for
// verifiers (attestation services) that only hold the public key.
func VerifySHA1(pub *rsa.PublicKey, digest, sig []byte) error {
	return rsa.VerifyPKCS1v15(pub, crypto.SHA1, digest, sig)
}

// Envelope encryption: AES-128-CTR + HMAC-SHA1 (encrypt-then-MAC). This is
// the symmetric primitive pair contemporary with the paper (AES-GCM was not
// yet the systems default in 2010), used for key wrapping and for the
// improved controller's protected vTPM state.
const (
	envKeySize  = 16 // AES-128
	envMacSize  = DigestSize
	envIVSize   = aes.BlockSize
	envOverhead = envIVSize + envMacSize
)

// envSeal encrypts plaintext under (encKey, macKey) derived from key.
func envSeal(rng io.Reader, key, plaintext []byte) ([]byte, error) {
	encKey, macKey := deriveEnvKeys(key)
	block, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	out := make([]byte, envIVSize+len(plaintext)+envMacSize)
	iv := out[:envIVSize]
	if _, err := io.ReadFull(rng, iv); err != nil {
		return nil, err
	}
	cipher.NewCTR(block, iv).XORKeyStream(out[envIVSize:envIVSize+len(plaintext)], plaintext)
	mac := hmacSHA1(macKey, out[:envIVSize+len(plaintext)])
	copy(out[envIVSize+len(plaintext):], mac)
	return out, nil
}

// envOpen authenticates and decrypts an envSeal envelope.
func envOpen(key, envelope []byte) ([]byte, error) {
	if len(envelope) < envOverhead {
		return nil, fmt.Errorf("%w: envelope too short (%d bytes)", ErrEnvelope, len(envelope))
	}
	encKey, macKey := deriveEnvKeys(key)
	body := envelope[:len(envelope)-envMacSize]
	mac := envelope[len(envelope)-envMacSize:]
	if !hmacEqual(mac, hmacSHA1(macKey, body)) {
		return nil, ErrEnvelope
	}
	block, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	pt := make([]byte, len(body)-envIVSize)
	cipher.NewCTR(block, body[:envIVSize]).XORKeyStream(pt, body[envIVSize:])
	return pt, nil
}

// deriveEnvKeys expands one secret into distinct encryption and MAC keys.
func deriveEnvKeys(key []byte) (encKey, macKey []byte) {
	encKey = sha1Sum([]byte("enc"), key)[:envKeySize]
	macKey = sha1Sum([]byte("mac"), key)
	return encKey, macKey
}

// wrapPrivate wraps a child private key for storage under a parent storage
// key: a fresh AES key is OAEP-encrypted to the parent, and the serialized
// private material rides in an envSeal envelope under that AES key.
//
// Divergence from the spec (documented in the package comment): real TPM 1.2
// OAEP-encrypts the TPM_STORE_ASYMKEY structure directly. The hybrid form
// preserves the property that matters here — only the holder of the parent
// private key can unwrap — while working for any RSA modulus size.
func wrapPrivate(rng io.Reader, parent *rsa.PublicKey, blob []byte) ([]byte, error) {
	kek := make([]byte, envKeySize)
	if _, err := io.ReadFull(rng, kek); err != nil {
		return nil, err
	}
	wrappedKek, err := oaepEncrypt(rng, parent, kek)
	if err != nil {
		return nil, err
	}
	env, err := envSeal(rng, kek, blob)
	if err != nil {
		return nil, err
	}
	w := NewWriter()
	w.B32(wrappedKek)
	w.B32(env)
	return w.Bytes(), nil
}

// unwrapPrivate reverses wrapPrivate using the parent private key.
func unwrapPrivate(parent *rsa.PrivateKey, wrapped []byte) ([]byte, error) {
	r := NewReader(wrapped)
	wrappedKek := r.B32()
	env := r.B32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	kek, err := oaepDecrypt(parent, wrappedKek)
	if err != nil {
		return nil, fmt.Errorf("tpm: unwrap kek: %w", err)
	}
	return envOpen(kek, env)
}

// marshalPrivateKey serializes RSA private material (n, e, d, p, q).
func marshalPrivateKey(k *rsa.PrivateKey) []byte {
	w := NewWriter()
	writePrivateKey(w, k)
	return w.Bytes()
}

// writePrivateKey appends marshalPrivateKey's encoding of k to w, filling
// each integer straight into w's buffer, so the only copy of the key
// material it makes is the one in that buffer.
func writePrivateKey(w *Writer, k *rsa.PrivateKey) {
	w.bigB32(k.N)
	w.U32(uint32(k.E))
	w.bigB32(k.D)
	w.bigB32(k.Primes[0])
	w.bigB32(k.Primes[1])
}

// privateKeyB32 appends k's marshalPrivateKey encoding as a B32 field: the
// length prefix is reserved, the key written in place and the prefix
// back-patched. State serialization uses it so a checkpoint never builds a
// throwaway copy of the key.
func privateKeyB32(w *Writer, k *rsa.PrivateKey) {
	at := w.Len()
	w.U32(0)
	writePrivateKey(w, k)
	binary.BigEndian.PutUint32(w.buf[at:], uint32(w.Len()-at-4))
}

// unmarshalPrivateKey reverses marshalPrivateKey and validates the key. It
// is the one parser behind every restored RSA key: engine state restore
// (revive, adoption, TPM 2.0), LoadKey2 and LoadContext. newPrivateKey sets
// the key up and validates it.
func unmarshalPrivateKey(b []byte) (*rsa.PrivateKey, error) {
	r := NewReader(b)
	n := new(big.Int).SetBytes(r.B32())
	e := r.U32()
	d := new(big.Int).SetBytes(r.B32())
	p := new(big.Int).SetBytes(r.B32())
	q := new(big.Int).SetBytes(r.B32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadKey, err)
	}
	return newPrivateKey(n, int(e), d, p, q)
}

// newPrivateKey builds the key (n, e, d, p, q) and validates it, so a
// generated key passes exactly the checks a restored one does.
//
// It derives the CRT values itself with math/big — dP = d mod (p−1),
// dQ = d mod (q−1) and qInv = q⁻¹ mod p — and refuses a key whose q has no
// inverse modulo p. Precompute then builds the key from those values. Under
// Go 1.24 it does so through NewPrivateKeyWithPrecomputation, which refuses
// the key unless d < n, p·q = n, d·e ≡ 1 modulo p−1 and q−1 (checked
// through dP and dQ), qInv·q ≡ 1 mod p, |p−q| is large, d exceeds
// 2^(nlen/2) and e is in range; Validate reports the refusal. Go 1.22 and
// 1.23 keep the values as given, and Validate checks p·q = n and d·e ≡ 1
// modulo p−1 and q−1. Left to derive qInv itself, Go 1.24's Precompute
// computes q^(p−2) mod p, a constant-time exponentiation that costs about
// four times everything else here. The derivation differs from that in two
// ways:
//
//   - The derivation is variable-time in the primes, as it was in Go
//     1.20–1.23. Timing side channels are outside the threat model (DESIGN
//     §3): the adversary is a host that dumps memory.
//   - A crafted key whose "prime" is composite but which passes every check
//     above is no longer refused as a side effect of the Fermat inverse. No
//     Go version promises that refusal, and such a key yields no output: the
//     check Go runs after each signature, or OAEP's padding check, fails its
//     first private operation.
func newPrivateKey(n *big.Int, e int, d, p, q *big.Int) (*rsa.PrivateKey, error) {
	if p.BitLen() < 2 || q.BitLen() < 2 {
		return nil, fmt.Errorf("%w: prime factor below 2", ErrBadKey)
	}
	qInv := new(big.Int).ModInverse(q, p)
	if qInv == nil {
		return nil, fmt.Errorf("%w: q has no inverse modulo p", ErrBadKey)
	}
	one := big.NewInt(1)
	k := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: n, E: e},
		D:         d,
		Primes:    []*big.Int{p, q},
		Precomputed: rsa.PrecomputedValues{
			Dp:   new(big.Int).Mod(d, new(big.Int).Sub(p, one)),
			Dq:   new(big.Int).Mod(d, new(big.Int).Sub(q, one)),
			Qinv: qInv,
		},
	}
	k.Precompute()
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadKey, err)
	}
	return k, nil
}

// supportedKeySize reports whether bits is an RSA modulus size the engines
// generate and restore: TPM 1.2's key lengths of 512, 1,024 and 2,048 bits.
// It bounds what a guest (TakeOwnership, CreateWrapKey) or a state blob can
// make the host generate.
func supportedKeySize(bits int) bool {
	switch bits {
	case 512, 1024, 2048:
		return true
	}
	return false
}

// keyExponent is the public exponent of every generated key.
const keyExponent = 65537

// GenerateKey generates an RSA key of a supported size with public exponent
// 65537. It is the one key generator behind the engines' keys (EK, SRK, AIK
// and wrap keys), the key pool and the privacy CA, and it refuses any other
// size with ErrKeySize.
//
// It follows Go 1.24's crypto/rsa.GenerateKey step by step, so from the
// same stream of bytes it derives the same key:
//
//   - Each prime candidate is one read of ⌈bits/8⌉ bytes, with the excess
//     bits shifted off and the top two bits and the low bit set.
//   - p is drawn, then q. Both are drawn again when the odd part of
//     gcd(p−1, q−1) exceeds 32 bits or 65537 has no inverse modulo
//     λ(N) = lcm(p−1, q−1).
//   - d = 65537⁻¹ mod λ(N), on every toolchain (Go 1.22's own generator
//     takes it modulo (p−1)(q−1)).
//
// It departs from Go in two ways. It never reads an extra byte at random
// before a candidate (Go's randutil.MaybeReadByte), so a seeded reader
// gives the same key on every run. And it tests candidates with math/big:
// trial division by the odd primes below 1,024 (hasSmallFactor), then
// ProbablyPrime with Go 1.24's Miller–Rabin round count, which adds a
// Baillie–PSW test. Go 1.24 screens each candidate with a constant-time
// GCD against a product of small primes, which made up two-thirds of its
// key generation. The test is variable-time in the candidates, as Go's
// was through 1.23; timing side channels are outside the threat model
// (DESIGN §3). newPrivateKey assembles and validates the key as it does a
// restored one.
func GenerateKey(r io.Reader, bits int) (*rsa.PrivateKey, error) {
	if !supportedKeySize(bits) {
		return nil, fmt.Errorf("%w: %d bits", ErrKeySize, bits)
	}
	e := big.NewInt(keyExponent)
	one := big.NewInt(1)
	for {
		p, err := randomPrime(r, (bits+1)/2)
		if err != nil {
			return nil, err
		}
		q, err := randomPrime(r, bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			return nil, errors.New("tpm: generated p == q, random source is broken")
		}
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		if new(big.Int).Rsh(gcd, gcd.TrailingZeroBits()).BitLen() > 32 {
			continue // Go's limit on the divisor of lcm(p−1, q−1)
		}
		lambda := new(big.Int).Mul(pm1, qm1)
		lambda.Quo(lambda, gcd)
		d := new(big.Int).ModInverse(e, lambda)
		if d == nil {
			continue
		}
		return newPrivateKey(new(big.Int).Mul(p, q), keyExponent, d, p, q)
	}
}

// randomPrime draws prime candidates of the given size from r, as Go
// 1.24's crypto/internal/fips140/rsa.randomPrime does, until one is prime.
func randomPrime(r io.Reader, bits int) (*big.Int, error) {
	b := make([]byte, (bits+7)/8)
	w := new(big.Int)
	rounds := millerRabinRounds(bits)
	for {
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("tpm: drawing a prime candidate: %w", err)
		}
		excess := len(b)*8 - bits
		b[0] >>= excess
		if excess < 7 {
			b[0] |= 0b1100_0000 >> excess
		} else {
			b[0] |= 0b0000_0001
			b[1] |= 0b1000_0000
		}
		b[len(b)-1] |= 1
		w.SetBytes(b)
		if !hasSmallFactor(w) && w.ProbablyPrime(rounds) {
			return w, nil
		}
	}
}

// millerRabinRounds is the number of Miller–Rabin rounds Go 1.24 runs on a
// random prime candidate of the given size, from the two rows of its table
// that the supported key sizes reach (their primes have 256, 512 and 1,024
// bits): 27 rounds for 55–307 bits and 5 for 476–1,344 bits.
func millerRabinRounds(bits int) int {
	if bits >= 476 {
		return 5
	}
	return 27
}

// smallPrimeGroups holds the odd primes below 1,024, in ascending order and
// grouped so that each group's product fits in one machine word.
var smallPrimeGroups = groupSmallPrimes(1024)

// primeGroup is a run of small primes and their product.
type primeGroup struct {
	product uint
	primes  []uint
}

// groupSmallPrimes lists the odd primes below limit in word-sized groups.
func groupSmallPrimes(limit uint) []primeGroup {
	var groups []primeGroup
	g := primeGroup{product: 1}
	for p := uint(3); p < limit; p += 2 {
		if !big.NewInt(int64(p)).ProbablyPrime(0) { // exact below 2⁶⁴
			continue
		}
		if g.product > math.MaxUint/p {
			groups = append(groups, g)
			g = primeGroup{product: 1}
		}
		g.product *= p
		g.primes = append(g.primes, p)
	}
	return append(groups, g)
}

// hasSmallFactor reports whether w, which must exceed 1,024, is divisible
// by an odd prime below 1,024. It takes one remainder of w per group,
// folding w's words in from the top, and allocates nothing. The smallest
// primes come first, so most composites are refused by the first group.
func hasSmallFactor(w *big.Int) bool {
	words := w.Bits()
	for _, g := range smallPrimeGroups {
		var rem uint
		for i := len(words) - 1; i >= 0; i-- {
			rem = bits.Rem(rem, uint(words[i]), g.product)
		}
		for _, p := range g.primes {
			if rem%p == 0 {
				return true
			}
		}
	}
	return false
}

// MarshalPublicKey serializes an RSA public key (n, e); the inverse of
// UnmarshalPublicKey. Exported for attestation protocols that hash or
// transport public keys in the TPM wire form.
func MarshalPublicKey(k *rsa.PublicKey) []byte { return marshalPublicKey(k) }

// marshalPublicKey serializes an RSA public key (n, e).
func marshalPublicKey(k *rsa.PublicKey) []byte {
	w := NewWriter()
	w.B32(k.N.Bytes())
	w.U32(uint32(k.E))
	return w.Bytes()
}

// UnmarshalPublicKey parses a marshalPublicKey blob. Exported for verifiers.
func UnmarshalPublicKey(b []byte) (*rsa.PublicKey, error) {
	r := NewReader(b)
	n := new(big.Int).SetBytes(r.B32())
	e := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n.Sign() <= 0 || e == 0 {
		return nil, ErrBadKey
	}
	return &rsa.PublicKey{N: n, E: int(e)}, nil
}
