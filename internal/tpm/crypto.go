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
	"math/big"
)

// Crypto errors.
var (
	ErrEnvelope   = errors.New("tpm: envelope authentication failed")
	ErrBadKey     = errors.New("tpm: malformed key material")
	ErrWrongProof = errors.New("tpm: blob bound to a different TPM")
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
// (revive, adoption, TPM 2.0), LoadKey2 and LoadContext.
//
// The parser derives the CRT values itself with math/big — dP = d mod (p−1),
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
	if p.BitLen() < 2 || q.BitLen() < 2 {
		return nil, fmt.Errorf("%w: prime factor below 2", ErrBadKey)
	}
	qInv := new(big.Int).ModInverse(q, p)
	if qInv == nil {
		return nil, fmt.Errorf("%w: q has no inverse modulo p", ErrBadKey)
	}
	one := big.NewInt(1)
	k := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: n, E: int(e)},
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
