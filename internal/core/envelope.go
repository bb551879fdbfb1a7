package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"hash"
	"io"

	"xvtpm/internal/vtpm"
)

// State envelopes: AES-128-CTR with a random IV plus HMAC-SHA256
// (encrypt-then-MAC), used for vTPM state at rest, the in-memory mirror and
// migration payloads. Unlike the command channel there is no sequence
// discipline here, so the IV is random.
const (
	stateIVSize   = aes.BlockSize
	stateMacSize  = sha256.Size
	stateOverhead = stateIVSize + stateMacSize
)

// stateKeys is an expanded state key: the AES-128 cipher key followed by
// the HMAC-SHA256 MAC key. The improved guard keeps one per instance (see
// ImprovedGuard.ProtectState); migration envelopes expand theirs per call.
type stateKeys [16 + sha256.Size]byte

// expandStateKeys expands a state key into its cipher and MAC keys.
func expandStateKeys(key []byte, k *stateKeys) {
	enc, mac := deriveBytes(key, "state-enc"), deriveBytes(key, "state-mac")
	copy(k[:16], enc)
	copy(k[16:], mac)
	clear(enc)
	clear(mac)
}

// stateCipher is an expanded state key set up for one envelope: the AES
// block and an HMAC-SHA256 keyed with the MAC key. It is built per envelope
// and dropped after it; nothing keeps one.
type stateCipher struct {
	block cipher.Block
	mac   hash.Hash
}

// newStateCipher sets up k for one envelope. Both halves copy the key into
// their own state, so k may be cleared or rewritten as soon as it returns.
func newStateCipher(k *stateKeys) (stateCipher, error) {
	block, err := aes.NewCipher(k[:16])
	if err != nil {
		return stateCipher{}, err
	}
	return stateCipher{block: block, mac: hmac.New(sha256.New, k[16:])}, nil
}

// stateCipherOf expands a state key and sets it up for one envelope.
func stateCipherOf(key []byte) (stateCipher, error) {
	var k stateKeys
	defer clear(k[:])
	expandStateKeys(key, &k)
	return newStateCipher(&k)
}

// stateSeal encrypts and authenticates plaintext under key.
func stateSeal(key, plaintext []byte) ([]byte, error) {
	c, err := stateCipherOf(key)
	if err != nil {
		return nil, err
	}
	return c.sealAppend(nil, plaintext)
}

// stateOpen reverses stateSeal.
func stateOpen(key, envelope []byte) ([]byte, error) {
	c, err := stateCipherOf(key)
	if err != nil {
		return nil, err
	}
	return c.open(envelope)
}

// sealAppend seals plaintext, appending the envelope to dst. The checkpoint
// pipeline passes buf[:0] of a per-instance scratch slice, so steady-state
// persists reuse one buffer instead of allocating per checkpoint.
func (c stateCipher) sealAppend(dst, plaintext []byte) ([]byte, error) {
	n := len(dst)
	dst = grow(dst, stateIVSize+len(plaintext)+stateMacSize)
	out := dst[n:]
	if _, err := io.ReadFull(rand.Reader, out[:stateIVSize]); err != nil {
		return nil, err
	}
	cipher.NewCTR(c.block, out[:stateIVSize]).XORKeyStream(out[stateIVSize:stateIVSize+len(plaintext)], plaintext)
	c.mac.Write(out[:stateIVSize+len(plaintext)])
	// out has exactly stateMacSize spare bytes past the body, so Sum appends
	// the tag in place without reallocating.
	c.mac.Sum(out[:stateIVSize+len(plaintext)])
	return dst, nil
}

// grow extends b by n bytes, reusing capacity when it can.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[: len(b)+n : len(b)+n]
	}
	nb := make([]byte, len(b)+n)
	copy(nb, b)
	return nb
}

// open reverses sealAppend.
func (c stateCipher) open(envelope []byte) ([]byte, error) {
	if len(envelope) < stateOverhead {
		return nil, fmt.Errorf("%w: envelope of %d bytes", vtpm.ErrStateSealed, len(envelope))
	}
	body := envelope[:len(envelope)-stateMacSize]
	c.mac.Write(body)
	if subtle.ConstantTimeCompare(c.mac.Sum(nil), envelope[len(envelope)-stateMacSize:]) != 1 {
		return nil, vtpm.ErrStateSealed
	}
	pt := make([]byte, len(body)-stateIVSize)
	cipher.NewCTR(c.block, body[:stateIVSize]).XORKeyStream(pt, body[stateIVSize:])
	return pt, nil
}
