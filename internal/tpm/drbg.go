package tpm

import (
	"crypto/sha256"
	"hash"
	"sync"
)

// drbg is a deterministic random bit generator in the style of NIST SP
// 800-90A HMAC_DRBG (HMAC-SHA256, no reseed counter enforcement). The engine
// uses it for nonces, key-generation entropy and GetRandom so that a TPM
// instance seeded explicitly is fully reproducible — which the test suite,
// the migration protocol and the benchmark harness all rely on. Production
// configurations seed it from crypto/rand.
//
// The HMAC chain is computed against a single cached SHA-256 state with
// fixed-size scratch arrays, so generating output allocates nothing — Read
// sits on the GetRandom/nonce path of every dispatched command. The output
// stream is bit-identical to the textbook hmac.New formulation.
type drbg struct {
	mu sync.Mutex
	k  [sha256.Size]byte
	v  [sha256.Size]byte

	h   hash.Hash              // cached SHA-256 state for the HMAC chain
	pad [sha256.BlockSize]byte // ipad/opad scratch
	sum [sha256.Size]byte      // digest output scratch
}

// newDRBG instantiates the generator from seed material.
func newDRBG(seed []byte) *drbg {
	d := &drbg{}
	for i := range d.v {
		d.v[i] = 0x01
	}
	d.update(seed)
	return d
}

// restoreDRBG rebuilds a generator from persisted key/value state.
func restoreDRBG(k, v []byte) *drbg {
	d := &drbg{}
	copy(d.k[:], k)
	copy(d.v[:], v)
	return d
}

// Domain-separation bytes of the HMAC_DRBG update function.
var (
	drbgSep0 = []byte{0x00}
	drbgSep1 = []byte{0x01}
)

// hmacTo computes HMAC-SHA256(key, parts...) into out, reusing the cached
// hash state. key is passed by value, and every part is absorbed before out
// is written, so out may be the struct's own k or v while they also appear
// as inputs. Caller holds d.mu.
func (d *drbg) hmacTo(out *[sha256.Size]byte, key [sha256.Size]byte, parts ...[]byte) {
	if d.h == nil {
		d.h = sha256.New()
	}
	for i := range d.pad {
		d.pad[i] = 0x36
	}
	for i, b := range key {
		d.pad[i] ^= b
	}
	d.h.Reset()
	d.h.Write(d.pad[:])
	for _, p := range parts {
		d.h.Write(p)
	}
	inner := d.h.Sum(d.sum[:0])
	for i := range d.pad {
		d.pad[i] = 0x5c
	}
	for i, b := range key {
		d.pad[i] ^= b
	}
	d.h.Reset()
	d.h.Write(d.pad[:])
	d.h.Write(inner)
	copy(out[:], d.h.Sum(d.sum[:0]))
}

// update is the HMAC_DRBG state-update function.
func (d *drbg) update(provided []byte) {
	d.hmacTo(&d.k, d.k, d.v[:], drbgSep0, provided)
	d.hmacTo(&d.v, d.k, d.v[:])
	if len(provided) > 0 {
		d.hmacTo(&d.k, d.k, d.v[:], drbgSep1, provided)
		d.hmacTo(&d.v, d.k, d.v[:])
	}
}

// Read fills p with pseudorandom bytes; it never fails.
func (d *drbg) Read(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for n < len(p) {
		d.hmacTo(&d.v, d.k, d.v[:])
		n += copy(p[n:], d.v[:])
	}
	d.update(nil)
	return len(p), nil
}

// Reseed mixes additional entropy into the generator (TPM_StirRandom).
func (d *drbg) Reseed(entropy []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.update(entropy)
}
