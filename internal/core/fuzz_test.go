package core

import (
	"bytes"
	"testing"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
)

// FuzzChannelOpen throws arbitrary payloads at the server side of the
// authenticated channel: everything that is not a fresh, well-MACed request
// envelope must be rejected (never panic, never accept).
func FuzzChannelOpen(f *testing.F) {
	var key ChannelKey
	copy(key[:], deriveBytes([]byte("fuzz"), "chan"))
	codec := NewGuestCodec(key)
	valid, _, _ := codec.EncodeRequest(nil, []byte("hello"))
	f.Add(valid)
	f.Add([]byte{})
	f.Add(make([]byte, chanOverhead))
	mut := append([]byte(nil), valid...)
	mut[len(mut)-1] ^= 0xFF
	f.Add(mut)
	// Frame-length edges: truncated valid envelope, header-only frame,
	// one-short-of-overhead, and a valid envelope padded past its length.
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:chanHeaderSize])
	f.Add(make([]byte, chanOverhead-1))
	f.Add(append(append([]byte(nil), valid...), make([]byte, 32)...))
	f.Fuzz(func(t *testing.T, payload []byte) {
		srv := &serverChannel{key: key} // fresh window per input
		cmd, _, err := srv.open(payload)
		if err != nil {
			return
		}
		// The only acceptable success is the untampered seed envelope.
		if string(cmd) != "hello" {
			t.Fatalf("forged envelope accepted: %x → %q", payload, cmd)
		}
	})
}

// FuzzStateOpen covers the state-envelope parser (at-rest blobs and
// migration payloads are attacker-reachable). Each input is opened twice:
// through the improved guard's cached per-instance key and through the
// one-shot stateOpen under a fresh derivation of the same key. The two must
// agree on accepting or refusing it and on the plaintext, and only an
// untampered seed envelope may be accepted. The platform master is fixed,
// so a failing input replays.
func FuzzStateOpen(f *testing.F) {
	keys := &PlatformKeys{master: deriveBytes([]byte("fuzz"), "master")}
	g := NewImprovedGuard(keys, NewPolicy())
	inst := vtpm.InstanceInfo{ID: 7}
	g.stateFor(inst.ID) // an admitted instance: RecoverState uses its cache
	key := keys.InstanceKey(inst.ID)
	valid, _ := stateSeal(key, []byte("state-bytes"))
	cached, _ := g.ProtectState(inst, nil, []byte("state-bytes"))
	f.Add(valid)
	f.Add(cached)
	f.Add([]byte{})
	f.Add(make([]byte, stateOverhead))
	f.Add(valid[:len(valid)-1])
	f.Add(make([]byte, stateOverhead-1))
	f.Add(append(append([]byte(nil), valid...), make([]byte, 32)...))
	f.Fuzz(func(t *testing.T, env []byte) {
		pt, err := stateOpen(key, env)
		viaCache, cacheErr := g.RecoverState(inst, env)
		if (err == nil) != (cacheErr == nil) || !bytes.Equal(pt, viaCache) {
			t.Fatalf("cached and one-shot opens disagree on %x: %q (%v) vs %q (%v)", env, viaCache, cacheErr, pt, err)
		}
		if err != nil {
			return
		}
		if string(pt) != "state-bytes" {
			t.Fatalf("forged envelope accepted: %x", env)
		}
	})
}

// FuzzUnmarshalPolicy covers the policy deserializer (management-plane
// input).
func FuzzUnmarshalPolicy(f *testing.F) {
	p := NewPolicy(DefaultGuestPolicy(launchOf("g"), 1)...)
	blob, _ := p.MarshalBinary()
	f.Add(blob)
	f.Add([]byte("XPOL1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := UnmarshalPolicy(b)
		if err != nil {
			return
		}
		// Accepted policies must be usable.
		_ = q.Evaluate(tpm.Profile12, launchOf("g"), vtpm.InstanceID(1), 0x14)
		if _, err := q.MarshalBinary(); err != nil {
			t.Fatal("accepted policy fails to re-marshal")
		}
	})
}
