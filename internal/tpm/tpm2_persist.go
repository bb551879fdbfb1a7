package tpm

import (
	cryptorand "crypto/rand"
	"fmt"
)

// TPM 2.0 persistent-state serialization, mirroring the 1.2 layout
// discipline: versioned, deterministic, and carrying only persistent state.
// Authorization sessions are volatile — exactly as on hardware — so a
// restored instance starts with an empty session table and clients re-open
// sessions after a restore or migration.

// State2Magic marks serialized TPM 2.0 engine state; RestoreEngine dispatches
// on it. The attack harness scans for both magics, since a stolen 2.0 blob
// leaks key material just as a 1.2 blob does.
const State2Magic = "XVT2"

var state2Magic = []byte(State2Magic)

// state2Version is the 2.0 serialization format version.
const state2Version uint32 = 1

// SaveState implements Engine.
func (t *TPM2) SaveState() []byte {
	return t.AppendState(nil)
}

// AppendState implements Engine: serializes into dst (pass buf[:0] of a
// scratch slice for the manager's zero-steady-state checkpoint loop).
func (t *TPM2) AppendState(dst []byte) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := NewWriterBuf(dst)
	w.Raw(state2Magic)
	w.U32(state2Version)
	w.U32(uint32(t.rsaBits))
	if t.started {
		w.U8(1)
	} else {
		w.U8(0)
	}
	for i := range t.sha1Bank {
		w.Raw(t.sha1Bank[i][:])
	}
	for i := range t.sha256Bank {
		w.Raw(t.sha256Bank[i][:])
	}
	w.U32(t.pcrUpdateCounter)
	privateKeyB32(w, t.ek)
	// Dictionary-attack state persists so a restart does not reset the
	// defense, matching the 1.2 engine.
	w.U32(t.authFailCount)
	if t.lockedOut {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U64(t.commandCount)
	// DRBG state, so a restored instance continues the same nonce stream.
	w.B32(t.rng.k[:])
	w.B32(t.rng.v[:])
	return w.Bytes()
}

// RestoreState2 revives a TPM 2.0 engine from a SaveState blob.
func RestoreState2(blob []byte) (*TPM2, error) {
	r := NewReader(blob)
	magic := r.Raw(len(state2Magic))
	ver := r.U32()
	if r.Err() != nil || string(magic) != string(state2Magic) {
		return nil, fmt.Errorf("tpm2: not a TPM 2.0 state blob")
	}
	if ver != state2Version {
		return nil, fmt.Errorf("tpm2: state version %d, want %d", ver, state2Version)
	}
	t := &TPM2{
		rsaBits:     int(r.U32()),
		sessions:    make(map[uint32]*session2),
		nextSession: tpm2SessionBase,
	}
	if !supportedKeySize(t.rsaBits) {
		return nil, fmt.Errorf("%w: state blob sizes keys at %d bits", ErrKeySize, t.rsaBits)
	}
	t.started = r.U8() == 1
	for i := range t.sha1Bank {
		copy(t.sha1Bank[i][:], r.Raw(DigestSize))
	}
	for i := range t.sha256Bank {
		copy(t.sha256Bank[i][:], r.Raw(SHA256Size))
	}
	t.pcrUpdateCounter = r.U32()
	ekBytes := r.B32()
	if r.Err() != nil {
		return nil, r.Err()
	}
	ek, err := unmarshalPrivateKey(ekBytes)
	if err != nil {
		return nil, fmt.Errorf("tpm2: restoring EK: %w", err)
	}
	t.ek = ek
	t.authFailCount = r.U32()
	t.lockedOut = r.U8() == 1
	t.commandCount = r.U64()
	k := r.B32()
	v := r.B32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("tpm2: %d trailing bytes in state blob", r.Remaining())
	}
	t.rng = restoreDRBG(k, v)
	keySeed := make([]byte, 32)
	if _, err := cryptorand.Read(keySeed); err != nil {
		return nil, err
	}
	t.keyRng = newDRBG(keySeed)
	return t, nil
}
