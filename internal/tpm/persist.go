package tpm

import (
	cryptorand "crypto/rand"
	"fmt"
	"slices"
)

// Persistent-state serialization. The vTPM manager snapshots instances with
// SaveState and revives them with RestoreState — across manager restarts and
// across hosts during migration. Only persistent state travels: loaded key
// slots and authorization sessions are volatile, exactly as on hardware, so
// clients reload keys after a restore.
//
// The format is a versioned, deterministic binary layout (not gob) so that
// blob sizes are meaningful for the storage-overhead experiment (E8) and so
// two snapshots of identical state are byte-identical.

// stateVersion is the serialization format version.
const stateVersion uint32 = 1

// StateMagic is the marker every serialized TPM state blob begins with.
// The attack harness scans memory dumps and stolen files for it: finding it
// means plaintext TPM state (and therefore key material) is exposed.
const StateMagic = "XVTM"

// stateMagic guards against feeding arbitrary blobs to RestoreState.
var stateMagic = []byte(StateMagic)

// SaveState serializes the TPM's persistent state.
func (t *TPM) SaveState() []byte {
	return t.AppendState(nil)
}

// AppendState serializes the TPM's persistent state, appending it to dst and
// returning the extended slice. Passing buf[:0] of a scratch slice lets a
// steady checkpoint loop serialize without allocating once the buffer has
// grown to the state's working size.
func (t *TPM) AppendState(dst []byte) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := NewWriterBuf(dst)
	w.Raw(stateMagic)
	w.U32(stateVersion)
	w.U32(uint32(t.rsaBits))
	if t.started {
		w.U8(1)
	} else {
		w.U8(0)
	}
	for i := range t.pcrs {
		w.Raw(t.pcrs[i][:])
	}
	if t.owned {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.Raw(t.ownerAuth[:])
	w.Raw(t.tpmProof[:])
	privateKeyB32(w, t.ek)
	if t.srk != nil {
		w.U8(1)
		privateKeyB32(w, t.srk.priv)
		w.Raw(t.srk.usageAuth[:])
	} else {
		w.U8(0)
	}
	// NV areas in index order for determinism. The handles are sorted in a
	// stack buffer; only an instance with more than its capacity of areas
	// or counters spills to the heap.
	var handles [16]uint32
	indices := sortedKeys(handles[:0], t.nv)
	w.U32(uint32(len(indices)))
	for _, idx := range indices {
		a := t.nv[idx]
		w.U32(idx)
		w.U32(a.perms)
		w.U32(a.size)
		w.Raw(a.auth[:])
		w.Raw(a.data)
	}
	// Monotonic counters in handle order.
	cids := sortedKeys(handles[:0], t.counters)
	w.U32(uint32(len(cids)))
	for _, id := range cids {
		c := t.counters[id]
		w.U32(id)
		w.Raw(c.label[:])
		w.Raw(c.auth[:])
		w.U32(c.value)
	}
	w.U32(t.nextCounterID)
	w.U32(t.counterFloor)
	// Dictionary-attack state persists, as on hardware, so a restart does
	// not reset the defense.
	w.U32(t.authFailCount)
	if t.lockedOut {
		w.U8(1)
	} else {
		w.U8(0)
	}
	// DRBG state, so a restored instance continues the same nonce stream.
	w.B32(t.rng.k[:])
	w.B32(t.rng.v[:])
	return w.Bytes()
}

// sortedKeys appends m's handles to dst in ascending order.
func sortedKeys[V any](dst []uint32, m map[uint32]V) []uint32 {
	for h := range m {
		dst = append(dst, h)
	}
	slices.Sort(dst)
	return dst
}

// RestoreState revives a TPM from a SaveState blob.
func RestoreState(blob []byte) (*TPM, error) {
	r := NewReader(blob)
	magic := r.Raw(len(stateMagic))
	ver := r.U32()
	if r.Err() != nil || string(magic) != string(stateMagic) {
		return nil, fmt.Errorf("tpm: not a TPM state blob")
	}
	if ver != stateVersion {
		return nil, fmt.Errorf("tpm: state version %d, want %d", ver, stateVersion)
	}
	t := &TPM{
		rsaBits:     int(r.U32()),
		keys:        make(map[uint32]*loadedKey),
		sessions:    make(map[uint32]*session),
		nv:          make(map[uint32]*nvArea),
		nextHandle:  0x01000000,
		nextSession: 0x02000000,
	}
	if !supportedKeySize(t.rsaBits) {
		return nil, fmt.Errorf("%w: state blob sizes keys at %d bits", ErrKeySize, t.rsaBits)
	}
	t.started = r.U8() == 1
	for i := range t.pcrs {
		copy(t.pcrs[i][:], r.Raw(DigestSize))
	}
	t.owned = r.U8() == 1
	copy(t.ownerAuth[:], r.Raw(AuthSize))
	copy(t.tpmProof[:], r.Raw(AuthSize))
	ekBytes := r.B32()
	if r.Err() != nil {
		return nil, r.Err()
	}
	ek, err := unmarshalPrivateKey(ekBytes)
	if err != nil {
		return nil, fmt.Errorf("tpm: restoring EK: %w", err)
	}
	t.ek = ek
	if r.U8() == 1 {
		srkBytes := r.B32()
		if r.Err() != nil {
			return nil, r.Err()
		}
		srkKey, err := unmarshalPrivateKey(srkBytes)
		if err != nil {
			return nil, fmt.Errorf("tpm: restoring SRK: %w", err)
		}
		t.srk = &loadedKey{priv: srkKey, usage: KeyUsageStorage, scheme: ESRSAESOAEP}
		copy(t.srk.usageAuth[:], r.Raw(AuthSize))
	}
	nvCount := r.U32()
	for i := uint32(0); i < nvCount && r.Err() == nil; i++ {
		idx := r.U32()
		a := &nvArea{perms: r.U32(), size: r.U32()}
		copy(a.auth[:], r.Raw(AuthSize))
		a.data = r.Raw(int(a.size))
		t.nv[idx] = a
	}
	t.counters = make(map[uint32]*counter)
	counterCount := r.U32()
	for i := uint32(0); i < counterCount && r.Err() == nil; i++ {
		id := r.U32()
		c := &counter{}
		copy(c.label[:], r.Raw(4))
		copy(c.auth[:], r.Raw(AuthSize))
		c.value = r.U32()
		t.counters[id] = c
	}
	t.nextCounterID = r.U32()
	t.counterFloor = r.U32()
	t.authFailCount = r.U32()
	t.lockedOut = r.U8() == 1
	k := r.B32()
	v := r.B32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("tpm: %d trailing bytes in state blob", r.Remaining())
	}
	t.rng = restoreDRBG(k, v)
	keySeed := make([]byte, 32)
	if _, err := cryptorand.Read(keySeed); err != nil {
		return nil, err
	}
	t.keyRng = newDRBG(keySeed)
	return t, nil
}
