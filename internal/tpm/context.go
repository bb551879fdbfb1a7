package tpm

// Key-context management (TPM_SaveContext / TPM_LoadContext). The engine
// has a bounded number of key slots, as hardware does; context commands let
// a resource manager swap loaded keys out to (encrypted, replay-protected)
// blobs and back, multiplexing the slots among arbitrarily many keys. The
// context blob is encrypted under a key derived from tpmProof, so it is
// only loadable on the TPM that saved it, and a monotonic context counter
// plus an in-TPM liveness set prevent an evicted context from being loaded
// twice (double-load would resurrect flushed keys).

// Context ordinals.
const (
	OrdSaveContext uint32 = 0x000000B8
	OrdLoadContext uint32 = 0x000000B9
)

// maxLiveContexts bounds the number of outstanding saved contexts, as the
// chip's context-nonce table does.
const maxLiveContexts = 64

func init() {
	register(OrdSaveContext, cmdSaveContext)
	register(OrdLoadContext, cmdLoadContext)
}

// contextKey derives the symmetric key protecting context blobs.
func (t *TPM) contextKey() []byte {
	return sha1Sum([]byte("context-key"), t.tpmProof[:])
}

// cmdSaveContext evicts a loaded key into a context blob and frees its
// slot.
//
// Wire: keyHandle(u32) → contextBlob(B32).
func cmdSaveContext(ctx *cmdContext) (*Writer, uint32) {
	t := ctx.t
	h := ctx.params.U32()
	if ctx.params.Err() != nil {
		return nil, RCBadParameter
	}
	if h == KHSRK {
		return nil, RCBadKeyHandle // the SRK never leaves its slot
	}
	key, ok := t.keys[h]
	if !ok {
		return nil, RCBadKeyHandle
	}
	if len(t.liveContexts) >= maxLiveContexts {
		return nil, RCResources
	}
	t.contextCounter++
	id := t.contextCounter
	interior := NewWriter()
	interior.U64(id)
	privateKeyB32(interior, key.priv)
	interior.U16(key.usage)
	interior.U16(key.scheme)
	interior.Raw(key.usageAuth[:])
	interior.U32(key.parent)
	env, err := envSeal(t.rng, t.contextKey(), interior.Bytes())
	if err != nil {
		return nil, RCFail
	}
	if t.liveContexts == nil {
		t.liveContexts = make(map[uint64]bool)
	}
	t.liveContexts[id] = true
	delete(t.keys, h)
	w := NewWriter()
	w.B32(env)
	return w, RCSuccess
}

// cmdLoadContext restores a previously saved context into a fresh key slot,
// consuming its liveness entry (one load per save).
//
// Wire: contextBlob(B32) → keyHandle(u32).
func cmdLoadContext(ctx *cmdContext) (*Writer, uint32) {
	t := ctx.t
	blob := ctx.params.B32()
	if ctx.params.Err() != nil {
		return nil, RCBadParameter
	}
	interior, err := envOpen(t.contextKey(), blob)
	if err != nil {
		return nil, RCBadParameter // foreign or tampered context
	}
	r := NewReader(interior)
	id := r.U64()
	privBytes := r.B32()
	usage := r.U16()
	scheme := r.U16()
	var usageAuth [AuthSize]byte
	copy(usageAuth[:], r.Raw(AuthSize))
	parent := r.U32()
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, RCBadParameter
	}
	if !t.liveContexts[id] {
		return nil, RCBadParameter // already loaded or never saved here
	}
	priv, err := unmarshalPrivateKey(privBytes)
	if err != nil {
		return nil, RCBadParameter
	}
	if len(t.keys) >= maxKeySlots {
		return nil, RCResources
	}
	delete(t.liveContexts, id)
	h := t.allocHandle()
	t.keys[h] = &loadedKey{
		priv:      priv,
		usage:     usage,
		scheme:    scheme,
		usageAuth: usageAuth,
		parent:    parent,
	}
	w := NewWriter()
	w.U32(h)
	return w, RCSuccess
}

// SaveContext evicts a loaded key into a context blob, freeing its slot.
func (c *Client) SaveContext(handle uint32) ([]byte, error) {
	w := NewWriter()
	w.U32(handle)
	r, err := c.run(OrdSaveContext, w.Bytes())
	if err != nil {
		return nil, err
	}
	blob := r.B32()
	return blob, r.Err()
}

// LoadContext restores a saved context, returning the new key handle.
func (c *Client) LoadContext(blob []byte) (uint32, error) {
	w := NewWriter()
	w.B32(blob)
	r, err := c.run(OrdLoadContext, w.Bytes())
	if err != nil {
		return 0, err
	}
	h := r.U32()
	return h, r.Err()
}
