package tpm

import (
	"crypto/rsa"
)

// Key hierarchy ordinals: ownership, key creation, loading and export of
// public parts.

func init() {
	register(OrdTakeOwnership, cmdTakeOwnership)
	register(OrdOwnerClear, cmdOwnerClear)
	register(OrdCreateWrapKey, cmdCreateWrapKey)
	register(OrdLoadKey2, cmdLoadKey2)
	register(OrdGetPubKey, cmdGetPubKey)
}

// protocolIDOwner is the TPM_PID_OWNER protocol selector in TakeOwnership.
const protocolIDOwner uint16 = 0x0005

// KeyParams describes a key to be generated.
type KeyParams struct {
	Usage  uint16
	Scheme uint16
	Bits   uint32
	Flags  uint32 // e.g. FlagMigratable
}

// Marshal appends the wire form.
func (p KeyParams) Marshal(w *Writer) {
	w.U16(p.Usage)
	w.U16(p.Scheme)
	w.U32(p.Bits)
	w.U32(p.Flags)
}

func parseKeyParams(r *Reader) (KeyParams, bool) {
	p := KeyParams{Usage: r.U16(), Scheme: r.U16(), Bits: r.U32(), Flags: r.U32()}
	return p, r.Err() == nil
}

// adipDecrypt recovers an ADIP-protected new-entity secret: the caller sent
// encAuth = newAuth XOR SHA1(sharedSecret ∥ lastNonceEven).
func adipDecrypt(sharedSecret []byte, lastEven [NonceSize]byte, encAuth []byte) [AuthSize]byte {
	pad := sha1Sum(sharedSecret, lastEven[:])
	var out [AuthSize]byte
	for i := 0; i < AuthSize && i < len(encAuth); i++ {
		out[i] = encAuth[i] ^ pad[i]
	}
	return out
}

// adipDecryptOdd recovers the second ADIP secret of a command, padded with
// the caller's odd nonce instead of the even one.
func adipDecryptOdd(sharedSecret []byte, nonceOdd [NonceSize]byte, encAuth []byte) [AuthSize]byte {
	pad := sha1Sum(sharedSecret, nonceOdd[:])
	var out [AuthSize]byte
	for i := 0; i < AuthSize && i < len(encAuth); i++ {
		out[i] = encAuth[i] ^ pad[i]
	}
	return out
}

// keyBits is the modulus size a key-creating ordinal generates for params:
// the engine's own size when params leave it 0. A size off the supported
// list is refused with TPM_BAD_KEY_PROPERTY before any key is drawn, so a
// guest cannot make the host generate keys of a size it picks.
func keyBits(t *TPM, params KeyParams) (int, uint32) {
	if params.Bits == 0 {
		return t.rsaBits, RCSuccess
	}
	if bits := int(params.Bits); supportedKeySize(bits) {
		return bits, RCSuccess
	}
	return 0, RCBadKeyProperty
}

// cmdTakeOwnership installs an owner and creates the SRK. The new owner and
// SRK secrets arrive OAEP-encrypted under the EK, so only a party that chose
// this physical TPM can own it; the auth1 session proves knowledge of the
// owner secret being installed.
func cmdTakeOwnership(ctx *cmdContext) (*Writer, uint32) {
	t := ctx.t
	if t.owned {
		return nil, RCOwnerSet
	}
	if rc := ctx.requireAuth(1); rc != RCSuccess {
		return nil, rc
	}
	pid := ctx.params.U16()
	encOwnerAuth := ctx.params.B32()
	encSrkAuth := ctx.params.B32()
	srkParams, ok := parseKeyParams(ctx.params)
	if ctx.params.Err() != nil || !ok || pid != protocolIDOwner {
		return nil, RCBadParameter
	}
	ownerAuthBytes, err := oaepDecrypt(t.ek, encOwnerAuth)
	if err != nil || len(ownerAuthBytes) != AuthSize {
		return nil, RCBadParameter
	}
	srkAuthBytes, err := oaepDecrypt(t.ek, encSrkAuth)
	if err != nil || len(srkAuthBytes) != AuthSize {
		return nil, RCBadParameter
	}
	if rc := ctx.verifyAuth(0, ownerAuthBytes); rc != RCSuccess {
		return nil, rc
	}
	if srkParams.Usage != KeyUsageStorage {
		return nil, RCBadParameter
	}
	bits, rc := keyBits(t, srkParams)
	if rc != RCSuccess {
		return nil, rc
	}
	srkKey, err := newKey(t.keyPool, t.keyRng, bits)
	if err != nil {
		return nil, RCFail
	}
	t.owned = true
	copy(t.ownerAuth[:], ownerAuthBytes)
	t.srk = &loadedKey{priv: srkKey, usage: KeyUsageStorage, scheme: ESRSAESOAEP}
	copy(t.srk.usageAuth[:], srkAuthBytes)
	t.tpmProof = t.randNonce()
	w := NewWriter()
	w.B32(marshalPublicKey(&srkKey.PublicKey))
	return w, RCSuccess
}

// cmdOwnerClear removes ownership under owner authorization.
func cmdOwnerClear(ctx *cmdContext) (*Writer, uint32) {
	t := ctx.t
	if !t.owned {
		return nil, RCNoSRK
	}
	if rc := ctx.requireAuth(1); rc != RCSuccess {
		return nil, rc
	}
	if rc := ctx.verifyAuth(0, t.ownerAuth[:]); rc != RCSuccess {
		return nil, rc
	}
	t.owned = false
	t.ownerAuth = [AuthSize]byte{}
	t.srk = nil
	t.tpmProof = [AuthSize]byte{}
	t.keys = make(map[uint32]*loadedKey)
	t.nv = make(map[uint32]*nvArea)
	return nil, RCSuccess
}

// keyBlob wire form: KeyParams ∥ pub(B32) ∥ encPriv(B32). The private part is
// wrapPrivate(parent, marshalPrivateKey ∥ usageAuth ∥ tpmProof).
func marshalKeyBlob(params KeyParams, pub *rsa.PublicKey, encPriv []byte) []byte {
	w := NewWriter()
	params.Marshal(w)
	w.B32(marshalPublicKey(pub))
	w.B32(encPriv)
	return w.Bytes()
}

// ParseKeyBlobPublic splits a wrapped key blob into its public parts: the
// key parameters, the marshaled public key, and the (still encrypted)
// private section. Exported for migration tooling that reassembles blobs.
func ParseKeyBlobPublic(b []byte) (params KeyParams, pub []byte, encPriv []byte, ok bool) {
	return parseKeyBlob(b)
}

func parseKeyBlob(b []byte) (params KeyParams, pub []byte, encPriv []byte, ok bool) {
	r := NewReader(b)
	params, pok := parseKeyParams(r)
	pub = r.B32()
	encPriv = r.B32()
	return params, pub, encPriv, pok && r.Err() == nil && r.Remaining() == 0
}

// cmdCreateWrapKey generates a child key under a loaded storage key. It
// requires an OSAP session on the parent, and the child's usage auth arrives
// ADIP-encrypted so the backend never sees it in the clear.
func cmdCreateWrapKey(ctx *cmdContext) (*Writer, uint32) {
	t := ctx.t
	if rc := ctx.requireAuth(1); rc != RCSuccess {
		return nil, rc
	}
	parentHandle := ctx.params.U32()
	encUsageAuth := ctx.params.Raw(AuthSize)
	encMigAuth := ctx.params.Raw(AuthSize)
	keyInfo, ok := parseKeyParams(ctx.params)
	if ctx.params.Err() != nil || !ok {
		return nil, RCBadParameter
	}
	parent, okp := t.keyByHandle(parentHandle)
	if !okp {
		return nil, RCBadKeyHandle
	}
	if parent.usage != KeyUsageStorage {
		return nil, RCBadParameter
	}
	entityValue := parentHandle
	entityType := ETKeyHandle
	if parentHandle == KHSRK {
		entityType = ETSRK
	}
	sess := ctx.osapSession(0, entityType, entityValue)
	if sess == nil {
		return nil, RCAuthConflict
	}
	if rc := ctx.verifyAuth(0, parent.usageAuth[:]); rc != RCSuccess {
		return nil, rc
	}
	usageAuth := adipDecrypt(sess.sharedSecret, ctx.auths[0].lastEven, encUsageAuth)
	// The migration secret rides under a second ADIP pad keyed on the odd
	// nonce, per the spec's two-secret transport.
	migAuth := adipDecryptOdd(sess.sharedSecret, ctx.auths[0].nonceOdd, encMigAuth)
	bits, rc := keyBits(t, keyInfo)
	if rc != RCSuccess {
		return nil, rc
	}
	child, err := newKey(t.keyPool, t.keyRng, bits)
	if err != nil {
		return nil, RCFail
	}
	pb := privBlob{
		privKey:    marshalPrivateKey(child),
		usageAuth:  usageAuth,
		migratable: keyInfo.Flags&FlagMigratable != 0,
	}
	if pb.migratable {
		pb.migAuth = migAuth
	} else {
		pb.proof = t.tpmProof
	}
	encPriv, err := wrapPrivate(t.rng, &parent.priv.PublicKey, buildPrivBlob(pb))
	if err != nil {
		return nil, RCFail
	}
	w := NewWriter()
	w.B32(marshalKeyBlob(keyInfo, &child.PublicKey, encPriv))
	return w, RCSuccess
}

// cmdLoadKey2 loads a wrapped key under its parent, verifying the embedded
// tpmProof so blobs wrapped by a different TPM are rejected.
func cmdLoadKey2(ctx *cmdContext) (*Writer, uint32) {
	t := ctx.t
	if rc := ctx.requireAuth(1); rc != RCSuccess {
		return nil, rc
	}
	parentHandle := ctx.params.U32()
	blob := ctx.params.B32()
	if ctx.params.Err() != nil {
		return nil, RCBadParameter
	}
	parent, ok := t.keyByHandle(parentHandle)
	if !ok {
		return nil, RCBadKeyHandle
	}
	if rc := ctx.verifyAuth(0, parent.usageAuth[:]); rc != RCSuccess {
		return nil, rc
	}
	params, _, encPriv, ok := parseKeyBlob(blob)
	if !ok {
		return nil, RCBadParameter
	}
	privBlobBytes, err := unwrapPrivate(parent.priv, encPriv)
	if err != nil {
		return nil, RCBadParameter
	}
	pb, okb := parsePrivBlob(privBlobBytes)
	if !okb {
		return nil, RCBadParameter
	}
	// Non-migratable keys are bound to this TPM by its proof; migratable
	// keys deliberately are not (portability is their purpose), and their
	// flags in the blob interior and exterior must agree so an attacker
	// cannot flip the public flag.
	if pb.migratable != (params.Flags&FlagMigratable != 0) {
		return nil, RCBadParameter
	}
	if !pb.migratable && pb.proof != t.tpmProof {
		return nil, RCFail // blob was wrapped by a different TPM
	}
	priv, err := unmarshalPrivateKey(pb.privKey)
	if err != nil {
		return nil, RCBadParameter
	}
	if len(t.keys) >= maxKeySlots {
		return nil, RCResources
	}
	h := t.allocHandle()
	t.keys[h] = &loadedKey{
		priv:      priv,
		usage:     params.Usage,
		scheme:    params.Scheme,
		usageAuth: pb.usageAuth,
		parent:    parentHandle,
	}
	w := NewWriter()
	w.U32(h)
	return w, RCSuccess
}

// cmdGetPubKey returns the public part of a loaded key under its usage auth.
func cmdGetPubKey(ctx *cmdContext) (*Writer, uint32) {
	t := ctx.t
	if rc := ctx.requireAuth(1); rc != RCSuccess {
		return nil, rc
	}
	h := ctx.params.U32()
	if ctx.params.Err() != nil {
		return nil, RCBadParameter
	}
	k, ok := t.keyByHandle(h)
	if !ok {
		return nil, RCBadKeyHandle
	}
	if rc := ctx.verifyAuth(0, k.usageAuth[:]); rc != RCSuccess {
		return nil, rc
	}
	w := NewWriter()
	w.B32(marshalPublicKey(&k.priv.PublicKey))
	return w, RCSuccess
}
