package tpm

import (
	"crypto"
	"crypto/rsa"
)

// Signing and attestation ordinals: Sign, Quote, MakeIdentity,
// ActivateIdentity.

// submitSign enqueues one RSASSA-SHA1 job on the attached signing pool with
// a freshly forked per-job entropy stream. Caller holds t.mu and has
// checked t.signer != nil.
func (t *TPM) submitSign(key *rsa.PrivateKey, digest []byte) *SignTicket {
	return t.signer.Submit(SignRequest{
		Key:    key,
		Hash:   crypto.SHA1,
		Digest: digest,
		Rng:    t.forkSignRng(),
	})
}

func init() {
	register(OrdSign, cmdSign)
	register(OrdQuote, cmdQuote)
	register(OrdMakeIdentity, cmdMakeIdentity)
	register(OrdActivateIdentity, cmdActivateIdentity)
	register(OrdCertifyKey, cmdCertifyKey)
}

// certifyFixed is the fixed field of this engine's certify structure.
var certifyFixed = []byte("CERT")

// CertifyInfoDigest computes the digest a key certification signs:
// SHA1(version ∥ "CERT" ∥ usage ∥ scheme ∥ SHA1(pubkey) ∥ antiReplay).
// Exported so verifiers can recompute it from the certified public key.
func CertifyInfoDigest(usage, scheme uint16, pubKeyBytes []byte, antiReplay [NonceSize]byte) []byte {
	w := NewWriter()
	w.Raw(quoteVersion)
	w.Raw(certifyFixed)
	w.U16(usage)
	w.U16(scheme)
	w.Raw(sha1Sum(pubKeyBytes))
	w.Raw(antiReplay[:])
	return sha1Sum(w.Bytes())
}

// cmdCertifyKey signs, with a loaded certifying key, an attestation that
// another loaded key (its public part and attributes) lives in this TPM.
// Requires auth on both keys (auth1 = certifying key, auth2 = target key).
//
// Wire: certHandle(u32) ∥ keyHandle(u32) ∥ antiReplay(20) →
// certifyInfo(B32) ∥ sig(B32).
func cmdCertifyKey(ctx *cmdContext) (*Writer, uint32) {
	t := ctx.t
	if rc := ctx.requireAuth(2); rc != RCSuccess {
		return nil, rc
	}
	certHandle := ctx.params.U32()
	keyHandle := ctx.params.U32()
	var antiReplay [NonceSize]byte
	copy(antiReplay[:], ctx.params.Raw(NonceSize))
	if ctx.params.Err() != nil {
		return nil, RCBadParameter
	}
	certKey, ok := t.keyByHandle(certHandle)
	if !ok {
		return nil, RCBadKeyHandle
	}
	if certKey.usage != KeyUsageSigning && certKey.usage != KeyUsageIdentity {
		return nil, RCBadParameter
	}
	target, ok := t.keyByHandle(keyHandle)
	if !ok {
		return nil, RCBadKeyHandle
	}
	if rc := ctx.verifyAuth(0, certKey.usageAuth[:]); rc != RCSuccess {
		return nil, rc
	}
	if rc := ctx.verifyAuth(1, target.usageAuth[:]); rc != RCSuccess {
		return nil, rc
	}
	pubBytes := marshalPublicKey(&target.priv.PublicKey)
	info := NewWriter()
	info.U16(target.usage)
	info.U16(target.scheme)
	info.B32(pubBytes)
	digest := CertifyInfoDigest(target.usage, target.scheme, pubBytes, antiReplay)
	w := NewWriter()
	w.B32(info.Bytes())
	if t.signer != nil {
		ctx.deferred = t.submitSign(certKey.priv, digest)
		return w, RCSuccess // trailing sig field appended by Pending
	}
	sig, err := signSHA1(t.keyRng, certKey.priv, digest)
	if err != nil {
		return nil, RCFail
	}
	w.B32(sig)
	return w, RCSuccess
}

// quoteFixed is the TPM_QUOTE_INFO fixed field.
var quoteFixed = []byte("QUOT")

// quoteVersion is the TPM_STRUCT_VER in quotes.
var quoteVersion = []byte{1, 1, 0, 0}

// QuoteInfoDigest computes the digest a TPM 1.2 quote signs:
// SHA1(version ∥ "QUOT" ∥ compositeHash ∥ externalData). Exported so remote
// verifiers can recompute it.
func QuoteInfoDigest(composite [DigestSize]byte, externalData [NonceSize]byte) []byte {
	return sha1Sum(quoteVersion, quoteFixed, composite[:], externalData[:])
}

// cmdSign signs a 20-byte digest with a loaded signing key.
//
// Wire: keyHandle(u32) ∥ areaToSign(B32) → sig(B32).
func cmdSign(ctx *cmdContext) (*Writer, uint32) {
	t := ctx.t
	if rc := ctx.requireAuth(1); rc != RCSuccess {
		return nil, rc
	}
	keyHandle := ctx.params.U32()
	area := ctx.params.B32()
	if ctx.params.Err() != nil {
		return nil, RCBadParameter
	}
	key, ok := t.keyByHandle(keyHandle)
	if !ok {
		return nil, RCBadKeyHandle
	}
	if key.usage != KeyUsageSigning && key.usage != KeyUsageLegacy {
		return nil, RCBadParameter
	}
	if key.scheme != SSRSASSAPKCS1v15SHA1 || len(area) != DigestSize {
		return nil, RCBadParameter
	}
	if rc := ctx.verifyAuth(0, key.usageAuth[:]); rc != RCSuccess {
		return nil, rc
	}
	if t.signer != nil {
		// Snapshot the digest: area views the command buffer, which the
		// caller may reuse once ExecuteDeferred returns.
		ctx.deferred = t.submitSign(key.priv, append([]byte(nil), area...))
		return nil, RCSuccess // response is exactly the deferred B32 sig
	}
	sig, err := signSHA1(t.keyRng, key.priv, area)
	if err != nil {
		return nil, RCFail
	}
	w := NewWriter()
	w.B32(sig)
	return w, RCSuccess
}

// cmdQuote signs the current values of the selected PCRs together with
// verifier-chosen external data (the anti-replay nonce).
//
// Wire: keyHandle(u32) ∥ externalData(20) ∥ pcrSelection →
// composite(B32: selection ∥ u32 len ∥ values) ∥ sig(B32).
func cmdQuote(ctx *cmdContext) (*Writer, uint32) {
	t := ctx.t
	if rc := ctx.requireAuth(1); rc != RCSuccess {
		return nil, rc
	}
	keyHandle := ctx.params.U32()
	var external [NonceSize]byte
	copy(external[:], ctx.params.Raw(NonceSize))
	sel, ok := parsePCRSelection(ctx.params)
	if ctx.params.Err() != nil || !ok || sel.Empty() {
		return nil, RCBadParameter
	}
	key, okk := t.keyByHandle(keyHandle)
	if !okk {
		return nil, RCBadKeyHandle
	}
	if key.usage != KeyUsageSigning && key.usage != KeyUsageIdentity && key.usage != KeyUsageLegacy {
		return nil, RCBadParameter
	}
	if rc := ctx.verifyAuth(0, key.usageAuth[:]); rc != RCSuccess {
		return nil, rc
	}
	var vals [][DigestSize]byte
	for _, i := range sel.Indices() {
		vals = append(vals, t.pcrs[i])
	}
	composite := CompositeHash(sel, vals)
	compBlob := NewWriter()
	sel.Marshal(compBlob)
	compBlob.U32(uint32(len(vals) * DigestSize))
	for _, v := range vals {
		compBlob.Raw(v[:])
	}
	w := NewWriter()
	w.B32(compBlob.Bytes())
	if t.signer != nil {
		ctx.deferred = t.submitSign(key.priv, QuoteInfoDigest(composite, external))
		return w, RCSuccess // trailing sig field appended by Pending
	}
	sig, err := signSHA1(t.keyRng, key.priv, QuoteInfoDigest(composite, external))
	if err != nil {
		return nil, RCFail
	}
	w.B32(sig)
	return w, RCSuccess
}

// ParseQuoteComposite parses the composite blob a Quote response carries,
// returning the selection and PCR values. Exported for verifiers.
func ParseQuoteComposite(b []byte) (PCRSelection, [][DigestSize]byte, error) {
	r := NewReader(b)
	sel, ok := parsePCRSelection(r)
	if !ok {
		return PCRSelection{}, nil, ErrShortBuffer
	}
	n := r.U32()
	// n is a byte count read off the input: bound it by what remains
	// before it sizes an allocation.
	if r.Err() != nil || n%DigestSize != 0 || uint64(n) > uint64(r.Remaining()) {
		return PCRSelection{}, nil, ErrShortBuffer
	}
	vals := make([][DigestSize]byte, 0, n/DigestSize)
	for i := uint32(0); i < n/DigestSize; i++ {
		vals = append(vals, r.Digest())
	}
	if err := r.Err(); err != nil {
		return PCRSelection{}, nil, err
	}
	return sel, vals, nil
}

// cmdMakeIdentity creates an attestation identity key (AIK) under the SRK.
// Requires an OSAP session on the owner; the AIK usage auth arrives
// ADIP-encrypted. The privacy-CA label digest is folded into the response
// for the enrollment protocol but no CA structure is emulated inside the
// TPM, matching how the Xen vTPM tools drove this ordinal.
//
// Wire: encUsageAuth(20) ∥ labelDigest(20) → keyBlob(B32) ∥ pub(B32).
func cmdMakeIdentity(ctx *cmdContext) (*Writer, uint32) {
	t := ctx.t
	if rc := ctx.requireAuth(1); rc != RCSuccess {
		return nil, rc
	}
	encUsageAuth := ctx.params.Raw(AuthSize)
	_ = ctx.params.Raw(DigestSize) // label digest: carried by the enrollment protocol
	if ctx.params.Err() != nil {
		return nil, RCBadParameter
	}
	if !t.owned || t.srk == nil {
		return nil, RCNoSRK
	}
	sess := ctx.osapSession(0, ETOwner, 0)
	if sess == nil {
		return nil, RCAuthConflict
	}
	if rc := ctx.verifyAuth(0, t.ownerAuth[:]); rc != RCSuccess {
		return nil, rc
	}
	usageAuth := adipDecrypt(sess.sharedSecret, ctx.auths[0].lastEven, encUsageAuth)
	aik, err := newKey(t.keyPool, t.keyRng, t.rsaBits)
	if err != nil {
		return nil, RCFail
	}
	params := KeyParams{Usage: KeyUsageIdentity, Scheme: SSRSASSAPKCS1v15SHA1, Bits: uint32(t.rsaBits)}
	pb := privBlob{privKey: marshalPrivateKey(aik), usageAuth: usageAuth, proof: t.tpmProof}
	encPriv, err := wrapPrivate(t.rng, &t.srk.priv.PublicKey, buildPrivBlob(pb))
	if err != nil {
		return nil, RCFail
	}
	w := NewWriter()
	w.B32(marshalKeyBlob(params, &aik.PublicKey, encPriv))
	w.B32(marshalPublicKey(&aik.PublicKey))
	return w, RCSuccess
}

// cmdActivateIdentity decrypts a privacy-CA credential blob that was
// OAEP-encrypted to this TPM's EK, releasing it only under owner auth —
// the step that proves the AIK lives in the TPM the EK names.
//
// Wire: idKeyHandle(u32) ∥ encBlob(B32) → credential(B32).
func cmdActivateIdentity(ctx *cmdContext) (*Writer, uint32) {
	t := ctx.t
	if rc := ctx.requireAuth(1); rc != RCSuccess {
		return nil, rc
	}
	idHandle := ctx.params.U32()
	encBlob := ctx.params.B32()
	if ctx.params.Err() != nil {
		return nil, RCBadParameter
	}
	if !t.owned {
		return nil, RCNoSRK
	}
	if _, ok := t.keyByHandle(idHandle); !ok {
		return nil, RCBadKeyHandle
	}
	if rc := ctx.verifyAuth(0, t.ownerAuth[:]); rc != RCSuccess {
		return nil, rc
	}
	cred, err := oaepDecrypt(t.ek, encBlob)
	if err != nil {
		return nil, RCBadParameter
	}
	w := NewWriter()
	w.B32(cred)
	return w, RCSuccess
}
