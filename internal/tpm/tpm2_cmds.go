package tpm

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
)

// TPM 2.0 command handlers. Each registers itself in dispatch2 with its
// handle-area size and whether the first handle requires authorization;
// Execute has already parsed the header, handle area and authorization area
// (and verified the session) by the time a handler runs.

func init() {
	register2(TPM2CCStartup, 0, false, cmd2Startup)
	register2(TPM2CCShutdown, 0, false, cmd2Shutdown)
	register2(TPM2CCSelfTest, 0, false, cmd2SelfTest)
	register2(TPM2CCGetTestResult, 0, false, cmd2GetTestResult)
	register2(TPM2CCGetRandom, 0, false, cmd2GetRandom)
	register2(TPM2CCStirRandom, 0, false, cmd2StirRandom)
	register2(TPM2CCPCRExtend, 1, true, cmd2PCRExtend)
	register2(TPM2CCPCRRead, 0, false, cmd2PCRRead)
	register2(TPM2CCPCRReset, 1, true, cmd2PCRReset)
	register2(TPM2CCGetCapability, 0, false, cmd2GetCapability)
	register2(TPM2CCStartAuthSession, 2, false, cmd2StartAuthSession)
	register2(TPM2CCFlushContext, 1, false, cmd2FlushContext)
	register2(TPM2CCReadPublic, 1, false, cmd2ReadPublic)
	register2(TPM2CCQuote, 1, true, cmd2Quote)
}

// cmd2Startup brings the TPM to the operational state. Only TPM2_SU_CLEAR
// semantics are implemented: the vTPM manager always cold-starts freshly
// created or restored instances.
func cmd2Startup(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	su := ctx.params.U16()
	if ctx.params.Err() != nil {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 1)
	}
	if su != TPM2SUClear && su != TPM2SUState {
		return nil, 0, false, TPM2RCP(TPM2RCValue, 1)
	}
	if ctx.t.started {
		return nil, 0, false, TPM2RCInitialize
	}
	ctx.t.started = true
	return nil, 0, false, TPM2RCSuccess
}

// cmd2Shutdown prepares for power-down. State is preserved by the manager's
// checkpoint pipeline, not by the shutdown type, so both types accept.
func cmd2Shutdown(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	su := ctx.params.U16()
	if ctx.params.Err() != nil {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 1)
	}
	if su != TPM2SUClear && su != TPM2SUState {
		return nil, 0, false, TPM2RCP(TPM2RCValue, 1)
	}
	return nil, 0, false, TPM2RCSuccess
}

// cmd2SelfTest always passes: the software engine has no analog circuitry to
// exercise, matching the 1.2 engine's stance.
func cmd2SelfTest(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	ctx.params.U8() // fullTest: accepted and ignored
	if ctx.params.Err() != nil {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 1)
	}
	ctx.t.testResult = TPM2RCSuccess
	return nil, 0, false, TPM2RCSuccess
}

func cmd2GetTestResult(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	out := ctx.respWriter()
	out.B16(nil) // outData: no manufacturer-specific test payload
	out.U32(ctx.t.testResult)
	return out, 0, false, TPM2RCSuccess
}

// maxRandom2 caps one GetRandom response at the digest size of the largest
// bank, as 2.0 hardware does.
const maxRandom2 = SHA256Size

func cmd2GetRandom(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	n := int(ctx.params.U16())
	if ctx.params.Err() != nil {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 1)
	}
	if n > maxRandom2 {
		n = maxRandom2
	}
	out := ctx.respWriter()
	out.B16(ctx.t.randBytes2(n))
	return out, 0, false, TPM2RCSuccess
}

func cmd2StirRandom(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	inData := ctx.params.B16()
	if ctx.params.Err() != nil {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 1)
	}
	ctx.t.rng.Reseed(inData)
	return nil, 0, false, TPM2RCSuccess
}

// cmd2PCRExtend folds a TPML_DIGEST_VALUES into the addressed register: one
// digest per bank, each extended into its own bank with its own algorithm —
// the defining 2.0 departure from 1.2's single SHA-1 bank.
func cmd2PCRExtend(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	idx := ctx.handles[0] - TPM2HTPCRBase
	if idx >= NumPCRs {
		return nil, 0, false, TPM2RCH(TPM2RCHandle, 1)
	}
	t := ctx.t
	count := ctx.params.U32()
	if ctx.params.Err() != nil || count == 0 || count > uint32(len(tpm2Banks)) {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 1)
	}
	for i := uint32(0); i < count; i++ {
		alg := ctx.params.U16()
		dsize := tpm2DigestSize(alg)
		if dsize == 0 {
			return nil, 0, false, TPM2RCP(TPM2RCHash, int(i)+1)
		}
		digest := ctx.params.RawView(dsize)
		if ctx.params.Err() != nil {
			return nil, 0, false, TPM2RCP(TPM2RCSize, int(i)+1)
		}
		switch alg {
		case TPM2AlgSHA1:
			copy(t.sha1Bank[idx][:], sha1Sum(t.sha1Bank[idx][:], digest))
		case TPM2AlgSHA256:
			h := sha256.New()
			h.Write(t.sha256Bank[idx][:])
			h.Write(digest)
			h.Sum(t.sha256Bank[idx][:0])
		}
	}
	if ctx.params.Remaining() != 0 {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 1)
	}
	t.pcrUpdateCounter++
	return nil, 0, false, TPM2RCSuccess
}

// cmd2PCRReset clears the addressed register in every bank. Real TPMs
// restrict resets to the debug/application locality PCRs (16 and 23); the
// engine enforces the same set so the measurement registers stay append-only.
func cmd2PCRReset(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	idx := ctx.handles[0] - TPM2HTPCRBase
	if idx >= NumPCRs {
		return nil, 0, false, TPM2RCH(TPM2RCHandle, 1)
	}
	if idx != 16 && idx != 23 {
		return nil, 0, false, TPM2RCH(TPM2RCValue, 1)
	}
	t := ctx.t
	t.sha1Bank[idx] = [DigestSize]byte{}
	t.sha256Bank[idx] = [SHA256Size]byte{}
	t.pcrUpdateCounter++
	return nil, 0, false, TPM2RCSuccess
}

// maxPCRReadReturn caps how many registers one PCR_Read returns, as hardware
// caps by response-buffer size; callers iterate.
const maxPCRReadReturn = 8

// cmd2PCRRead returns the selected registers. Request and response carry a
// TPML_PCR_SELECTION (count, then per-bank: hashAlg, sizeofSelect, bitmap);
// the response echoes the selection actually read plus a TPML_DIGEST.
func cmd2PCRRead(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	t := ctx.t
	count := ctx.params.U32()
	if ctx.params.Err() != nil || count > uint32(len(tpm2Banks)) {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 1)
	}
	type sel struct {
		alg    uint16
		bitmap []byte
	}
	var sels [2]sel
	for i := uint32(0); i < count; i++ {
		alg := ctx.params.U16()
		n := int(ctx.params.U8())
		bitmap := ctx.params.RawView(n)
		if ctx.params.Err() != nil || n > NumPCRs/8 {
			return nil, 0, false, TPM2RCP(TPM2RCSize, int(i)+1)
		}
		if tpm2DigestSize(alg) == 0 {
			return nil, 0, false, TPM2RCP(TPM2RCHash, int(i)+1)
		}
		sels[i] = sel{alg: alg, bitmap: bitmap}
	}
	if ctx.params.Remaining() != 0 {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 1)
	}

	// Collect up to maxPCRReadReturn digests in selection order, building
	// the echoed selection bitmaps alongside.
	var outSel [2][3]byte
	var digests [][]byte
	read := 0
scan:
	for i := uint32(0); i < count; i++ {
		for bit := 0; bit < NumPCRs; bit++ {
			if bit/8 >= len(sels[i].bitmap) || sels[i].bitmap[bit/8]&(1<<(bit%8)) == 0 {
				continue
			}
			if read >= maxPCRReadReturn {
				break scan
			}
			switch sels[i].alg {
			case TPM2AlgSHA1:
				digests = append(digests, t.sha1Bank[bit][:])
			case TPM2AlgSHA256:
				digests = append(digests, t.sha256Bank[bit][:])
			}
			outSel[i][bit/8] |= 1 << (bit % 8)
			read++
		}
	}

	out := ctx.respWriter()
	out.U32(t.pcrUpdateCounter)
	out.U32(count)
	for i := uint32(0); i < count; i++ {
		out.U16(sels[i].alg)
		out.U8(3)
		out.Raw(outSel[i][:])
	}
	out.U32(uint32(len(digests)))
	for _, d := range digests {
		out.B16(d)
	}
	return out, 0, false, TPM2RCSuccess
}

// cmd2GetCapability reports algorithms, commands, PCR banks and fixed
// properties — what a 2.0 guest probes before first use.
func cmd2GetCapability(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	capArea := ctx.params.U32()
	property := ctx.params.U32()
	propertyCount := ctx.params.U32()
	if ctx.params.Err() != nil || ctx.params.Remaining() != 0 {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 1)
	}
	if propertyCount == 0 || propertyCount > 64 {
		return nil, 0, false, TPM2RCP(TPM2RCValue, 3)
	}
	out := ctx.respWriter()
	out.U8(0) // moreData: everything fits in one response
	out.U32(capArea)
	switch capArea {
	case TPM2CapAlgs:
		algs := []uint16{TPM2AlgRSA, TPM2AlgSHA1, TPM2AlgHMAC, TPM2AlgSHA256, TPM2AlgRSASSA}
		var listed []uint16
		for _, a := range algs {
			if uint32(a) >= property && uint32(len(listed)) < propertyCount {
				listed = append(listed, a)
			}
		}
		out.U32(uint32(len(listed)))
		for _, a := range listed {
			out.U16(a)
			out.U32(0) // TPMA_ALGORITHM attributes: unreported
		}
	case TPM2CapCommands:
		var listed []uint32
		for cc := property; cc <= TPM2CCPCRExtend && uint32(len(listed)) < propertyCount; cc++ {
			if _, ok := dispatch2[cc]; ok {
				listed = append(listed, cc)
			}
		}
		out.U32(uint32(len(listed)))
		for _, cc := range listed {
			out.U32(cc) // TPMA_CC: attribute bits unreported, code only
		}
	case TPM2CapPCRs:
		out.U32(uint32(len(tpm2Banks)))
		for _, alg := range tpm2Banks {
			out.U16(alg)
			out.U8(3)
			out.Raw([]byte{0xFF, 0xFF, 0xFF}) // all 24 registers allocated
		}
	case TPM2CapTPMProperties:
		type prop struct{ tag, val uint32 }
		all := []prop{
			{TPM2PTFamilyIndicator, 0x322E3000}, // "2.0"
			{TPM2PTManufacturer, manufacturerValue()},
			{TPM2PTPCRCount, NumPCRs},
			{TPM2PTTotalCommands, uint32(len(dispatch2))},
		}
		var listed []prop
		for _, p := range all {
			if p.tag >= property && uint32(len(listed)) < propertyCount {
				listed = append(listed, p)
			}
		}
		out.U32(uint32(len(listed)))
		for _, p := range listed {
			out.U32(p.tag)
			out.U32(p.val)
		}
	default:
		return nil, 0, false, TPM2RCP(TPM2RCSelector, 1)
	}
	return out, 0, false, TPM2RCSuccess
}

// manufacturerValue packs the four-byte manufacturer string both engines
// share into the 2.0 property encoding.
func manufacturerValue() uint32 {
	var v uint32
	for i := 0; i < 4 && i < len(Manufacturer); i++ {
		v = v<<8 | uint32(Manufacturer[i])
	}
	return v
}

// cmd2StartAuthSession opens an HMAC session. Salted and bound forms are not
// implemented (the documented KDFa divergence): tpmKey and bind must be
// TPM2_RH_NULL, and only TPM2_SE_HMAC sessions are accepted.
func cmd2StartAuthSession(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	if ctx.handles[0] != TPM2RHNull {
		return nil, 0, false, TPM2RCH(TPM2RCHandle, 1)
	}
	if ctx.handles[1] != TPM2RHNull {
		return nil, 0, false, TPM2RCH(TPM2RCHandle, 2)
	}
	t := ctx.t
	nonceCaller := ctx.params.B16()
	encryptedSalt := ctx.params.B16()
	sessionType := ctx.params.U8()
	symmetric := ctx.params.U16()
	authHash := ctx.params.U16()
	if ctx.params.Err() != nil || ctx.params.Remaining() != 0 {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 1)
	}
	if len(nonceCaller) < 16 || len(nonceCaller) > SHA256Size {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 1)
	}
	if len(encryptedSalt) != 0 {
		return nil, 0, false, TPM2RCP(TPM2RCValue, 2)
	}
	if sessionType != TPM2SEHMAC {
		return nil, 0, false, TPM2RCP(TPM2RCValue, 3)
	}
	if symmetric != TPM2AlgNull {
		return nil, 0, false, TPM2RCP(TPM2RCValue, 4)
	}
	if tpm2DigestSize(authHash) == 0 {
		return nil, 0, false, TPM2RCP(TPM2RCHash, 5)
	}
	if len(t.sessions) >= maxSessions2 {
		return nil, 0, false, TPM2RCNoResult
	}
	handle := t.nextSession
	t.nextSession++
	sess := &session2{alg: authHash, nonceTPM: t.randBytes2(len(nonceCaller))}
	t.sessions[handle] = sess
	out := ctx.respWriter()
	out.B16(sess.nonceTPM)
	return out, handle, true, TPM2RCSuccess
}

// maxSessions2 caps live sessions, as hardware session memory does.
const maxSessions2 = 64

// cmd2FlushContext discards a session context. (Loaded-object contexts do
// not exist in this engine: the EK is permanently resident.)
func cmd2FlushContext(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	h := ctx.handles[0]
	if _, ok := ctx.t.sessions[h]; !ok {
		return nil, 0, false, TPM2RCH(TPM2RCHandle, 1)
	}
	delete(ctx.t.sessions, h)
	return nil, 0, false, TPM2RCSuccess
}

// cmd2ReadPublic returns the endorsement primary's public area: the one
// persistent object the engine exposes, addressed by its permanent handle.
func cmd2ReadPublic(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	if ctx.handles[0] != TPM2RHEndorsement {
		return nil, 0, false, TPM2RCH(TPM2RCHandle, 1)
	}
	t := ctx.t
	pub := marshalPublicKey(&t.ek.PublicKey)
	out := ctx.respWriter()
	out.B16(pub)
	name := objectName2(&t.ek.PublicKey)
	out.B16(name)
	out.B16(name) // qualifiedName: no hierarchy path beyond the primary
	return out, 0, false, TPM2RCSuccess
}

// objectName2 computes an object's 2.0 Name: nameAlg ∥ H(publicArea), with
// SHA-256 as the engine's name algorithm.
func objectName2(pub *rsa.PublicKey) []byte {
	h := sha256.Sum256(marshalPublicKey(pub))
	out := make([]byte, 2+len(h))
	out[0] = byte(TPM2AlgSHA256 >> 8)
	out[1] = byte(TPM2AlgSHA256)
	copy(out[2:], h[:])
	return out
}

// cmd2Quote signs a TPMS_ATTEST over the selected PCRs with the endorsement
// primary (the documented signing-key divergence). The pcrDigest inside the
// attestation is SHA-256 over the concatenated selected register values, in
// selection order — the construction VerifyQuote2 recomputes.
func cmd2Quote(ctx *cmd2Context) (*Writer, uint32, bool, uint32) {
	if ctx.handles[0] != TPM2RHEndorsement {
		return nil, 0, false, TPM2RCH(TPM2RCHandle, 1)
	}
	t := ctx.t
	qualifyingData := ctx.params.B16()
	inScheme := ctx.params.U16()
	if ctx.params.Err() != nil {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 1)
	}
	schemeHash := uint16(TPM2AlgSHA256)
	if inScheme != TPM2AlgNull {
		if inScheme != TPM2AlgRSASSA {
			return nil, 0, false, TPM2RCP(TPM2RCValue, 2)
		}
		schemeHash = ctx.params.U16()
		if schemeHash != TPM2AlgSHA256 {
			return nil, 0, false, TPM2RCP(TPM2RCHash, 2)
		}
	}
	selRaw, sels, rc := parsePCRSelection2(ctx.params)
	if rc != TPM2RCSuccess {
		return nil, 0, false, rc
	}
	if ctx.params.Remaining() != 0 {
		return nil, 0, false, TPM2RCP(TPM2RCSize, 3)
	}

	// pcrDigest = H(selected register values, selection order).
	t.hashes = t.hashes[:0]
	for _, s := range sels {
		for bit := 0; bit < NumPCRs; bit++ {
			if s.bitmap[bit/8]&(1<<(bit%8)) == 0 {
				continue
			}
			switch s.alg {
			case TPM2AlgSHA1:
				t.hashes = append(t.hashes, t.sha1Bank[bit][:]...)
			case TPM2AlgSHA256:
				t.hashes = append(t.hashes, t.sha256Bank[bit][:]...)
			}
		}
	}
	pcrDigest := sha256.Sum256(t.hashes)

	// TPMS_ATTEST. clockInfo.clock advances with the command counter — the
	// engine has no real-time clock, and the counter is monotonic across
	// save/restore, which is the property verifiers need.
	att := NewWriter()
	att.U32(TPM2GeneratedValue)
	att.U16(TPM2STAttestQuote)
	att.B16(objectName2(&t.ek.PublicKey))
	att.B16(qualifyingData)
	att.U64(t.commandCount) // clockInfo.clock
	att.U32(0)              // clockInfo.resetCount
	att.U32(0)              // clockInfo.restartCount
	att.U8(1)               // clockInfo.safe
	att.U64(0)              // firmwareVersion
	att.Raw(selRaw)         // attested.quote.pcrSelect
	att.B16(pcrDigest[:])   // attested.quote.pcrDigest
	quoted := att.Bytes()

	digest := sha256.Sum256(quoted)
	if t.signer != nil {
		// Deferred: the signature becomes the response's final B16 field,
		// appended by Pending once the pool delivers it.
		ctx.deferred = t.signer.Submit(SignRequest{
			Key:    t.ek,
			Hash:   crypto.SHA256,
			Digest: append([]byte(nil), digest[:]...),
			Rng:    t.forkSignRng2(),
		})
		out := ctx.respWriter()
		out.B16(quoted)
		out.U16(TPM2AlgRSASSA)
		out.U16(schemeHash)
		return out, 0, false, TPM2RCSuccess
	}
	sig, err := rsa.SignPKCS1v15(t.rng, t.ek, crypto.SHA256, digest[:])
	if err != nil {
		return nil, 0, false, TPM2RCFailure
	}

	out := ctx.respWriter()
	out.B16(quoted)
	out.U16(TPM2AlgRSASSA)
	out.U16(schemeHash)
	out.B16(sig)
	return out, 0, false, TPM2RCSuccess
}

// pcrSel2 is one parsed TPMS_PCR_SELECTION entry.
type pcrSel2 struct {
	alg    uint16
	bitmap [3]byte
}

// parsePCRSelection2 reads a TPML_PCR_SELECTION, returning both the raw
// bytes (for echoing into attestation structures) and the parsed entries.
func parsePCRSelection2(r *Reader) (raw []byte, sels []pcrSel2, rc uint32) {
	w := NewWriter()
	count := r.U32()
	if r.Err() != nil || count > uint32(len(tpm2Banks)) {
		return nil, nil, TPM2RCP(TPM2RCSize, 3)
	}
	w.U32(count)
	for i := uint32(0); i < count; i++ {
		alg := r.U16()
		n := int(r.U8())
		bm := r.RawView(n)
		if r.Err() != nil || n > NumPCRs/8 {
			return nil, nil, TPM2RCP(TPM2RCSize, 3)
		}
		if tpm2DigestSize(alg) == 0 {
			return nil, nil, TPM2RCP(TPM2RCHash, 3)
		}
		var s pcrSel2
		s.alg = alg
		copy(s.bitmap[:], bm)
		sels = append(sels, s)
		w.U16(alg)
		w.U8(3)
		w.Raw(s.bitmap[:])
	}
	return w.Bytes(), sels, TPM2RCSuccess
}
