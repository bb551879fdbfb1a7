package tpm

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"sync"
)

// TPM2 is one software TPM 2.0 instance: the second profile behind the
// tpm.Engine seam. All commands enter through Execute; the mutex serializes
// them, as the single-threaded hardware does.
//
// The engine implements the structural subset of TPM 2.0 the vTPM fleet
// exercises — startup, self-test, multi-algorithm PCR banks (SHA-1 and
// SHA-256), capability queries, random, password and HMAC session
// authorization, and quoting — with faithful 2.0 framing (TPM2_ST_* tags,
// handle areas, authorization areas, parameter-size fields) and 2.0
// response-code encoding (format-zero and qualified format-one codes).
//
// Deliberate divergences from the TPM 2.0 Library Specification, mirroring
// the 1.2 engine's documented stance: (1) HMAC sessions bind to the entity's
// authValue directly instead of deriving a session key via KDFa over a salt,
// and cpHash covers the raw handle values rather than entity Names; (2) the
// endorsement hierarchy's primary key doubles as the quote signing key
// (RSASSA/SHA-256) instead of a created-and-loaded attestation key. Both
// sides of every exchange use the same construction, so the
// security-relevant behaviour is preserved.
type TPM2 struct {
	mu      sync.Mutex
	rng     *drbg
	keyRng  *drbg
	rsaBits int
	signer  *SignPool // nil: signatures computed inline under mu
	keyPool *KeyPool  // nil: keys generated inline from keyRng

	started    bool
	testResult uint32

	// PCR banks. Extends address a bank by algorithm; Quote and PCR_Read
	// select (bank, index) pairs.
	sha1Bank   [NumPCRs][DigestSize]byte
	sha256Bank [NumPCRs][SHA256Size]byte
	// pcrUpdateCounter counts successful PCR mutations, reported by
	// PCR_Read so verifiers can detect interleaved extends.
	pcrUpdateCounter uint32

	ek *rsa.PrivateKey

	sessions    map[uint32]*session2
	nextSession uint32

	// Dictionary-attack defense, as in the 1.2 engine: consecutive
	// authorization failures latch the lockout; 2.0 reports TPM2RCLockout.
	authFailCount uint32
	lockedOut     bool

	commandCount uint64

	// Per-command scratch reused across Execute calls (serialized by mu).
	respW  Writer
	hashes []byte // selected-PCR concatenation scratch for Quote
}

// session2 is a live 2.0 HMAC authorization session.
type session2 struct {
	alg      uint16 // authHash: TPM2AlgSHA1 or TPM2AlgSHA256
	nonceTPM []byte
}

// New2 creates a powered-on but not-yet-started TPM 2.0 engine. Config is
// shared with the 1.2 engine: RSABits sizes the endorsement key, Seed makes
// the instance deterministic, KeyPool supplies a pre-generated one.
func New2(cfg Config) (*TPM2, error) {
	bits := cfg.RSABits
	if bits == 0 {
		bits = DefaultRSABits
	}
	seed := cfg.Seed
	if seed == nil {
		seed = make([]byte, 32)
		if _, err := rand.Read(seed); err != nil {
			return nil, fmt.Errorf("tpm2: seeding: %w", err)
		}
	}
	t := &TPM2{
		rng:         newDRBG(seed),
		keyRng:      newDRBG(append(append([]byte(nil), seed...), []byte("|keygen2")...)),
		rsaBits:     bits,
		sessions:    make(map[uint32]*session2),
		nextSession: tpm2SessionBase,
	}
	t.signer = cfg.Signer
	t.keyPool = cfg.KeyPool
	ek, err := newKey(t.keyPool, t.keyRng, bits)
	if err != nil {
		return nil, fmt.Errorf("tpm2: generating EK: %w", err)
	}
	t.ek = ek
	return t, nil
}

// AttachPools implements Engine.
func (t *TPM2) AttachPools(signer *SignPool, keys *KeyPool) {
	t.mu.Lock()
	t.signer = signer
	t.keyPool = keys
	t.mu.Unlock()
}

// Profile implements Engine.
func (t *TPM2) Profile() Profile { return Profile20 }

// mutating20 lists the 2.0 command codes after which the manager must
// re-checkpoint. GetRandom is excluded for the same freshness-vs-cost trade
// the 1.2 engine documents.
var mutating20 = map[uint32]bool{
	TPM2CCPCRExtend:  true,
	TPM2CCPCRReset:   true,
	TPM2CCStirRandom: true,
}

// Mutates implements Engine.
func (t *TPM2) Mutates(code uint32) bool { return mutating20[code] }

// EKPub implements Engine.
func (t *TPM2) EKPub() *rsa.PublicKey {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &t.ek.PublicKey
}

// CommandCount implements Engine.
func (t *TPM2) CommandCount() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.commandCount
}

// PCRValue implements Engine: the SHA-1 bank's view of one register, so
// profile-generic tests and co-located verifiers read both engines the same
// way.
func (t *TPM2) PCRValue(idx int) ([DigestSize]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 || idx >= NumPCRs {
		return [DigestSize]byte{}, fmt.Errorf("tpm2: PCR %d out of range", idx)
	}
	return t.sha1Bank[idx], nil
}

// PCRBankValue returns one register of a specific bank (SHA-1 or SHA-256),
// for tests asserting bank independence.
func (t *TPM2) PCRBankValue(alg uint16, idx int) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 || idx >= NumPCRs {
		return nil, fmt.Errorf("tpm2: PCR %d out of range", idx)
	}
	switch alg {
	case TPM2AlgSHA1:
		return append([]byte(nil), t.sha1Bank[idx][:]...), nil
	case TPM2AlgSHA256:
		return append([]byte(nil), t.sha256Bank[idx][:]...), nil
	}
	return nil, fmt.Errorf("tpm2: no PCR bank for algorithm %#x", alg)
}

// authSession2 is one parsed request authorization-area entry.
type authSession2 struct {
	handle      uint32
	nonceCaller []byte
	attrs       byte
	auth        []byte // password (RS_PW) or HMAC
	sess        *session2
	secret      []byte // entity auth the HMAC verified under, for the response MAC
}

// cmd2Context carries one in-flight 2.0 command through its handler.
type cmd2Context struct {
	t       *TPM2
	tag     uint16
	cc      uint32
	handles []uint32
	params  *Reader
	body    []byte // raw parameter bytes (cpHash input)
	auths   []*authSession2
	hbuf    [8]uint32 // backing array for handles: no per-command allocation
	abuf    [3]*authSession2
	asbuf   [3]authSession2
	// deferred, when a handler sets it, is the signing-pool ticket whose
	// signature the response's final B16 field is waiting on.
	deferred *SignTicket
}

// handler2 processes one command code, returning the response parameter
// writer, any response handle, and a return code.
type handler2 func(ctx *cmd2Context) (out *Writer, respHandle uint32, hasHandle bool, rc uint32)

// cmd2Info describes one dispatchable 2.0 command: its handle-area size,
// whether an authorization session is mandatory, and its handler.
type cmd2Info struct {
	nHandles  int
	needsAuth bool
	h         handler2
}

// dispatch2 maps TPM2_CC_* codes to their descriptors. Populated in init()
// in tpm2_cmds.go.
var dispatch2 = map[uint32]*cmd2Info{}

func register2(cc uint32, nHandles int, needsAuth bool, h handler2) {
	if _, dup := dispatch2[cc]; dup {
		panic(fmt.Sprintf("tpm2: duplicate handler for command %#x", cc))
	}
	dispatch2[cc] = &cmd2Info{nHandles: nHandles, needsAuth: needsAuth, h: h}
}

// Execute runs one marshaled TPM 2.0 command and returns the marshaled
// response. It never returns an error: protocol failures become 2.0 return
// codes, as on hardware. When TPM2_Quote defers its signature to the
// signing pool, Execute blocks for it — callers wanting the overlap use
// ExecuteDeferred.
func (t *TPM2) Execute(cmd []byte) []byte {
	resp, pending := t.ExecuteDeferred(cmd)
	if pending != nil {
		return pending.Wait()
	}
	return resp
}

// ExecuteDeferred runs one marshaled 2.0 command under the engine mutex,
// returning a Pending (resp == nil) when the handler offloaded its signature
// to the signing pool — the 2.0 twin of the 1.2 engine's ExecuteDeferred.
func (t *TPM2) ExecuteDeferred(cmd []byte) (resp []byte, pending *Pending) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.commandCount++

	r := NewReader(cmd)
	tag := r.U16()
	size := r.U32()
	cc := r.U32()
	if r.Err() != nil || int(size) != len(cmd) {
		return tpm2ErrorResponse2v(TPM2RCCommandSize)
	}
	if tag != TPM2STNoSessions && tag != TPM2STSessions {
		return tpm2ErrorResponse2v(TPM2RCBadTag)
	}
	info, ok := dispatch2[cc]
	if !ok {
		return tpm2ErrorResponse2v(TPM2RCCommandCode)
	}
	if !t.started && cc != TPM2CCStartup {
		return tpm2ErrorResponse2v(TPM2RCInitialize)
	}

	ctx := cmd2Context{t: t, tag: tag, cc: cc}
	ctx.handles = ctx.hbuf[:0]
	for i := 0; i < info.nHandles; i++ {
		ctx.handles = append(ctx.handles, r.U32())
	}
	if r.Err() != nil {
		return tpm2ErrorResponse2v(TPM2RCCommandSize)
	}

	if tag == TPM2STSessions {
		authSize := r.U32()
		if r.Err() != nil || int(authSize) > r.Remaining() {
			return tpm2ErrorResponse2v(TPM2RCCommandSize)
		}
		area := NewReader(r.Raw(int(authSize)))
		n := 0
		for area.Remaining() > 0 {
			if n >= len(ctx.asbuf) {
				return tpm2ErrorResponse2v(TPM2RCS(TPM2RCValue, n+1))
			}
			a := &ctx.asbuf[n]
			a.handle = area.U32()
			a.nonceCaller = area.B16()
			a.attrs = area.U8()
			a.auth = area.B16()
			a.sess, a.secret = nil, nil
			if area.Err() != nil {
				return tpm2ErrorResponse2v(TPM2RCS(TPM2RCSize, n+1))
			}
			ctx.auths = append(ctx.abuf[:n], a)
			n++
		}
		if n == 0 {
			return tpm2ErrorResponse2v(TPM2RCAuthMissing)
		}
	} else if info.needsAuth {
		return tpm2ErrorResponse2v(TPM2RCAuthMissing)
	}

	ctx.body = r.Rest()
	pr := NewReader(ctx.body)
	ctx.params = pr

	if info.needsAuth {
		if rc := t.verifyAuth2(&ctx); rc != TPM2RCSuccess {
			return tpm2ErrorResponse2v(rc)
		}
	}

	out, respHandle, hasHandle, rc := info.h(&ctx)
	if rc != TPM2RCSuccess {
		// Failed authorized commands terminate their sessions, as in 2.0
		// (the TPM flushes sessions whose command fails without
		// continueSession semantics being reached).
		for _, a := range ctx.auths {
			if a.sess != nil {
				delete(t.sessions, a.handle)
			}
		}
		return tpm2ErrorResponse2v(rc)
	}
	if ctx.deferred == nil {
		return t.buildResponse2(&ctx, out, respHandle, hasHandle), nil
	}
	return nil, t.prepareDeferred2(&ctx, out, respHandle, hasHandle)
}

// tpm2ErrorResponse builds a minimal 2.0 failure response.
func tpm2ErrorResponse(rc uint32) []byte {
	w := NewWriterBuf(make([]byte, 0, 10))
	w.U16(TPM2STNoSessions)
	w.U32(10)
	w.U32(rc)
	return w.Bytes()
}

// tpm2ErrorResponse2v is tpm2ErrorResponse in ExecuteDeferred's two-value
// return shape.
func tpm2ErrorResponse2v(rc uint32) ([]byte, *Pending) {
	return tpm2ErrorResponse(rc), nil
}

// ErrorResponse2 builds a minimal 2.0 failure response for a return code.
// The vTPM backend uses it to refuse commands the guard denies on 2.0
// instances, mirroring tpm.ErrorResponse for 1.2.
func ErrorResponse2(rc uint32) []byte { return tpm2ErrorResponse(rc) }

// authValueFor resolves the authorization secret of an entity handle. The
// implemented entities all carry the empty auth (PCRs, the endorsement
// hierarchy primary); unknown handles fail.
func (t *TPM2) authValueFor(h uint32) ([]byte, bool) {
	switch {
	case h < NumPCRs: // PCR handles
		return nil, true
	case h == TPM2RHEndorsement, h == TPM2RHOwner, h == TPM2RHNull:
		return nil, true
	}
	return nil, false
}

// cpHash2 computes the command-parameter hash the session HMAC covers:
// H(cc ∥ handles ∥ params) with the session's authHash.
func cpHash2(alg uint16, cc uint32, handles []uint32, body []byte) []byte {
	var w Writer
	w.U32(cc)
	for _, h := range handles {
		w.U32(h)
	}
	w.Raw(body)
	return tpm2Sum(alg, w.Bytes())
}

// tpm2Sum hashes data with a bank algorithm (SHA-1 or SHA-256).
func tpm2Sum(alg uint16, data []byte) []byte {
	if alg == TPM2AlgSHA1 {
		return sha1Sum(data)
	}
	d := sha256.Sum256(data)
	return d[:]
}

// tpm2HMAC computes HMAC with the session's authHash.
func tpm2HMAC(alg uint16, key []byte, parts ...[]byte) []byte {
	if alg == TPM2AlgSHA1 {
		return hmacSHA1(key, parts...)
	}
	m := hmac.New(sha256.New, key)
	for _, p := range parts {
		m.Write(p)
	}
	return m.Sum(nil)
}

// verifyAuth2 checks the first authorization session against the first
// handle's entity. Password sessions compare the authValue directly; HMAC
// sessions verify HMAC(entityAuth, cpHash ∥ nonceCaller ∥ nonceTPM ∥ attrs).
func (t *TPM2) verifyAuth2(ctx *cmd2Context) uint32 {
	if t.lockedOut {
		return TPM2RCLockout
	}
	if len(ctx.auths) == 0 {
		return TPM2RCAuthMissing
	}
	a := ctx.auths[0]
	var entity uint32 = TPM2RHNull
	if len(ctx.handles) > 0 {
		entity = ctx.handles[0]
	}
	secret, known := t.authValueFor(entity)
	if !known {
		return TPM2RCH(TPM2RCHandle, 1)
	}
	switch {
	case a.handle == TPM2RSPW:
		// Password authorization: the auth field carries the plaintext
		// authValue.
		if !hmacEqual(a.auth, secret) && !(len(a.auth) == 0 && len(secret) == 0) {
			return t.noteAuthFail()
		}
	default:
		sess, ok := t.sessions[a.handle]
		if !ok {
			return TPM2RCS(TPM2RCHandle, 1)
		}
		cp := cpHash2(sess.alg, ctx.cc, ctx.handles, ctx.body)
		want := tpm2HMAC(sess.alg, secret, cp, a.nonceCaller, sess.nonceTPM, []byte{a.attrs})
		if !hmacEqual(want, a.auth) {
			t.noteAuthFail()
			return TPM2RCS(TPM2RCAuthFail, 1)
		}
		a.sess = sess
	}
	t.authFailCount = 0
	a.secret = secret
	return TPM2RCSuccess
}

// noteAuthFail advances the dictionary-attack counter and returns the
// authorization failure code (latching lockout at the threshold, as the 1.2
// engine does).
func (t *TPM2) noteAuthFail() uint32 {
	t.authFailCount++
	if t.authFailCount >= lockoutThreshold {
		t.lockedOut = true
	}
	return TPM2RCS(TPM2RCBadAuth, 1)
}

// buildResponse2 assembles a success response: header, optional response
// handle, parameterSize-prefixed parameters (sessions tag only), and one
// response auth entry per request session.
func (t *TPM2) buildResponse2(ctx *cmd2Context, out *Writer, respHandle uint32, hasHandle bool) []byte {
	var outBody []byte
	if out != nil {
		outBody = out.Bytes()
	}
	var trailer []byte
	if ctx.tag == TPM2STSessions {
		tw := NewWriter()
		for _, a := range ctx.auths {
			if a.sess != nil {
				// HMAC session: roll nonceTPM, MAC the response.
				newNonce := t.randBytes2(len(a.sess.nonceTPM))
				rp := NewWriter()
				rp.U32(TPM2RCSuccess).U32(ctx.cc).Raw(outBody)
				rpHash := tpm2Sum(a.sess.alg, rp.Bytes())
				mac := tpm2HMAC(a.sess.alg, a.secret, rpHash, newNonce, a.nonceCaller, []byte{a.attrs})
				tw.B16(newNonce)
				tw.U8(a.attrs)
				tw.B16(mac)
				if a.attrs&TPM2SAContinueSession != 0 {
					a.sess.nonceTPM = newNonce
				} else {
					delete(t.sessions, a.handle)
				}
			} else {
				// Password session: empty nonce and HMAC.
				tw.U16(0)
				tw.U8(a.attrs)
				tw.U16(0)
			}
		}
		trailer = tw.Bytes()
	}

	size := 10
	if hasHandle {
		size += 4
	}
	if ctx.tag == TPM2STSessions {
		size += 4 + len(outBody) + len(trailer)
	} else {
		size += len(outBody)
	}
	w := NewWriterBuf(make([]byte, 0, size))
	w.U16(ctx.tag)
	w.U32(uint32(size))
	w.U32(TPM2RCSuccess)
	if hasHandle {
		w.U32(respHandle)
	}
	if ctx.tag == TPM2STSessions {
		w.U32(uint32(len(outBody)))
	}
	w.Raw(outBody)
	w.Raw(trailer)
	return w.Bytes()
}

// deferredAuth2 is one 2.0 response-auth entry captured in phase 1.
type deferredAuth2 struct {
	handle      uint32
	alg         uint16
	secret      []byte
	nonceCaller []byte
	newNonce    []byte // non-nil marks an HMAC session
	attrs       byte
}

// prepareDeferred2 performs the locked half of a deferred 2.0 response:
// copies the handler's response-parameter prefix, pre-rolls nonceTPM for
// every HMAC session (in buildResponse2's order), and captures the MAC
// inputs. The Pending's build closure then mirrors buildResponse2's byte
// layout with the signature appended as the final B16 field. Caller holds
// t.mu.
func (t *TPM2) prepareDeferred2(ctx *cmd2Context, out *Writer, respHandle uint32, hasHandle bool) *Pending {
	var prefix []byte
	if out != nil {
		prefix = append([]byte(nil), out.Bytes()...)
	}
	sessTag := ctx.tag == TPM2STSessions
	auths := make([]deferredAuth2, len(ctx.auths))
	for i, a := range ctx.auths {
		c := deferredAuth2{handle: a.handle, attrs: a.attrs}
		if a.sess != nil {
			c.alg = a.sess.alg
			// nonceCaller views the command buffer, which the caller may
			// reuse once ExecuteDeferred returns; the secret may alias entity
			// state. Copy both.
			c.secret = append([]byte(nil), a.secret...)
			c.nonceCaller = append([]byte(nil), a.nonceCaller...)
			c.newNonce = t.randBytes2(len(a.sess.nonceTPM))
			if a.attrs&TPM2SAContinueSession != 0 {
				a.sess.nonceTPM = c.newNonce
			} else {
				delete(t.sessions, a.handle)
			}
		}
		auths[i] = c
	}
	tag, cc := ctx.tag, ctx.cc
	build := func(sig []byte) []byte {
		body := NewWriterBuf(make([]byte, 0, len(prefix)+2+len(sig)))
		body.Raw(prefix)
		body.B16(sig)
		outBody := body.Bytes()
		var trailer []byte
		if sessTag {
			tw := NewWriter()
			for _, c := range auths {
				if c.newNonce != nil {
					rp := NewWriter()
					rp.U32(TPM2RCSuccess).U32(cc).Raw(outBody)
					rpHash := tpm2Sum(c.alg, rp.Bytes())
					mac := tpm2HMAC(c.alg, c.secret, rpHash, c.newNonce, c.nonceCaller, []byte{c.attrs})
					tw.B16(c.newNonce)
					tw.U8(c.attrs)
					tw.B16(mac)
				} else {
					tw.U16(0)
					tw.U8(c.attrs)
					tw.U16(0)
				}
			}
			trailer = tw.Bytes()
		}
		size := 10
		if hasHandle {
			size += 4
		}
		if sessTag {
			size += 4 + len(outBody) + len(trailer)
		} else {
			size += len(outBody)
		}
		w := NewWriterBuf(make([]byte, 0, size))
		w.U16(tag)
		w.U32(uint32(size))
		w.U32(TPM2RCSuccess)
		if hasHandle {
			w.U32(respHandle)
		}
		if sessTag {
			w.U32(uint32(len(outBody)))
		}
		w.Raw(outBody)
		w.Raw(trailer)
		return w.Bytes()
	}
	fail := func(err error) []byte {
		// Failed commands terminate their sessions; the optimistic roll
		// above already happened, so tear them down under the lock.
		t.mu.Lock()
		for _, c := range auths {
			if c.newNonce != nil {
				delete(t.sessions, c.handle)
			}
		}
		t.mu.Unlock()
		return tpm2ErrorResponse(TPM2RCFailure)
	}
	return &Pending{ticket: ctx.deferred, build: build, fail: fail}
}

// respWriter returns the per-TPM scratch response-parameter writer, reset.
func (ctx *cmd2Context) respWriter() *Writer {
	w := &ctx.t.respW
	w.Reset()
	return w
}

// forkSignRng2 derives an independent DRBG stream for one signing-pool job,
// as the 1.2 engine's forkSignRng does: the engine's own DRBGs must never be
// read off-lock, and RSASSA output does not depend on the rng (blinding
// only). Caller holds t.mu.
func (t *TPM2) forkSignRng2() *drbg {
	var seed [32]byte
	t.keyRng.Read(seed[:]) //nolint:errcheck // drbg.Read cannot fail
	return newDRBG(seed[:])
}

// randBytes2 draws n bytes from the DRBG.
func (t *TPM2) randBytes2(n int) []byte {
	b := make([]byte, n)
	t.rng.Read(b) //nolint:errcheck // drbg.Read cannot fail
	return b
}
