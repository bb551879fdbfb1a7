package tpm

// Deferred command completion.
//
// Signing ordinals with a pool attached split execution in two: phase 1,
// under the engine mutex, does all parsing, authorization, state reads and
// session rolling, snapshots the to-be-signed digest, and submits the
// signing job; phase 2 (Pending.Wait) blocks for the signature and assembles
// the final response as pure computation over captured data, touching no
// engine state. The split exists because the response authorization MAC
// covers the signature bytes, so the trailer cannot be finished until the
// signature lands — but everything the trailer needs (verified secrets,
// caller nonces, pre-drawn even nonces) can be captured in phase 1.
//
// Phase 1 pre-draws the response-auth nonces and rolls/terminates sessions
// in exactly the order buildResponse would, so the engine's deterministic
// nonce stream is identical whether or not a command defers.

// Pending is the unlocked completion half of a deferred command.
type Pending struct {
	ticket *SignTicket
	build  func(sig []byte) []byte // assembles the success response
	fail   func(err error) []byte  // error response + session teardown
	res    SignResult
	waited bool
}

// Wait blocks for the signature and returns the final marshaled response.
// Idempotent: repeated calls rebuild from the cached result.
func (p *Pending) Wait() []byte {
	if !p.waited {
		p.res = p.ticket.Wait()
		p.waited = true
	}
	if p.res.Err != nil {
		return p.fail(p.res.Err)
	}
	return p.build(p.res.Sig)
}

// Err returns the signing failure after Wait, nil otherwise. The dispatch
// layer threads it into spans and the sign-error counter, so pool failures
// carry their cause instead of a bare TPM failure code.
func (p *Pending) Err() error {
	if !p.waited {
		return nil
	}
	return p.res.Err
}

// deferredAuth is one response-auth block captured in phase 1.
type deferredAuth struct {
	handle   uint32
	secret   []byte
	nonceOdd [NonceSize]byte
	newEven  [NonceSize]byte
	contSess bool
}

// prepareDeferred performs the locked half of a deferred 1.2 response:
// copies the handler's response-parameter prefix out of the scratch writer,
// pre-draws the response-auth nonces, and rolls or terminates the sessions —
// the exact side effects buildResponse would have had. The returned
// Pending's build closure then mirrors buildResponse's byte layout with the
// signature appended as the final B32 field. Caller holds t.mu.
func (t *TPM) prepareDeferred(ctx *cmdContext, out *Writer) *Pending {
	tag := TagRSPCommand
	switch len(ctx.auths) {
	case 1:
		tag = TagRSPAuth1Command
	case 2:
		tag = TagRSPAuth2Command
	}
	var prefix []byte
	if out != nil {
		prefix = append([]byte(nil), out.Bytes()...)
	}
	auths := make([]deferredAuth, len(ctx.auths))
	for i, a := range ctx.auths {
		newEven := t.randNonce()
		auths[i] = deferredAuth{
			handle:   a.handle,
			secret:   a.secret, // already a copy (verifyAuth)
			nonceOdd: a.nonceOdd,
			newEven:  newEven,
			contSess: a.contSess,
		}
		if a.sess != nil {
			if a.contSess {
				a.sess.nonceEven = newEven
			} else {
				delete(t.sessions, a.handle)
			}
		}
	}
	ordinal := ctx.ordinal
	build := func(sig []byte) []byte {
		body := NewWriterBuf(make([]byte, 0, len(prefix)+4+len(sig)))
		body.Raw(prefix)
		body.B32(sig)
		outBody := body.Bytes()
		var trailerBytes []byte
		if len(auths) > 0 {
			rd := NewWriter()
			rd.U32(RCSuccess).U32(ordinal).Raw(outBody)
			respDigest := sha1Sum(rd.Bytes())
			trailer := NewWriter()
			for _, a := range auths {
				contByte := byte(0)
				if a.contSess {
					contByte = 1
				}
				mac := hmacSHA1(a.secret, respDigest, a.newEven[:], a.nonceOdd[:], []byte{contByte})
				trailer.Raw(a.newEven[:])
				trailer.U8(contByte)
				trailer.Raw(mac)
			}
			trailerBytes = trailer.Bytes()
		}
		w := NewWriterBuf(make([]byte, 0, 10+len(outBody)+len(trailerBytes)))
		w.U16(tag)
		w.U32(uint32(10 + len(outBody) + len(trailerBytes)))
		w.U32(RCSuccess)
		w.Raw(outBody)
		w.Raw(trailerBytes)
		return w.Bytes()
	}
	fail := func(err error) []byte {
		// Failed authorized commands terminate their sessions; the
		// optimistic roll above already happened, so tear them down now,
		// back under the lock.
		t.mu.Lock()
		for _, a := range auths {
			delete(t.sessions, a.handle)
		}
		t.mu.Unlock()
		return errorResponse(RCFail)
	}
	return &Pending{ticket: ctx.deferred, build: build, fail: fail}
}
