package vtpm

import (
	"crypto/rsa"
	"errors"

	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
)

// Access-control errors a Guard returns. The manager converts them into
// refused commands; the attack harness asserts on them.
var (
	ErrDenied      = errors.New("vtpm: command denied by access control")
	ErrBadChannel  = errors.New("vtpm: channel authentication failed")
	ErrReplay      = errors.New("vtpm: replayed or out-of-window sequence number")
	ErrNotBound    = errors.New("vtpm: instance not bound to this identity")
	ErrStateSealed = errors.New("vtpm: state envelope cannot be opened")
	ErrThrottled   = errors.New("vtpm: instance command rate limit exceeded")
)

// InstanceInfo is the identity-relevant metadata of one vTPM instance,
// passed to every Guard decision.
type InstanceInfo struct {
	ID InstanceID
	// BoundDom is the domain the instance is currently attached to. Domain
	// IDs are host-local and reused — binding to them alone is the
	// baseline's weakness.
	BoundDom xen.DomID
	// BoundLaunch is the measured launch identity of the guest the instance
	// was created for. The improved design keys access to this, not to the
	// domain ID.
	BoundLaunch xen.LaunchDigest
	// Profile is the command profile the instance's engine speaks (1.2 or
	// 2.0). Guards key admission decisions on it so a 1.2 ordinal and a 2.0
	// command code with the same numeric value are never conflated.
	Profile tpm.Profile
	// Epoch is the instance's ownership generation in a federated cluster:
	// it is bumped on every ownership transition (migration, evacuation,
	// rollback) by the placement directory and travels with every checkpoint
	// header and migration image, so a store or a directory can reject the
	// late writes of a fenced former owner. Zero on single-host managers
	// that never federate.
	Epoch uint64
}

// ResponseFinisher post-processes one response: encoding it for the wire and
// scrubbing any transient plaintext the exchange left behind.
type ResponseFinisher func(resp []byte) ([]byte, error)

// Guard is the access-control seam of the vTPM subsystem — the interface the
// paper's contribution implements. One Guard instance serves a whole host.
type Guard interface {
	// Name identifies the guard in reports ("baseline", "improved").
	Name() string

	// AdmitCommand authenticates and authorizes one guest-originated ring
	// payload for an instance. claimedFrom is the domain ID the delivering
	// code path claims the payload came from; a compromised backend can lie
	// about it, which is exactly the ring-spoofing attack. On success it
	// returns the bare TPM command to execute and a finisher for the
	// response.
	AdmitCommand(inst InstanceInfo, claimedFrom xen.DomID, fromLaunch xen.LaunchDigest, payload []byte) (cmd []byte, finish ResponseFinisher, err error)

	// EncoderFor returns the guest-side codec installed into a frontend at
	// domain build time. The builder runs in the trusted path, so handing
	// the guest its channel secret here models the measured-launch key
	// installation of the improved design.
	EncoderFor(inst InstanceInfo) (GuestCodec, error)

	// ProtectState transforms raw instance state for at-rest storage and
	// for the manager's in-memory mirror, appending the protected form to
	// dst and returning the extended slice. The checkpoint pipeline passes
	// buf[:0] of one scratch buffer per instance, so steady-state persists
	// do not allocate.
	ProtectState(inst InstanceInfo, dst, state []byte) ([]byte, error)

	// RecoverState reverses ProtectState.
	RecoverState(inst InstanceInfo, blob []byte) ([]byte, error)

	// ExportState packages instance state for migration to a host whose
	// hardware-TPM endorsement key is destEK.
	ExportState(inst InstanceInfo, state []byte, destEK *rsa.PublicKey) ([]byte, error)

	// ImportState unpacks a migration envelope on the destination host.
	ImportState(blob []byte) ([]byte, error)

	// MigrationIdentity is the public key a source host encrypts migration
	// envelopes to — the destination's platform bind key, whose private
	// half lives wrapped under the hardware TPM. Nil means the guard does
	// not protect migration traffic (the baseline).
	MigrationIdentity() *rsa.PublicKey

	// RetainsPlaintext reports whether the manager should leave exchange
	// plaintext buffers in place after a command completes (the baseline's
	// sloppy-but-faithful behaviour) or scrub them immediately.
	RetainsPlaintext() bool
}

// GuestCodec is the frontend half of the command channel: it encodes
// outgoing TPM commands into ring payloads and decodes ring responses. Both
// directions append into caller-supplied buffers, so a frontend builds each
// framed request in one reusable transmit buffer.
type GuestCodec interface {
	// EncodeRequest appends the ring payload for cmd to dst and returns the
	// extended slice with the request's sequence tag, which the frontend
	// hands back to DecodeResponse with the command's response.
	EncodeRequest(dst, cmd []byte) ([]byte, uint64, error)
	// DecodeResponse unwraps a ring response that must answer the request
	// tagged seq, appending the plaintext to dst and returning the extended
	// slice.
	DecodeResponse(dst, payload []byte, seq uint64) ([]byte, error)
}

// PlainCodec passes commands through untouched — the baseline channel.
// Plaintext frames carry no sequence tag: every request is tagged 0 and a
// response matches any tag.
type PlainCodec struct{}

// EncodeRequest implements GuestCodec.
func (PlainCodec) EncodeRequest(dst, cmd []byte) ([]byte, uint64, error) {
	return append(dst, cmd...), 0, nil
}

// DecodeResponse implements GuestCodec.
func (PlainCodec) DecodeResponse(dst, p []byte, _ uint64) ([]byte, error) {
	return append(dst, p...), nil
}
