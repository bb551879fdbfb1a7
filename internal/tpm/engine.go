package tpm

import (
	"crypto/rsa"
	"errors"
	"fmt"
)

// The profile-abstracted engine seam.
//
// The vTPM manager never touches a concrete engine type: every instance sits
// behind Engine, so a TPM 1.2 and a TPM 2.0 instance are interchangeable to
// the dispatch, checkpoint, migration and observability layers. The profile
// travels with the instance — in its InstanceInfo, in its checkpoint header
// (which a move ships as it sits at rest), and in the guard's
// admission-cache keys — so mixed
// fleets run under one manager without 1.2 ordinals and 2.0 command codes
// ever being confused for one another.

// Profile identifies the command profile an engine speaks. The zero value is
// AnyProfile, which is never a live engine's profile: it exists so policy
// rules and filters can leave the profile unconstrained.
type Profile uint8

// Engine profiles.
const (
	// AnyProfile is the wildcard: valid in policy rules and tooling filters,
	// never on a live engine or envelope.
	AnyProfile Profile = 0
	// Profile12 is the TPM 1.2 command profile (tag/size/ordinal framing,
	// OIAP/OSAP authorization, single SHA-1 PCR bank).
	Profile12 Profile = 1
	// Profile20 is the TPM 2.0 command profile (TPM2_ST_* session tags,
	// TPM2_CC_* command codes, multi-algorithm PCR banks, password/HMAC
	// session authorization).
	Profile20 Profile = 2
)

// String returns the profile's human spelling ("1.2", "2.0").
func (p Profile) String() string {
	switch p {
	case Profile12:
		return "1.2"
	case Profile20:
		return "2.0"
	case AnyProfile:
		return "any"
	}
	return fmt.Sprintf("profile(%d)", uint8(p))
}

// ParseProfile reverses Profile.String for config files and CLI flags.
func ParseProfile(s string) (Profile, error) {
	switch s {
	case "1.2", "12", "tpm1.2":
		return Profile12, nil
	case "2.0", "20", "tpm2.0", "tpm2":
		return Profile20, nil
	case "any", "":
		return AnyProfile, nil
	}
	return AnyProfile, fmt.Errorf("tpm: unknown profile %q (want 1.2 or 2.0)", s)
}

// ErrUnknownProfile reports a profile value no engine implements.
var ErrUnknownProfile = errors.New("tpm: unknown engine profile")

// Engine is one software TPM instance behind the vTPM manager, independent
// of command profile. Execute never returns an error — protocol failures
// become profile-appropriate TPM return codes, as on hardware — and the
// state methods serialize to a self-describing blob RestoreEngine revives.
type Engine interface {
	// Profile reports the command profile the engine speaks.
	Profile() Profile
	// Execute runs one marshaled command and returns the marshaled response.
	Execute(cmd []byte) []byte
	// ExecuteDeferred is Execute split for the dispatch path: when the
	// command's signature went to the signing pool, the response comes back
	// as a Pending (resp == nil) whose Wait completes outside the engine
	// lock, so the manager can release the instance meanwhile; otherwise
	// the finished response is returned with a nil Pending.
	ExecuteDeferred(cmd []byte) (resp []byte, pending *Pending)
	// AttachPools attaches (or detaches, with nils) the shared signing and
	// key-generation pools after construction — checkpoint restore and
	// migration import revive engines without a Config.
	AttachPools(signer *SignPool, keys *KeyPool)
	// SaveState serializes the engine's persistent state.
	SaveState() []byte
	// AppendState serializes the persistent state into dst (typically
	// buf[:0] of a scratch slice) and returns the extended slice, so steady
	// checkpoint loops serialize without allocating.
	AppendState(dst []byte) []byte
	// Mutates reports whether the given command code (1.2 ordinal or 2.0
	// TPM2_CC_*) changes persistent state, i.e. whether the manager must
	// re-checkpoint after it.
	Mutates(code uint32) bool
	// EKPub returns the endorsement public key.
	EKPub() *rsa.PublicKey
	// CommandCount returns the number of commands executed so far.
	CommandCount() uint64
	// PCRValue returns the current SHA-1-bank value of one PCR, for tests
	// and co-located verifiers. (Both profiles carry a SHA-1 bank; remote
	// verifiers must use Quote.)
	PCRValue(idx int) ([DigestSize]byte, error)
}

// Profile implements Engine for the TPM 1.2 engine.
func (t *TPM) Profile() Profile { return Profile12 }

// mutating12 lists the 1.2 ordinals after which the manager re-persists
// instance state, as the stock manager persisted NVRAM changes. (GetRandom
// advances the DRBG but is not checkpointed, trading a sliver of RNG-state
// freshness for not re-serializing keys on the hottest command — the same
// trade the deployed manager made.)
var mutating12 = map[uint32]bool{
	OrdExtend:        true,
	OrdPCRReset:      true,
	OrdTakeOwnership: true,
	OrdOwnerClear:    true,
	OrdForceClear:    true,
	OrdNVDefineSpace: true,
	OrdNVWriteValue:  true,
	OrdStirRandom:    true,
}

// Mutates implements Engine for the TPM 1.2 engine.
func (t *TPM) Mutates(code uint32) bool { return mutating12[code] }

// MutatingCodes lists the command codes Engine.Mutates reports true for
// under a profile, for consistency tests and tooling. The live decision is
// always the engine's own Mutates.
func MutatingCodes(p Profile) []uint32 {
	var src map[uint32]bool
	switch p {
	case AnyProfile, Profile12:
		src = mutating12
	case Profile20:
		src = mutating20
	}
	out := make([]uint32, 0, len(src))
	for code := range src {
		out = append(out, code)
	}
	return out
}

// CommandCodeOf extracts the command code from a marshaled command. Both
// profiles frame commands as tag(2) ∥ size(4) ∥ code(4), so one accessor
// serves 1.2 ordinals and 2.0 TPM2_CC_* values alike.
func CommandCodeOf(cmd []byte) uint32 {
	if len(cmd) < 10 {
		return 0
	}
	return uint32(cmd[6])<<24 | uint32(cmd[7])<<16 | uint32(cmd[8])<<8 | uint32(cmd[9])
}

// NewEngine creates a powered-on but not-yet-started engine of the given
// profile. AnyProfile resolves to Profile12, the seed tree's only profile,
// so existing single-profile callers need no migration.
func NewEngine(p Profile, cfg Config) (Engine, error) {
	switch p {
	case AnyProfile, Profile12:
		return New(cfg)
	case Profile20:
		return New2(cfg)
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownProfile, uint8(p))
}

// StartupEngine sends the profile-appropriate startup command (TPM_Startup
// with ST_CLEAR, or TPM2_Startup with TPM2_SU_CLEAR) through the engine's
// command interface and checks the return code.
func StartupEngine(e Engine) error {
	switch e.Profile() {
	case Profile12:
		w := NewWriter()
		w.U16(TagRQUCommand)
		w.U32(12)
		w.U32(OrdStartup)
		w.U16(STClear)
		resp := e.Execute(w.Bytes())
		if rc := responseCode(resp); rc != RCSuccess {
			return &TPMError{Ordinal: OrdStartup, Code: rc}
		}
		return nil
	case Profile20:
		w := NewWriter()
		w.U16(TPM2STNoSessions)
		w.U32(12)
		w.U32(TPM2CCStartup)
		w.U16(TPM2SUClear)
		resp := e.Execute(w.Bytes())
		if rc := responseCode(resp); rc != TPM2RCSuccess {
			return &TPMError{Ordinal: TPM2CCStartup, Code: rc}
		}
		return nil
	}
	return fmt.Errorf("%w: %d", ErrUnknownProfile, uint8(e.Profile()))
}

// responseCode extracts the return code from a marshaled response (both
// profiles: tag(2) ∥ size(4) ∥ code(4)).
func responseCode(resp []byte) uint32 {
	if len(resp) < 10 {
		return RCFail
	}
	return uint32(resp[6])<<24 | uint32(resp[7])<<16 | uint32(resp[8])<<8 | uint32(resp[9])
}

// StateProfile sniffs the profile of a serialized engine-state blob from its
// magic without deserializing it.
func StateProfile(blob []byte) (Profile, error) {
	if len(blob) >= len(stateMagic) && string(blob[:len(stateMagic)]) == StateMagic {
		return Profile12, nil
	}
	if len(blob) >= len(state2Magic) && string(blob[:len(state2Magic)]) == State2Magic {
		return Profile20, nil
	}
	return AnyProfile, errors.New("tpm: not a TPM state blob")
}

// RestoreEngine revives an engine from a SaveState blob of either profile,
// dispatching on the blob's magic.
func RestoreEngine(blob []byte) (Engine, error) {
	p, err := StateProfile(blob)
	if err != nil {
		return nil, err
	}
	if p == Profile20 {
		return RestoreState2(blob)
	}
	return RestoreState(blob)
}
