package vtpm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"xvtpm/internal/tpm"
)

// Profile plumbing: every persisted or migrated instance blob declares which
// command profile its engine speaks, in plaintext, ahead of the guard's
// protected envelope. The declaration is deliberately outside the envelope —
// a revive or an adoption must know which deserializer to hand the
// opened state to before it can open anything, and the profile is topology
// metadata, not a secret. The restored engine's own self-describing state
// magic is then checked against the declaration, so a tampered header cannot
// smuggle state across profiles.

// Profile-flow errors.
var (
	// ErrProfileMismatch reports an attempt to adopt or revive state whose
	// declared profile does not match the engine the blob actually contains,
	// or to migrate an instance into a slot of the other profile. It is
	// distinct from ErrBadEnvelope: the envelope is intact, the profiles
	// genuinely disagree.
	ErrProfileMismatch = errors.New("vtpm: TPM profile mismatch")
)

// Checkpoint header: magic ∥ version ∥ profile ∥ epoch, prepended in
// plaintext to every stored instance blob. Version 2 added the 8-byte
// ownership epoch (federation fencing, DESIGN.md §12); version-1 blobs —
// profile but no epoch — still parse and declare epoch 0.
const (
	ckptMagic    = "XCKP"
	ckptVersion1 = 1
	ckptVersion  = 2
	ckptV1HdrLen = len(ckptMagic) + 2
	ckptHdrLen   = len(ckptMagic) + 2 + 8
)

// appendCheckpointHeader appends the plaintext profile+epoch header to dst.
func appendCheckpointHeader(dst []byte, p tpm.Profile, epoch uint64) []byte {
	dst = append(dst, ckptMagic...)
	dst = append(dst, ckptVersion, byte(p))
	return binary.BigEndian.AppendUint64(dst, epoch)
}

// UnwrapCheckpoint splits a stored instance blob into its declared profile
// and the guard envelope that follows. Blobs from before the profile header
// existed carry no header; they are accepted and declared Profile12, the only
// profile that existed then. Exported because everything that reads stored
// blobs out-of-band — the move's destination, the attack harness's
// state-theft scenario, offline tooling — must strip the same header.
func UnwrapCheckpoint(blob []byte) (tpm.Profile, []byte, error) {
	p, _, env, err := UnwrapCheckpointEpoch(blob)
	return p, env, err
}

// UnwrapCheckpointEpoch is UnwrapCheckpoint also returning the ownership
// epoch the blob was committed at. Headerless and version-1 blobs declare
// epoch 0, the never-federated generation.
func UnwrapCheckpointEpoch(blob []byte) (tpm.Profile, uint64, []byte, error) {
	if len(blob) < ckptV1HdrLen || string(blob[:len(ckptMagic)]) != ckptMagic {
		return tpm.Profile12, 0, blob, nil // legacy headerless blob
	}
	version := blob[len(ckptMagic)]
	if version != ckptVersion1 && version != ckptVersion {
		return tpm.AnyProfile, 0, nil, fmt.Errorf("%w: checkpoint header version %d", ErrBadEnvelope, version)
	}
	p := tpm.Profile(blob[len(ckptMagic)+1])
	if p != tpm.Profile12 && p != tpm.Profile20 {
		return tpm.AnyProfile, 0, nil, fmt.Errorf("%w: checkpoint header declares profile %d", ErrBadEnvelope, uint8(p))
	}
	if version == ckptVersion1 {
		return p, 0, blob[ckptV1HdrLen:], nil
	}
	if len(blob) < ckptHdrLen {
		return tpm.AnyProfile, 0, nil, fmt.Errorf("%w: checkpoint header truncated at %d bytes", ErrBadEnvelope, len(blob))
	}
	epoch := binary.BigEndian.Uint64(blob[len(ckptMagic)+2 : ckptHdrLen])
	return p, epoch, blob[ckptHdrLen:], nil
}

// restoreDeclaredEngine revives an engine from opened (plaintext) state and
// cross-checks the blob's self-describing magic against the profile the
// checkpoint declared.
func restoreDeclaredEngine(declared tpm.Profile, state []byte) (tpm.Engine, error) {
	eng, err := tpm.RestoreEngine(state)
	if err != nil {
		return nil, err
	}
	if eng.Profile() != declared {
		return nil, fmt.Errorf("%w: envelope declares %s, state is %s",
			ErrProfileMismatch, declared, eng.Profile())
	}
	return eng, nil
}
