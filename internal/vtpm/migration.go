package vtpm

import (
	"crypto/rsa"
	"errors"
	"fmt"

	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
)

// Migration errors.
var (
	ErrStillBound = errors.New("vtpm: instance must be unbound before export")
	ErrBadImage   = errors.New("vtpm: malformed migration image")
)

// InstanceImage is the unit of vTPM migration: the instance's identity
// binding, its declared command profile, and its state envelope as produced
// by the guard's ExportState. For the baseline guard the envelope is
// plaintext TPM state; for the improved guard it is encrypted to the
// destination host. The profile travels in plaintext — the destination must
// reject a cross-profile import before it commits to reviving anything, and
// the restored engine's own state magic is cross-checked against the
// declaration so a tampered tag cannot smuggle state across profiles.
type InstanceImage struct {
	Launch  xen.LaunchDigest
	Profile tpm.Profile
	// Epoch is the ownership generation the instance travels at. The export
	// copies the source instance's current epoch; a federated handoff
	// overwrites it with the epoch the placement directory assigned to the
	// move, so the destination's first checkpoint already carries the fenced
	// generation.
	Epoch         uint64
	StateEnvelope []byte
}

// ExportInstance packages an instance for migration to a host whose
// hardware-TPM-resident migration bind key is destEK (nil for guards that do
// not protect the transfer). The caller must take destEK from the
// destination itself, never from the link: the guard seals the envelope's
// key to whoever holds it. The instance must be unbound; it stays registered
// until the caller destroys it after a successful transfer.
func (m *Manager) ExportInstance(id InstanceID, destEK *rsa.PublicKey) (*InstanceImage, error) {
	inst, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	// Flush barrier: drain pending write-behind checkpoints so the local
	// store agrees with the state about to travel. The export itself then
	// snapshots the engine directly, so the image always carries the latest
	// mutation regardless of policy.
	if err := m.flushCheckpoints(inst); err != nil {
		return nil, err
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.info.BoundDom != 0 {
		return nil, fmt.Errorf("%w: instance %d bound to dom%d", ErrStillBound, id, inst.info.BoundDom)
	}
	state := inst.eng.SaveState()
	env, err := m.guard.ExportState(inst.info, state, destEK)
	if err != nil {
		return nil, err
	}
	return &InstanceImage{
		Launch:        inst.info.BoundLaunch,
		Profile:       inst.info.Profile,
		Epoch:         inst.info.Epoch,
		StateEnvelope: env,
	}, nil
}

// ImportInstance revives a migrated instance on this host, returning its new
// (host-local) instance ID. The launch identity and command profile travel
// with the image. Cross-profile imports fail with ErrProfileMismatch before
// any state is committed: a destination manager pinned to one profile
// refuses images of the other, and an image whose declared profile disagrees
// with the engine state it actually carries is refused on either manager.
func (m *Manager) ImportInstance(img *InstanceImage) (InstanceID, error) {
	declared := img.Profile
	if declared == tpm.AnyProfile {
		declared = tpm.Profile12 // image from a pre-profile source
	}
	if m.cfg.Profile != tpm.AnyProfile && declared != m.cfg.Profile {
		return 0, fmt.Errorf("%w: image is %s, this manager accepts only %s",
			ErrProfileMismatch, declared, m.cfg.Profile)
	}
	state, err := m.guard.ImportState(img.StateEnvelope)
	if err != nil {
		return 0, err
	}
	eng, err := restoreDeclaredEngine(declared, state)
	if err != nil {
		if errors.Is(err, ErrProfileMismatch) {
			return 0, err
		}
		return 0, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	m.regMu.Lock()
	id := m.nextID
	m.nextID++
	inst := m.newInstance(InstanceInfo{ID: id, BoundLaunch: img.Launch, Profile: declared, Epoch: img.Epoch}, eng)
	m.instances[id] = inst
	m.regMu.Unlock()
	return m.firstCheckpoint(id, inst)
}

// EncodeInstanceImage serializes an InstanceImage: the wire form the
// cluster's fenced transfer leg ships between hosts. The profile byte and
// ownership epoch ride in plaintext between the launch digest and the
// envelope, mirroring the checkpoint header's stance: the receiver must know
// the profile before it can open anything, and the epoch is routing
// metadata, not a secret.
func EncodeInstanceImage(img *InstanceImage) []byte {
	w := tpm.NewWriter()
	w.Raw(img.Launch[:])
	w.U8(byte(img.Profile))
	w.U64(img.Epoch)
	w.B32(img.StateEnvelope)
	return w.Bytes()
}

// DecodeInstanceImage reverses EncodeInstanceImage. Every malformed input —
// short, carrying bytes past the envelope, or declaring an unknown profile —
// is refused with ErrBadImage, so whatever it accepts re-encodes byte for
// byte.
func DecodeInstanceImage(b []byte) (*InstanceImage, error) {
	img := &InstanceImage{}
	r := tpm.NewReader(b)
	copy(img.Launch[:], r.Raw(len(img.Launch)))
	img.Profile = tpm.Profile(r.U8())
	img.Epoch = r.U64()
	img.StateEnvelope = r.B32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	if n := r.Remaining(); n > 0 {
		return nil, fmt.Errorf("%w: %d bytes past the envelope", ErrBadImage, n)
	}
	if img.Profile != tpm.Profile12 && img.Profile != tpm.Profile20 {
		return nil, fmt.Errorf("%w: image declares profile %d", ErrBadImage, uint8(img.Profile))
	}
	return img, nil
}
