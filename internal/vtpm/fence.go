package vtpm

import (
	"crypto/sha1"
	"errors"
	"fmt"
	"sync/atomic"

	"xvtpm/internal/tpm"
)

// Migration fencing: the single-host half of the cluster's two-phase
// ownership handoff (DESIGN.md §12).
//
// When an instance's ownership starts moving to another host, the source
// manager fences it: Dispatch rejects every subsequent command with a
// FencedError naming the new owner and the epoch the move was opened at,
// *before* the guard or engine run — so a fence rejection is a guarantee the
// command was never executed, and transport callers may retry it against the
// new owner without risking double execution. FenceInstance also drains the
// in-flight dispatch (by briefly acquiring the instance lock) so that when it
// returns, no command is mid-execution behind the fence.
//
// The fence is advisory metadata on the local manager; the durable fence is
// the epoch in every checkpoint header, which a federated store checks
// against the placement directory to reject a zombie's late writes.

// ErrFenced is the sentinel every fence rejection wraps: the instance has
// moved (or is moving) to another owner, and the command was not executed —
// "retry elsewhere", as opposed to a real dispatch failure.
var ErrFenced = errors.New("vtpm: instance fenced, ownership moved")

// FencedError is the concrete fence rejection, carrying the redirect: which
// owner now holds the instance, and at which ownership epoch. It matches
// ErrFenced under errors.Is.
type FencedError struct {
	// ID is the fenced instance (the source manager's local ID).
	ID InstanceID
	// Owner names the host the ownership moved to.
	Owner string
	// Epoch is the ownership generation the move was opened at.
	Epoch uint64
}

// Error implements error.
func (e *FencedError) Error() string {
	return fmt.Sprintf("vtpm: instance %d fenced, owner %q at epoch %d", e.ID, e.Owner, e.Epoch)
}

// Is reports that a FencedError matches the ErrFenced sentinel.
func (e *FencedError) Is(target error) bool { return target == ErrFenced }

// fencePtr is the lock-free fence slot embedded in each instance.
type fencePtr = atomic.Pointer[FencedError]

// FenceInstance fences an instance for an ownership move: every Dispatch
// from here on is rejected with a FencedError redirecting to owner at epoch.
// Before returning it drains the in-flight dispatch, so the caller knows no
// command is executing behind the fence. Fencing an already-fenced instance
// replaces the redirect (a second move supersedes the first).
func (m *Manager) FenceInstance(id InstanceID, owner string, epoch uint64) error {
	inst, err := m.lookup(id)
	if err != nil {
		return err
	}
	inst.fence.Store(&FencedError{ID: id, Owner: owner, Epoch: epoch})
	// Drain: dispatchInstance holds inst.mu for the whole guard+engine
	// exchange, so acquiring it once means every dispatch admitted before
	// the fence landed has finished executing.
	inst.mu.Lock()
	inst.mu.Unlock() //nolint:staticcheck // SA2001: empty critical section is the drain barrier
	return nil
}

// UnfenceInstance lifts a fence after a move rolled back to this manager.
func (m *Manager) UnfenceInstance(id InstanceID) error {
	inst, err := m.lookup(id)
	if err != nil {
		return err
	}
	inst.fence.Store(nil)
	return nil
}

// InstanceFence returns the active fence redirect, if any.
func (m *Manager) InstanceFence(id InstanceID) (*FencedError, bool) {
	inst, err := m.lookup(id)
	if err != nil {
		return nil, false
	}
	fe := inst.fence.Load()
	return fe, fe != nil
}

// FenceRejects counts dispatches rejected by instance fences since the
// manager started.
func (m *Manager) FenceRejects() uint64 { return m.fenceRejects.Load() }

// SetEpoch installs an instance's ownership epoch (assigned by the placement
// directory). Subsequent checkpoints carry it in their headers.
func (m *Manager) SetEpoch(id InstanceID, epoch uint64) error {
	inst, err := m.lookup(id)
	if err != nil {
		return err
	}
	inst.mu.Lock()
	inst.info.Epoch = epoch
	inst.mu.Unlock()
	return nil
}

// PCRDigest fingerprints an instance's full SHA-1 PCR bank: the post-revive
// equality check of a migration compares source and destination fingerprints
// before the source copy is destroyed. Both profiles carry a SHA-1 bank, so
// one digest covers 1.2 and 2.0 instances.
func (m *Manager) PCRDigest(id InstanceID) ([tpm.DigestSize]byte, error) {
	var out [tpm.DigestSize]byte
	inst, err := m.lookup(id)
	if err != nil {
		return out, err
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	h := sha1.New()
	for i := 0; i < tpm.NumPCRs; i++ {
		v, err := inst.eng.PCRValue(i)
		if err != nil {
			return out, fmt.Errorf("vtpm: reading PCR %d of instance %d: %w", i, id, err)
		}
		h.Write(v[:])
	}
	copy(out[:], h.Sum(nil))
	return out, nil
}

// AdoptCheckpoint revives a checkpoint blob that was committed by another
// manager — the only way a vTPM arrives from another host: a move ships its
// source's committed checkpoint, and evacuation reads a dead member's.
// origID is the instance's ID on the manager that wrote the blob
// (state-envelope keys derive from it; under a federation master any member
// host can open it). A blob of a profile this manager is not pinned to is
// refused with ErrProfileMismatch before its envelope is opened. The adopted
// instance registers under a fresh local ID, unbound, carrying the epoch the
// blob was committed at, and is checkpointed locally before the new ID is
// returned; on any error nothing stays registered or stored.
func (m *Manager) AdoptCheckpoint(origID InstanceID, blob []byte) (InstanceID, error) {
	declared, epoch, envelope, err := UnwrapCheckpointEpoch(blob)
	if err != nil {
		return 0, fmt.Errorf("vtpm: adopting checkpoint of foreign instance %d: %w", origID, err)
	}
	if m.cfg.Profile != tpm.AnyProfile && declared != m.cfg.Profile {
		return 0, fmt.Errorf("%w: checkpoint of foreign instance %d is %s, this manager accepts only %s",
			ErrProfileMismatch, origID, declared, m.cfg.Profile)
	}
	state, err := m.guard.RecoverState(InstanceInfo{ID: origID, Profile: declared}, envelope)
	if err != nil {
		return 0, fmt.Errorf("vtpm: opening foreign envelope of instance %d: %w", origID, err)
	}
	eng, err := restoreDeclaredEngine(declared, state)
	if err != nil {
		return 0, fmt.Errorf("vtpm: restoring foreign state of instance %d: %w", origID, err)
	}
	m.regMu.Lock()
	id := m.nextID
	m.nextID++
	inst := m.newInstance(InstanceInfo{ID: id, Profile: declared, Epoch: epoch}, eng)
	m.instances[id] = inst
	m.regMu.Unlock()
	return m.firstCheckpoint(id, inst)
}

// StateName is the store key of an instance's checkpoint blob, exported for
// federated stores that map local blob names onto a shared namespace.
func StateName(id InstanceID) string { return stateName(id) }
