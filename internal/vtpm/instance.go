package vtpm

import (
	"fmt"
	"sync"

	"xvtpm/internal/metrics"
	"xvtpm/internal/tpm"
	"xvtpm/internal/trace"
	"xvtpm/internal/xen"
)

// InstanceID names one vTPM instance within a manager.
type InstanceID uint32

// stateName is the Store key for an instance's state blob.
func stateName(id InstanceID) string { return fmt.Sprintf("vtpm-%08d.state", id) }

// instance is the manager's record of one vTPM.
//
// Each instance carries its own mutex, which owns everything per-instance:
// dispatch (guard admission, engine execution, exchange recording),
// checkpointing, and the binding metadata in info. Commands to different
// instances therefore never contend — the manager's registry lock (regMu) is
// only touched for the map lookup. Lock ordering: mu is never acquired while
// holding Manager.regMu, and vice versa (see DESIGN.md "Locking hierarchy").
type instance struct {
	mu   sync.Mutex
	info InstanceInfo
	eng  tpm.Engine

	// name is the instance's store key, stateName(info.ID), formatted once
	// here rather than on every checkpoint. Immutable.
	name string

	// mirror is the manager's in-memory copy of the instance's protected
	// state, allocated from dom0 arena memory so that it is visible to a
	// dom0 core dump — the honesty requirement of the attack model. For the
	// baseline guard this mirror is plaintext; for the improved guard it is
	// an encrypted envelope.
	mirror []byte

	// exchange is the arena buffer holding the most recent decoded
	// command/response plaintext. The baseline leaves it in place between
	// commands (as the stock manager's heap does); the improved guard has
	// the manager scrub it as soon as the response is finished.
	exchange []byte

	attached bool

	// fence, when non-nil, rejects every dispatch with a redirect to the
	// instance's new owner — set for the source half of a federated
	// ownership handoff (see fence.go). Lock-free so the Dispatch fast path
	// pays one atomic load.
	fence fencePtr

	// ck is the instance's write-behind checkpoint pipeline state; see
	// checkpoint.go for the machinery and DESIGN.md for the durability
	// contract.
	ck ckptState

	// health is the instance's supervised-recovery state machine
	// (Healthy → Degraded → Quarantined); see health.go. Leaf lock.
	health healthState

	// persistMu serializes whole persist passes (snapshot → seal → store →
	// mirror) between the background checkpoint worker and forced
	// checkpoints, so a snapshot taken later can never be overwritten by an
	// earlier one. Ordering: persistMu is acquired before mu, never after.
	persistMu sync.Mutex

	// stateBuf and blobBuf are scratch buffers reused across persists
	// (guarded by persistMu): the serialized plaintext state and its
	// protected envelope. Steady-state checkpoints allocate nothing once
	// both have grown to the instance's working size.
	stateBuf []byte
	blobBuf  []byte

	// Per-instance observability (see observe.go): dispatch/failure
	// counters, an end-to-end latency histogram, and the bounded ring of
	// recent spans. spans is nil when tracing is disabled; both are fixed
	// allocations made at instance creation, never on the dispatch path.
	dispatches metrics.Counter
	failures   metrics.Counter
	lat        *metrics.Histogram
	spans      *trace.Ring
}

// newInstance builds an instance record with its checkpoint pipeline state
// and observability instruments initialized. All creation paths (create,
// revive, adopt) go through here, so this is also where every engine —
// including ones restored from checkpoints, which
// bypass tpm.Config — is attached to the manager's shared signing and
// key-generation pools.
func (m *Manager) newInstance(info InstanceInfo, eng tpm.Engine) *instance {
	eng.AttachPools(m.signPool, m.keyPool)
	inst := &instance{
		info:  info,
		eng:   eng,
		name:  stateName(info.ID),
		lat:   metrics.NewHistogram(nil),
		spans: m.tel.tracer.NewRing(),
	}
	inst.ck.init()
	return inst
}

// Snapshot captures the identity metadata of an instance. Callers already
// holding i.mu must read i.info directly instead.
func (i *instance) Snapshot() InstanceInfo {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.info
}

// bindingFor derives the launch identity of a domain.
func bindingFor(d *xen.Domain) xen.LaunchDigest { return d.Launch() }
