package vtpm

import (
	"fmt"
	"sync"
	"time"

	"xvtpm/internal/metrics"
)

// The write-behind checkpoint pipeline.
//
// Eager persistence put a full SaveState + ProtectState + store.Put + mirror
// rewrite inside the instance lock on every mutating command — correct, but
// the dominant cost of an Extend-heavy stream. This file moves that work off
// the dispatch path: Dispatch marks the instance dirty with a monotonically
// increasing mutation sequence and returns; a per-instance worker snapshots
// state under a short instance-lock window and seals + persists outside it,
// coalescing bursts of mutations into one checkpoint.
//
// Durability contract (writeback): at most MaxDirtyCommands mutations, or
// MaxDirtyInterval of wall time, separate the engine's state from the store.
// The bound on commands is enforced by backpressure — a dispatch that would
// open the window wider blocks until the worker catches up — so a crash
// never loses more than the configured window. Flush barriers at every
// state-handoff point (Unbind, Destroy, Export/Migrate, Checkpoint,
// CheckpointAll, Close) drain the pipeline synchronously, so state never
// leaves an instance behind its engine.
//
// Lock ordering: persistMu → inst.mu → ck.mu. The backpressure gate takes
// only ck.mu and runs before Dispatch acquires inst.mu — the worker needs
// inst.mu to snapshot, so waiting for it under inst.mu would deadlock.

// CheckpointPolicy selects when mutated instance state is persisted.
type CheckpointPolicy int

const (
	// CheckpointEager persists synchronously after every mutating command,
	// before its response returns — the stock manager's behaviour and the
	// E8 ablation baseline.
	CheckpointEager CheckpointPolicy = iota
	// CheckpointWriteback marks the instance dirty and persists from a
	// background worker, coalescing up to MaxDirtyCommands mutations (or
	// MaxDirtyInterval of time) into one checkpoint.
	CheckpointWriteback
	// CheckpointDeferred never persists automatically; callers checkpoint
	// explicitly (Checkpoint / CheckpointAll). The durability floor of the
	// ablation.
	CheckpointDeferred
)

// String returns the policy's config-file spelling.
func (p CheckpointPolicy) String() string {
	switch p {
	case CheckpointEager:
		return "eager"
	case CheckpointWriteback:
		return "writeback"
	case CheckpointDeferred:
		return "deferred"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Write-behind durability window defaults.
const (
	// DefaultMaxDirtyCommands bounds how many mutations may await one
	// coalesced checkpoint. 64 keeps the amortized backpressure stall under
	// ~10% of a saturating Extend stream's dispatch cost while still capping
	// crash loss at well under a millisecond of mutations.
	DefaultMaxDirtyCommands = 64
	// DefaultMaxDirtyInterval bounds how long a dirty instance may wait for
	// more mutations before the worker persists what it has.
	DefaultMaxDirtyInterval = 2 * time.Millisecond
)

// ckptState is the per-instance pipeline state. Its own small mutex guards
// the counters so the backpressure gate and the worker never need the
// instance lock to coordinate.
type ckptState struct {
	mu   sync.Mutex
	cond sync.Cond // broadcast whenever persistSeq advances or the pipeline dies

	dirtySeq   uint64    // mutations dispatched
	persistSeq uint64    // mutations covered by the newest completed persist
	firstDirty time.Time // when the oldest unpersisted mutation landed
	err        error     // sticky background persist error
	running    bool      // worker goroutine started
	destroyed  bool      // instance removed; worker and persists must stop

	kick   chan struct{} // new dirt for the worker (cap 1)
	urgent chan struct{} // skip the coalesce wait: window full or dying (cap 1)
}

func (ck *ckptState) init() {
	ck.cond.L = &ck.mu
	ck.kick = make(chan struct{}, 1)
	ck.urgent = make(chan struct{}, 1)
}

// pendingLocked is the unpersisted-mutation count. Caller holds ck.mu.
func (ck *ckptState) pendingLocked() uint64 { return ck.dirtySeq - ck.persistSeq }

// poke signals a channel without blocking.
func poke(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// CheckpointStats is a point-in-time snapshot of the pipeline's counters,
// aggregated across all instances of the manager.
type CheckpointStats struct {
	// Mutations counts state-mutating commands dispatched.
	Mutations uint64
	// Checkpoints counts completed state persists (including forced ones).
	Checkpoints uint64
	// Coalesced counts mutations covered by those persists; under writeback
	// it can trail Mutations by up to the in-flight dirty window.
	Coalesced uint64
	// BytesWritten totals protected envelope bytes handed to the store.
	BytesWritten uint64
	// Lag summarizes oldest-dirty-mutation → persist-completion latency in
	// a fixed-bucket histogram, so it costs the same after a billion
	// checkpoints as after one.
	Lag metrics.HistogramSummary

	// Recovery counters (see health.go): store-I/O retries performed,
	// Healthy→Degraded and →Quarantined transitions taken, panics
	// contained, and the instances currently in each non-healthy state.
	Retries        uint64
	Degradations   uint64
	Quarantines    uint64
	Panics         uint64
	DegradedNow    int64
	QuarantinedNow int64
}

// CoalesceRatio is mutations persisted per checkpoint — 1.0 under eager,
// approaching MaxDirtyCommands under a saturating writeback stream.
func (s CheckpointStats) CoalesceRatio() float64 {
	if s.Checkpoints == 0 {
		return 0
	}
	return float64(s.Coalesced) / float64(s.Checkpoints)
}

// CheckpointStats reports the manager's checkpoint pipeline counters.
func (m *Manager) CheckpointStats() CheckpointStats {
	return CheckpointStats{
		Mutations:      m.ckptMutations.Load(),
		Checkpoints:    m.ckptWrites.Load(),
		Coalesced:      m.ckptCoalesced.Load(),
		BytesWritten:   m.ckptBytes.Load(),
		Lag:            m.ckptLag.Summarize(),
		Retries:        m.ckptRetries.Load(),
		Degradations:   m.healthDegradations.Load(),
		Quarantines:    m.healthQuarantines.Load(),
		Panics:         m.healthPanics.Load(),
		DegradedNow:    m.healthDegradedNow.Load(),
		QuarantinedNow: m.healthQuarantinedNow.Load(),
	}
}

// checkpointGate applies write-behind backpressure: a dispatch about to add
// a mutation blocks while the unpersisted window is already at
// MaxDirtyCommands, so the store can never fall further behind the engine
// than the configured bound. Called before Dispatch takes the instance lock
// (see the ordering note above); waiting stops if the pipeline wedges on a
// sticky store error (the error surfaces at the next flush barrier instead
// of hanging the guest).
func (m *Manager) checkpointGate(inst *instance) {
	if m.cfg.Checkpoint != CheckpointWriteback {
		return
	}
	ck := &inst.ck
	ck.mu.Lock()
	for ck.err == nil && !ck.destroyed && ck.pendingLocked() >= m.maxDirty {
		poke(ck.urgent)
		ck.cond.Wait()
	}
	ck.mu.Unlock()
}

// noteMutation records one mutating command. Caller holds inst.mu. Under
// writeback it lazily starts the instance's worker and wakes it; the other
// policies only keep the sequence counters honest so explicit checkpoints
// and stats stay meaningful.
func (m *Manager) noteMutation(inst *instance) {
	m.ckptMutations.Inc()
	ck := &inst.ck
	ck.mu.Lock()
	if ck.dirtySeq == ck.persistSeq {
		ck.firstDirty = time.Now()
	}
	ck.dirtySeq++
	pending := ck.pendingLocked()
	start := false
	if m.cfg.Checkpoint == CheckpointWriteback && !ck.running && !ck.destroyed {
		ck.running = true
		start = true
	}
	ck.mu.Unlock()
	if m.cfg.Checkpoint != CheckpointWriteback {
		return
	}
	if start {
		go m.checkpointWorker(inst)
	}
	poke(ck.kick)
	if pending >= m.maxDirty {
		poke(ck.urgent)
	}
}

// checkpointWorker is the per-instance write-behind goroutine: wait for
// dirt, let a burst coalesce, persist, repeat. It exits when the manager
// closes or the instance is destroyed; Close's final drain runs on the
// closing goroutine, not here.
func (m *Manager) checkpointWorker(inst *instance) {
	// Panic containment: a worker panic (a poisoned engine snapshot, a
	// broken guard) quarantines its own instance instead of unwinding a
	// bare goroutine and killing the whole process.
	defer func() {
		if p := recover(); p != nil {
			m.healthPanics.Inc()
			m.notePanic(inst, fmt.Errorf("%w: checkpoint worker: %v", ErrInstancePanic, p))
		}
	}()
	ck := &inst.ck
	for {
		select {
		case <-m.stop:
			return
		case <-ck.kick:
		case <-ck.urgent:
		}
		if !m.coalesceWait(inst) {
			return
		}
		m.persistPending(inst, false) //nolint:errcheck // sticky in ck.err; surfaced at the next flush barrier
	}
}

// coalesceWait holds the worker back until the dirty window is worth a
// checkpoint: MaxDirtyCommands mutations accumulated, or MaxDirtyInterval
// elapsed since the oldest one. An urgent poke (window full under
// backpressure, flush, destroy) cuts the wait short. Returns false when the
// worker should exit instead of persisting.
func (m *Manager) coalesceWait(inst *instance) bool {
	ck := &inst.ck
	for {
		ck.mu.Lock()
		pending := ck.pendingLocked()
		dead := ck.destroyed
		elapsed := time.Since(ck.firstDirty)
		ck.mu.Unlock()
		if dead {
			return false
		}
		if pending == 0 {
			// A flush barrier persisted on our behalf; nothing to do.
			return true
		}
		if pending >= m.maxDirty || elapsed >= m.maxDirtyInterval {
			return true
		}
		timer := time.NewTimer(m.maxDirtyInterval - elapsed)
		select {
		case <-m.stop:
			timer.Stop()
			return false
		case <-ck.urgent:
			timer.Stop()
			return true
		case <-timer.C:
		}
	}
}

// persistPending runs one full persist pass: snapshot the engine under a
// short instance-lock window, then seal and write outside it, so dispatches
// to the instance overlap the expensive crypto and store I/O. force persists
// even when no mutation is pending (explicit-Checkpoint semantics); without
// it a clean instance is a no-op. Both the worker and every flush barrier
// funnel through here, serialized by persistMu.
func (m *Manager) persistPending(inst *instance, force bool) error {
	inst.persistMu.Lock()
	defer inst.persistMu.Unlock()
	ck := &inst.ck

	// A quarantined instance persists only under supervision: background
	// and barrier passes report the sticky failure instead of hammering a
	// store already known to be broken; an explicit Checkpoint (force) is
	// the supervised recovery attempt.
	if !force && inst.health.current() == HealthQuarantined {
		ck.mu.Lock()
		err := ck.err
		ck.mu.Unlock()
		if err == nil {
			err = quarantineErr(inst.info.ID, &inst.health)
		}
		return err
	}

	inst.mu.Lock()
	ck.mu.Lock()
	seq := ck.dirtySeq
	covered := ck.pendingLocked()
	firstDirty := ck.firstDirty
	dead := ck.destroyed
	ck.mu.Unlock()
	if dead || (covered == 0 && !force) {
		inst.mu.Unlock()
		return nil
	}
	passStart := time.Now()
	defer func() { m.tel.persist.Record(time.Since(passStart)) }()
	inst.stateBuf = inst.eng.AppendState(inst.stateBuf[:0])
	info := inst.info
	inst.mu.Unlock()

	// Every stored blob opens with the plaintext profile header (see
	// profile.go); the guard envelope follows it. Writing the header into
	// blobBuf first keeps the steady-state persist loop allocation-free.
	blob, err := m.guard.ProtectState(info,
		appendCheckpointHeader(inst.blobBuf[:0], info.Profile, info.Epoch), inst.stateBuf)
	inst.blobBuf = blob
	if err != nil {
		err = fmt.Errorf("vtpm: protecting state of instance %d: %w", info.ID, err)
	}
	if err == nil {
		err = m.retryStore(inst, "persisting state", func() error {
			return m.store.Put(inst.name, blob)
		})
	}
	if err == nil {
		err = m.mirrorBlob(inst, blob)
	}
	if !m.guard.RetainsPlaintext() {
		// The serialized plaintext state (keys included) has served its
		// purpose; don't let it linger in the scratch buffer between
		// checkpoints.
		zeroize(inst.stateBuf)
	}

	ck.mu.Lock()
	if err != nil {
		ck.err = err
	} else {
		m.ckptWrites.Inc()
		m.ckptBytes.Add(uint64(len(blob)))
		if seq > ck.persistSeq {
			ck.persistSeq = seq
			m.ckptCoalesced.Add(covered)
			m.ckptLag.Record(time.Since(firstDirty))
		}
	}
	ck.cond.Broadcast()
	ck.mu.Unlock()
	// Advance the health machine on every completed pass: success heals,
	// exhausted retries degrade, repeated or non-transient failure
	// quarantines (see health.go).
	m.notePersistOutcome(inst, err)
	return err
}

// mirrorBlob rewrites the instance's dom0 arena mirror with the new blob.
// Racing destroys are re-checked under the instance lock so a persist that
// lost the race never resurrects scrubbed arena memory.
func (m *Manager) mirrorBlob(inst *instance, blob []byte) error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	inst.ck.mu.Lock()
	dead := inst.ck.destroyed
	inst.ck.mu.Unlock()
	if dead {
		return nil
	}
	if len(inst.mirror) < len(blob) {
		m.bus.Zeroize(inst.mirror)
		buf, err := m.arena.Alloc(len(blob))
		if err != nil {
			return err
		}
		inst.mirror = buf
	}
	m.bus.Zeroize(inst.mirror)
	m.bus.GuardedCopy(inst.mirror, blob)
	return nil
}

// checkpointInstance persists an instance now and reports the result,
// surfacing (and clearing, once recovered) any sticky error an earlier
// background persist left behind. force distinguishes explicit Checkpoint
// calls — which always rewrite the blob — from flush barriers, which only
// need the store caught up.
func (m *Manager) checkpointInstance(inst *instance, force bool) error {
	err := m.persistPending(inst, force)
	ck := &inst.ck
	ck.mu.Lock()
	if err == nil {
		// A successful persist covers everything earlier failures would
		// have written; the pipeline is healthy again.
		ck.err = nil
	} else if ck.err == nil {
		ck.err = err
	}
	ck.mu.Unlock()
	return err
}

// flushCheckpoints is the flush barrier state-handoff points cross before
// instance state leaves the manager (unbind, export, shutdown): under
// writeback it drains the pending window synchronously, under the other
// policies the store is by definition as current as the policy promises and
// it is a no-op.
func (m *Manager) flushCheckpoints(inst *instance) error {
	if m.cfg.Checkpoint != CheckpointWriteback {
		return nil
	}
	return m.checkpointInstance(inst, false)
}

// retireCheckpoints marks the pipeline dead for a destroyed instance, wakes
// its worker (which exits) and any gated dispatchers, and waits out an
// in-flight persist so the caller can scrub buffers knowing nothing will
// rewrite them.
func (m *Manager) retireCheckpoints(inst *instance) {
	ck := &inst.ck
	ck.mu.Lock()
	ck.destroyed = true
	ck.cond.Broadcast()
	ck.mu.Unlock()
	poke(ck.urgent)
	poke(ck.kick)
	inst.persistMu.Lock() // drain any in-flight persist pass
	zeroize(inst.stateBuf)
	zeroize(inst.blobBuf)
	inst.persistMu.Unlock()
}

// zeroize clears a heap scratch buffer in place.
func zeroize(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
