package vtpm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"xvtpm/internal/faults"
	"xvtpm/internal/metrics"
	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
)

// Manager errors.
var (
	ErrNoInstance   = errors.New("vtpm: no such instance")
	ErrBound        = errors.New("vtpm: instance already bound")
	ErrUnbound      = errors.New("vtpm: instance not bound to a domain")
	ErrDomHasVTPM   = errors.New("vtpm: domain already has a vTPM")
	ErrBadEnvelope  = errors.New("vtpm: malformed instance envelope")
	ErrShortPayload = errors.New("vtpm: ring payload too short")
)

// ManagerConfig parameterizes a Manager.
type ManagerConfig struct {
	// RSABits sizes instance keys. Zero means tpm.DefaultRSABits.
	RSABits int
	// Profile is the command profile CreateInstance builds engines for.
	// tpm.AnyProfile (the zero value) means tpm.Profile12, the seed tree's
	// only profile, so existing single-profile callers need no migration.
	// CreateInstanceProfile overrides it per instance: one manager runs
	// mixed 1.2/2.0 fleets.
	Profile tpm.Profile
	// Seed, when non-nil, makes instance creation deterministic (instance i
	// gets a seed derived from Seed and its ID).
	Seed []byte
	// EKPoolSize, when positive, pre-generates RSA keys in the background so
	// instance creation (and the key-creation ordinals) are not gated on RSA
	// generation — the manager-side optimization measured in experiments E3
	// and E20. The pool is a tpm.KeyPool shared by every instance; with a
	// manager Seed set it runs sequence-deterministic.
	EKPoolSize int
	// Checkpoint selects when mutated state is persisted: synchronously on
	// every mutating command (CheckpointEager, the default and the stock
	// manager's behaviour), coalesced by a background worker within the
	// MaxDirtyCommands/MaxDirtyInterval window (CheckpointWriteback), or
	// only on explicit Checkpoint/CheckpointAll calls (CheckpointDeferred).
	// See checkpoint.go for the durability contract.
	Checkpoint CheckpointPolicy
	// MaxDirtyCommands bounds how many unpersisted mutations writeback may
	// accumulate before dispatch blocks for the worker. Zero means
	// DefaultMaxDirtyCommands.
	MaxDirtyCommands int
	// MaxDirtyInterval bounds how long a dirty instance may wait for more
	// mutations before the worker persists what it has. Zero means
	// DefaultMaxDirtyInterval.
	MaxDirtyInterval time.Duration
	// Retry bounds the retry loop wrapped around every store operation
	// (see retry.go). The zero value resolves to the package defaults.
	Retry RetryPolicy
	// TraceDepth is the per-instance recent-span ring capacity: zero means
	// trace.DefaultDepth, negative disables command tracing entirely (the
	// latency histograms stay on). See internal/trace.
	TraceDepth int
	// TraceSampleRate records one in every N dispatches on average (0 or 1
	// traces everything). The decision stream is seeded by TraceSeed, so a
	// run is reproducible span-for-span.
	TraceSampleRate int
	TraceSeed       int64
}

// Manager is the dom0 vTPM manager daemon: it owns every instance, its
// persistence and its binding to a guest, and funnels every guest command
// through the configured Guard.
//
// Concurrency model: the manager holds a read-mostly registry (instances,
// byDom) behind regMu, and every instance carries its own mutex owning that
// instance's dispatch, checkpointing and binding. Dispatch for domain A takes
// only a registry read lock plus A's instance lock, so commands to different
// instances execute fully in parallel. regMu and instance locks are never
// held at the same time; see DESIGN.md "Locking hierarchy & concurrency
// model" for the ordering rules.
type Manager struct {
	hv    *xen.Hypervisor
	store Store
	arena *xen.Arena
	guard Guard
	cfg   ManagerConfig
	bus   *xen.MemBus // dom0 memory bus guarding arena buffer writes

	// regMu guards only the registry maps and counters below. It is never
	// held across guard calls, engine execution, or instance-lock
	// acquisition.
	regMu     sync.RWMutex
	instances map[InstanceID]*instance
	byDom     map[xen.DomID]InstanceID
	nextID    InstanceID
	seedCtr   uint64

	// Shared RSA pools (see internal/tpm): signPool runs private-key
	// operations off the dispatch lanes, keyPool pre-generates keys for
	// instance creation (nil when EKPoolSize is zero).
	signPool  *tpm.SignPool
	keyPool   *tpm.KeyPool
	stop      chan struct{}
	closeOnce sync.Once

	// Resolved checkpoint pipeline bounds (see checkpoint.go), fixed at
	// construction so the hot path never re-derives them.
	maxDirty         uint64
	maxDirtyInterval time.Duration

	// Resolved store-I/O retry policy (see retry.go).
	retry RetryPolicy

	// Pipeline counters, aggregated across instances.
	ckptMutations metrics.Counter
	ckptWrites    metrics.Counter
	ckptCoalesced metrics.Counter
	ckptBytes     metrics.Counter
	ckptLag       *metrics.Histogram

	// fenceRejects counts dispatches refused by instance fences (see
	// fence.go) — each one a command provably not executed, redirected to
	// the instance's new owner.
	fenceRejects metrics.Counter

	// signErrors counts dispatches whose deferred signature failed in the
	// pool; the guest saw a TPM failure code, the cause lands here and in
	// the span.
	signErrors metrics.Counter

	// Health counters and population gauges (see health.go).
	ckptRetries          metrics.Counter
	healthDegradations   metrics.Counter
	healthQuarantines    metrics.Counter
	healthPanics         metrics.Counter
	healthDegradedNow    metrics.Gauge
	healthQuarantinedNow metrics.Gauge

	// tel carries the dispatch-path observability instruments: phase
	// latency histograms, command/failure counters and the span tracer
	// (see observe.go).
	tel telemetry

	// Synthetic open-loop session accounting (see loadsession.go):
	// currently open load sessions and commands dispatched through them.
	loadSessions int64
	loadCommands uint64

	// tapMu guards taps: observers of dispatched ring payloads. A
	// compromised dom0 component sits exactly here, which is how the replay
	// attacker captures traffic to re-inject.
	tapMu sync.RWMutex
	taps  []func(from xen.DomID, payload []byte)
}

// OnDispatch registers an observer of every dispatched ring payload. It
// models a dom0-resident component (the backend path is dom0 code); the
// attack harness uses it as the traffic-capture vantage point.
func (m *Manager) OnDispatch(fn func(from xen.DomID, payload []byte)) {
	m.tapMu.Lock()
	m.taps = append(m.taps, fn)
	m.tapMu.Unlock()
}

// notifyTaps delivers one payload to all observers. The common case — no
// taps registered — costs one read lock and no allocation; with taps the
// slice header is snapshotted once under the read lock (appends in
// OnDispatch never mutate a published backing array) and each observer gets
// its own payload copy, since observers may retain it.
func (m *Manager) notifyTaps(from xen.DomID, payload []byte) {
	m.tapMu.RLock()
	taps := m.taps
	m.tapMu.RUnlock()
	if len(taps) == 0 {
		return
	}
	for _, fn := range taps {
		fn(from, append([]byte(nil), payload...))
	}
}

// NewManager creates a manager for one host. arena must allocate from dom0
// memory; guard supplies the access-control policy.
func NewManager(hv *xen.Hypervisor, store Store, arena *xen.Arena, guard Guard, cfg ManagerConfig) *Manager {
	m := &Manager{
		hv:        hv,
		store:     store,
		arena:     arena,
		guard:     guard,
		cfg:       cfg,
		bus:       arena.Bus(),
		instances: make(map[InstanceID]*instance),
		byDom:     make(map[xen.DomID]InstanceID),
		nextID:    1,
		stop:      make(chan struct{}),

		maxDirty:         DefaultMaxDirtyCommands,
		maxDirtyInterval: DefaultMaxDirtyInterval,
		retry:            cfg.Retry.resolve(),
		ckptLag:          metrics.NewHistogram(nil),
		tel:              newTelemetry(cfg),
	}
	m.signPool = tpm.NewSignPool(tpm.SignPoolConfig{Observe: m.observeSign})
	if cfg.MaxDirtyCommands > 0 {
		m.maxDirty = uint64(cfg.MaxDirtyCommands)
	}
	if cfg.MaxDirtyInterval > 0 {
		m.maxDirtyInterval = cfg.MaxDirtyInterval
	}
	if cfg.EKPoolSize > 0 {
		bits := cfg.RSABits
		if bits == 0 {
			bits = tpm.DefaultRSABits
		}
		var poolSeed []byte
		if cfg.Seed != nil {
			poolSeed = append(append([]byte(nil), cfg.Seed...), []byte("|keypool")...)
		}
		m.keyPool = tpm.NewKeyPool(tpm.KeyPoolConfig{Bits: bits, Size: cfg.EKPoolSize, Seed: poolSeed})
	}
	return m
}

// Close stops the manager's background work, first draining every
// instance's pending write-behind checkpoints so an orderly shutdown never
// abandons dirty state. Like CheckpointAll, one wedged instance does not
// block the drain of the rest: every flush-barrier or quarantine failure is
// collected and the aggregate returned with errors.Join, so a shutdown that
// left dirty state behind is never silent. Close is idempotent; only the
// first call drains and reports.
func (m *Manager) Close() error {
	var errs []error
	m.closeOnce.Do(func() {
		m.halt()
		if m.cfg.Checkpoint != CheckpointWriteback {
			return
		}
		m.regMu.RLock()
		type entry struct {
			id   InstanceID
			inst *instance
		}
		insts := make([]entry, 0, len(m.instances))
		for id, inst := range m.instances {
			insts = append(insts, entry{id, inst})
		}
		m.regMu.RUnlock()
		sort.Slice(insts, func(i, j int) bool { return insts[i].id < insts[j].id })
		for _, e := range insts {
			if err := m.flushCheckpoints(e.inst); err != nil {
				errs = append(errs, fmt.Errorf("vtpm: closing instance %d: %w", e.id, err))
			}
		}
	})
	return errors.Join(errs...)
}

// Halt stops the manager's background work — write-behind workers, the
// signing pool, the key pool — without persisting anything: the stop for a
// manager whose store refuses writes, such as a condemned cluster member's.
// Pending write-behind state is abandoned, as in a crash. A later Close is
// a no-op.
func (m *Manager) Halt() { m.closeOnce.Do(m.halt) }

// halt stops the background work; the caller holds closeOnce.
func (m *Manager) halt() {
	close(m.stop)
	// Drain the signing pool first: every in-flight deferred response
	// completes (no guest exchange is lost), later submissions fail fast.
	m.signPool.Close()
	if m.keyPool != nil {
		m.keyPool.Close()
	}
}

// KeyPool exposes the shared key-generation pool (nil when disabled).
func (m *Manager) KeyPool() *tpm.KeyPool { return m.keyPool }

// Guard returns the manager's access-control guard.
func (m *Manager) Guard() Guard { return m.guard }

// Store returns the manager's persistence backend (the attack harness reads
// it to model state-file theft).
func (m *Manager) Store() Store { return m.store }

// lookup resolves an instance by ID under the registry read lock.
func (m *Manager) lookup(id InstanceID) (*instance, error) {
	m.regMu.RLock()
	inst, ok := m.instances[id]
	m.regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoInstance, id)
	}
	return inst, nil
}

// instanceSeedLocked derives a per-instance TPM seed from the manager seed.
// Caller holds regMu.
func (m *Manager) instanceSeedLocked() []byte {
	if m.cfg.Seed == nil {
		return nil
	}
	m.seedCtr++
	s := make([]byte, 0, len(m.cfg.Seed)+8)
	s = append(s, m.cfg.Seed...)
	s = binary.BigEndian.AppendUint64(s, m.seedCtr)
	return s
}

// CreateInstance builds a fresh vTPM instance (new EK, empty PCRs) of the
// manager's configured profile, starts it and persists its initial state. It
// returns the new instance's ID.
func (m *Manager) CreateInstance() (InstanceID, error) {
	return m.CreateInstanceProfile(tpm.AnyProfile)
}

// CreateInstanceProfile is CreateInstance for an explicit command profile,
// overriding the manager's default. tpm.AnyProfile means the configured
// default (which itself defaults to 1.2). One manager freely mixes 1.2 and
// 2.0 instances.
func (m *Manager) CreateInstanceProfile(p tpm.Profile) (InstanceID, error) {
	if p == tpm.AnyProfile {
		p = m.cfg.Profile
	}
	if p == tpm.AnyProfile {
		p = tpm.Profile12
	}
	m.regMu.Lock()
	id := m.nextID
	m.nextID++
	seed := m.instanceSeedLocked()
	m.regMu.Unlock()

	eng, err := tpm.NewEngine(p, tpm.Config{RSABits: m.cfg.RSABits, Seed: seed, Signer: m.signPool, KeyPool: m.keyPool})
	if err != nil {
		return 0, fmt.Errorf("vtpm: creating instance %d: %w", id, err)
	}
	if err := tpm.StartupEngine(eng); err != nil {
		return 0, fmt.Errorf("vtpm: starting instance %d: %w", id, err)
	}
	inst := m.newInstance(InstanceInfo{ID: id, Profile: p}, eng)
	m.regMu.Lock()
	m.instances[id] = inst
	m.regMu.Unlock()
	return m.firstCheckpoint(id, inst)
}

// firstCheckpoint forces the first checkpoint of an instance just registered
// under id. If it fails, the instance is destroyed again before the error is
// returned: no instance may stay registered — on adoption, holding a decrypted
// copy of a guest's vTPM — under an ID its caller never learns.
func (m *Manager) firstCheckpoint(id InstanceID, inst *instance) (InstanceID, error) {
	if err := m.checkpointInstance(inst, true); err != nil {
		m.DestroyInstance(id) //nolint:errcheck // the checkpoint failure is the error to report
		return 0, err
	}
	return id, nil
}

// BindInstance attaches an instance to a domain, recording the domain's
// measured launch identity as the instance's owner identity. The byDom slot
// is reserved under the registry lock first, then the instance's own state
// is updated under its lock — regMu is never held while waiting on an
// instance mutex (which a long-running dispatch may hold).
func (m *Manager) BindInstance(id InstanceID, dom *xen.Domain) error {
	inst, err := m.lookup(id)
	if err != nil {
		return err
	}
	// Fast-fail on an already-bound instance before touching the byDom
	// table; the authoritative re-check happens under inst.mu after the
	// reservation below.
	if bound := inst.Snapshot().BoundDom; bound != 0 {
		return fmt.Errorf("%w: instance %d bound to dom%d", ErrBound, id, bound)
	}
	m.regMu.Lock()
	if _, taken := m.byDom[dom.ID()]; taken {
		m.regMu.Unlock()
		return fmt.Errorf("%w: dom%d", ErrDomHasVTPM, dom.ID())
	}
	m.byDom[dom.ID()] = id // reserve; rolled back below on failure
	m.regMu.Unlock()

	inst.mu.Lock()
	if inst.info.BoundDom != 0 {
		bound := inst.info.BoundDom
		inst.mu.Unlock()
		m.regMu.Lock()
		if m.byDom[dom.ID()] == id {
			delete(m.byDom, dom.ID())
		}
		m.regMu.Unlock()
		return fmt.Errorf("%w: instance %d bound to dom%d", ErrBound, id, bound)
	}
	inst.info.BoundDom = dom.ID()
	inst.info.BoundLaunch = bindingFor(dom)
	inst.mu.Unlock()
	return nil
}

// UnbindInstance detaches an instance from its domain (for shutdown or
// migration). It is a flush barrier: any pending write-behind checkpoints
// are drained before it returns, so the store reflects every command the
// departing domain saw answered.
func (m *Manager) UnbindInstance(id InstanceID) error {
	inst, err := m.lookup(id)
	if err != nil {
		return err
	}
	inst.mu.Lock()
	if inst.info.BoundDom == 0 {
		inst.mu.Unlock()
		return ErrUnbound
	}
	dom := inst.info.BoundDom
	inst.info.BoundDom = 0
	inst.mu.Unlock()
	m.regMu.Lock()
	if m.byDom[dom] == id {
		delete(m.byDom, dom)
	}
	m.regMu.Unlock()
	return m.flushCheckpoints(inst)
}

// DestroyInstance removes an instance, scrubbing its memory mirror and
// deleting its stored state.
func (m *Manager) DestroyInstance(id InstanceID) error {
	m.regMu.Lock()
	inst, ok := m.instances[id]
	if ok {
		delete(m.instances, id)
	}
	m.regMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoInstance, id)
	}
	// Shut the checkpoint pipeline down first: once retired, no in-flight or
	// future persist can rewrite the mirror or re-create the deleted blob.
	m.retireCheckpoints(inst)
	// A destroyed instance leaves the degraded/quarantined population.
	inst.health.mu.Lock()
	m.setGauges(inst.health.state, -1)
	inst.health.mu.Unlock()
	inst.mu.Lock()
	dom := inst.info.BoundDom
	inst.info.BoundDom = 0
	m.bus.Zeroize(inst.mirror)
	m.bus.Zeroize(inst.exchange)
	inst.mu.Unlock()
	if dom != 0 {
		m.regMu.Lock()
		if m.byDom[dom] == id {
			delete(m.byDom, dom)
		}
		m.regMu.Unlock()
	}
	err := m.retryStore(nil, "deleting state", func() error {
		return m.store.Delete(stateName(id))
	})
	if err != nil && !errors.Is(err, ErrNoState) {
		return err
	}
	return nil
}

// Instances returns the IDs of all live instances, sorted.
func (m *Manager) Instances() []InstanceID {
	m.regMu.RLock()
	ids := make([]InstanceID, 0, len(m.instances))
	for id := range m.instances {
		ids = append(ids, id)
	}
	m.regMu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// InstanceInfo returns the identity metadata of one instance.
func (m *Manager) InstanceInfo(id InstanceID) (InstanceInfo, error) {
	inst, err := m.lookup(id)
	if err != nil {
		return InstanceInfo{}, err
	}
	return inst.Snapshot(), nil
}

// InstanceForDomain resolves a domain's bound instance.
func (m *Manager) InstanceForDomain(dom xen.DomID) (InstanceID, bool) {
	m.regMu.RLock()
	defer m.regMu.RUnlock()
	id, ok := m.byDom[dom]
	return id, ok
}

// EncoderFor hands out the guest-side channel codec for a bound instance —
// called by the domain builder (trusted path) when constructing the guest.
func (m *Manager) EncoderFor(id InstanceID) (GuestCodec, error) {
	inst, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	return m.guard.EncoderFor(inst.Snapshot())
}

// ordinalOf extracts the command code from a marshaled TPM command. Both
// profiles frame commands as tag(2) ∥ size(4) ∥ code(4), so one accessor
// serves 1.2 ordinals and 2.0 TPM2_CC_* values; which commands mutate state
// is the engine's own knowledge (Engine.Mutates).
func ordinalOf(cmd []byte) uint32 {
	if len(cmd) < 10 {
		return 0
	}
	return binary.BigEndian.Uint32(cmd[6:10])
}

// Dispatch runs one guest-originated ring payload against the instance
// bound to claimedFrom. The claimedFrom/claimedLaunch pair is whatever the
// delivering code path asserts — the connected backend passes the
// grant-verified truth, while a compromised dom0 component can pass
// anything, which is precisely the spoofing surface the Guard must close.
//
// The exchange — guard admission, engine execution, exchange recording,
// response finishing — runs under the instance's own lock only, so
// concurrent dispatches to different instances proceed in parallel lanes.
// Persistence of mutated state is policy-dependent and never runs inside
// that lock: eager persists synchronously after the lock drops, writeback
// marks the instance dirty for its background worker (blocking first if the
// unpersisted window is already at MaxDirtyCommands), deferred leaves it to
// explicit checkpoints.
func (m *Manager) Dispatch(claimedFrom xen.DomID, claimedLaunch xen.LaunchDigest, payload []byte) ([]byte, error) {
	start := time.Now()
	m.regMu.RLock()
	id, ok := m.byDom[claimedFrom]
	var inst *instance
	if ok {
		inst = m.instances[id]
	}
	m.regMu.RUnlock()
	if inst == nil {
		return nil, fmt.Errorf("%w: dom%d has no vTPM", ErrNoInstance, claimedFrom)
	}
	// A fenced instance has (or is having) its ownership moved to another
	// host: refuse with the redirect before the guard or engine see the
	// command, so a fence rejection guarantees non-execution and the caller
	// may retry against the new owner.
	if fe := inst.fence.Load(); fe != nil {
		m.fenceRejects.Inc()
		health := inst.health.current()
		m.observeDispatch(inst, claimedFrom, 0, health, false, true, start, 0, time.Since(start), 0)
		return nil, fe
	}
	// A quarantined instance is fenced: its dirty state is preserved for
	// supervised recovery, but no new commands may widen the gap between
	// engine and store. The refusal is the observable failure the health
	// model promises instead of a silent drop.
	health := inst.health.current()
	if health == HealthQuarantined {
		m.observeDispatch(inst, claimedFrom, 0, health, false, true, start, 0, time.Since(start), 0)
		return nil, quarantineErr(id, &inst.health)
	}
	m.notifyTaps(claimedFrom, payload)
	m.checkpointGate(inst)
	queueWait := time.Since(start)

	execStart := time.Now()
	out, ordinal, mutated, signWait, signErr, err := m.dispatchInstance(inst, claimedFrom, claimedLaunch, payload)
	execute := time.Since(execStart) - signWait
	if execute < 0 {
		execute = 0
	}
	if err != nil {
		m.observeDispatchSign(inst, claimedFrom, ordinal, health, mutated, true, start, queueWait, execute, 0, signWait, signErr)
		return nil, err
	}
	// Persistence of the mutation is policy-dependent — except for a
	// Degraded instance, which always persists synchronously: background
	// persistence already failed once, so a flaky store is paid for in
	// latency, never in durability.
	var flush time.Duration
	if mutated && (m.cfg.Checkpoint == CheckpointEager || inst.health.current() == HealthDegraded) {
		flushStart := time.Now()
		cerr := m.checkpointInstance(inst, false)
		flush = time.Since(flushStart)
		if cerr != nil {
			m.observeDispatchSign(inst, claimedFrom, ordinal, health, mutated, true, start, queueWait, execute, flush, signWait, signErr)
			return nil, cerr
		}
	}
	m.observeDispatchSign(inst, claimedFrom, ordinal, health, mutated, false, start, queueWait, execute, flush, signWait, signErr)
	return out, nil
}

// dispatchInstance runs the locked portion of one dispatch: guard
// admission, engine execution, exchange recording, response finishing. A
// panic anywhere inside — guard, engine, finisher — is contained here:
// recovered, recorded, and the instance quarantined, so one poisoned
// command or corrupted engine takes down only its own instance, never the
// manager or its siblings.
//
// Signing ordinals with the pool attached execute in two phases: the
// engine's locked phase returns a tpm.Pending, the instance lock is
// released while the pool computes the signature (other commands — from
// this guest or its siblings on the same instance — dispatch in the gap),
// and the lock is retaken to record the exchange and finish the response.
// signWait is the off-lane portion, reported separately so the execute
// histogram keeps measuring lane occupancy.
func (m *Manager) dispatchInstance(inst *instance, claimedFrom xen.DomID, claimedLaunch xen.LaunchDigest, payload []byte) (out []byte, ordinal uint32, mutated bool, signWait time.Duration, signErr bool, err error) {
	locked := true
	inst.mu.Lock()
	defer func() {
		if locked {
			inst.mu.Unlock()
		}
	}()
	defer func() {
		if p := recover(); p != nil {
			if !locked {
				inst.mu.Lock()
				locked = true
			}
			perr := fmt.Errorf("%w: dispatch: %v", ErrInstancePanic, p)
			m.healthPanics.Inc()
			m.notePanic(inst, perr)
			out, mutated, err = nil, false, perr
		}
	}()
	cmd, finish, err := m.guard.AdmitCommand(inst.info, claimedFrom, claimedLaunch, payload)
	if err != nil {
		return nil, 0, false, 0, false, err
	}
	ordinal = ordinalOf(cmd)
	execStart := time.Now()
	resp, pending := inst.eng.ExecuteDeferred(cmd)
	if pending != nil {
		// The engine finished its locked phase; release the lane while the
		// signature is computed off-path.
		inst.mu.Unlock()
		locked = false
		waitStart := time.Now()
		resp = pending.Wait()
		signWait = time.Since(waitStart)
		inst.mu.Lock()
		locked = true
		if serr := pending.Err(); serr != nil {
			signErr = true
			m.signErrors.Inc()
		}
	}
	// The engine work is done on the guest's behalf: charge it to the
	// guest's CPU account, as the hypervisor's scheduler accounting would.
	// For deferred commands that includes the signing time — the pool
	// workers ran for this guest.
	if dom, derr := m.hv.Domain(claimedFrom); derr == nil {
		dom.ChargeCPU(time.Since(execStart).Nanoseconds())
	}
	// Record the decoded exchange in dom0 arena memory: this is the
	// manager's working buffer a core dump would capture.
	m.recordExchangeLocked(inst, cmd, resp)
	mutated = inst.eng.Mutates(ordinal)
	if mutated {
		m.noteMutation(inst)
	}
	out, err = finish(resp)
	if !m.guard.RetainsPlaintext() {
		m.bus.Zeroize(inst.exchange)
	}
	if err != nil {
		return nil, ordinal, mutated, signWait, signErr, err
	}
	return out, ordinal, mutated, signWait, signErr, nil
}

// recordExchangeLocked copies the plaintext command and response into the
// instance's arena exchange buffer. Caller holds inst.mu.
func (m *Manager) recordExchangeLocked(inst *instance, cmd, resp []byte) {
	need := len(cmd) + len(resp)
	if len(inst.exchange) < need {
		m.bus.Zeroize(inst.exchange)
		buf, err := m.arena.Alloc(need)
		if err != nil {
			// Out of arena: fall back to truncated recording rather than
			// failing the command; the honesty buffer is observability, not
			// correctness.
			return
		}
		inst.exchange = buf
	}
	m.bus.Zeroize(inst.exchange)
	n := m.bus.GuardedCopy(inst.exchange, cmd)
	m.bus.GuardedCopy(inst.exchange[n:], resp)
}

// CheckpointAll persists every live instance (used with deferred
// checkpoints and at orderly shutdown). One wedged instance does not block
// persistence of the rest: every failure is collected and the aggregate
// returned with errors.Join.
func (m *Manager) CheckpointAll() error {
	var errs []error
	for _, id := range m.Instances() {
		if err := m.Checkpoint(id); err != nil && !errors.Is(err, ErrNoInstance) {
			errs = append(errs, fmt.Errorf("vtpm: checkpointing instance %d: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// ReviveAll reloads every persisted instance that is not already live —
// the manager-restart recovery path. It returns the IDs revived. A corrupt
// or unrecoverable blob does not abort the sweep: the rest still revive,
// and the failures come back aggregated with errors.Join.
func (m *Manager) ReviveAll() ([]InstanceID, error) {
	var names []string
	err := m.retryStore(nil, "listing state blobs", func() error {
		var lerr error
		names, lerr = m.store.List()
		return lerr
	})
	if err != nil {
		return nil, err
	}
	var revived []InstanceID
	var errs []error
	for _, name := range names {
		var id InstanceID
		if _, err := fmt.Sscanf(name, "vtpm-%08d.state", &id); err != nil {
			continue // unrelated blob
		}
		m.regMu.RLock()
		_, live := m.instances[id]
		m.regMu.RUnlock()
		if live {
			continue
		}
		if err := m.ReviveInstance(id); err != nil {
			errs = append(errs, fmt.Errorf("vtpm: reviving instance %d: %w", id, err))
			continue
		}
		revived = append(revived, id)
	}
	return revived, errors.Join(errs...)
}

// Checkpoint persists one instance on demand, draining any pending
// write-behind work first and surfacing sticky background persist errors.
func (m *Manager) Checkpoint(id InstanceID) error {
	inst, err := m.lookup(id)
	if err != nil {
		return err
	}
	return m.checkpointInstance(inst, true)
}

// ReviveInstance reloads a persisted instance from the store (after a
// manager restart). The instance comes back unbound. Transient store
// failures are retried under the manager's retry policy; a blob whose
// envelope or serialized state does not parse is reported as corrupt — the
// store's bytes are damaged and re-reading them cannot help.
func (m *Manager) ReviveInstance(id InstanceID) error {
	var blob []byte
	err := m.retryStore(nil, "reading state", func() error {
		var gerr error
		blob, gerr = m.store.Get(stateName(id))
		return gerr
	})
	if err != nil {
		return err
	}
	// The plaintext profile+epoch header rides outside the guard envelope:
	// strip and remember it, then recover the envelope with the bare ID
	// (after a restart the binding table is empty).
	declared, epoch, envelope, err := UnwrapCheckpointEpoch(blob)
	if err != nil {
		return faults.Corrupt(fmt.Errorf("vtpm: checkpoint header of instance %d: %w", id, err))
	}
	info := InstanceInfo{ID: id, Profile: declared, Epoch: epoch}
	state, err := m.guard.RecoverState(info, envelope)
	if err != nil {
		return faults.Corrupt(fmt.Errorf("vtpm: state envelope of instance %d: %w", id, err))
	}
	eng, err := restoreDeclaredEngine(declared, state)
	if err != nil {
		return faults.Corrupt(fmt.Errorf("vtpm: serialized state of instance %d: %w", id, err))
	}
	m.regMu.Lock()
	defer m.regMu.Unlock()
	if _, exists := m.instances[id]; exists {
		return fmt.Errorf("vtpm: instance %d already live", id)
	}
	m.instances[id] = m.newInstance(info, eng)
	if id >= m.nextID {
		m.nextID = id + 1
	}
	return nil
}

// DirectClient returns a TPM 1.2 client wired straight to an instance's
// engine, bypassing ring, backend and guard. It exists for the trusted
// provisioning path (pre-boot PCR initialization by the domain builder) and
// for tests. The instance must speak profile 1.2; use DirectClient2 for 2.0
// instances.
func (m *Manager) DirectClient(id InstanceID) (*tpm.Client, error) {
	inst, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	if p := inst.eng.Profile(); p != tpm.Profile12 {
		return nil, fmt.Errorf("%w: instance %d speaks %s, not 1.2", ErrProfileMismatch, id, p)
	}
	return tpm.NewClient(tpm.DirectTransport{TPM: inst.eng}, nil), nil
}

// DirectClient2 is DirectClient for TPM 2.0 instances.
func (m *Manager) DirectClient2(id InstanceID) (*tpm.Client2, error) {
	inst, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	if p := inst.eng.Profile(); p != tpm.Profile20 {
		return nil, fmt.Errorf("%w: instance %d speaks %s, not 2.0", ErrProfileMismatch, id, p)
	}
	return tpm.NewClient2(tpm.DirectTransport{TPM: inst.eng}, nil), nil
}
