package vtpm

import (
	"time"

	"xvtpm/internal/metrics"
	"xvtpm/internal/tpm"
	"xvtpm/internal/trace"
	"xvtpm/internal/xen"
)

// The manager's observability instruments (see DESIGN.md "Observability").
//
// Everything here is always-on and sits directly on the dispatch hot path,
// so the budget is strict: zero allocations per command (locked by
// alloc_guard_test.go) and a handful of atomic adds plus clock reads
// (measured by experiment E14). Latency histograms are fixed-bucket
// (metrics.Histogram), span recording copies a value struct into a
// preallocated per-instance ring (trace.Ring), and the sampling decision is
// one atomic add (trace.Tracer.Sample).

// telemetry bundles the manager-wide instruments. Per-instance instruments
// (span ring, latency histogram, dispatch counters) live on the instance.
type telemetry struct {
	commands metrics.Counter // dispatches reaching an instance lane
	failures metrics.Counter // dispatches that returned an error

	dispatch  *metrics.Histogram // end-to-end Dispatch latency
	queueWait *metrics.Histogram // write-behind backpressure gate wait
	execute   *metrics.Histogram // locked section: guard + engine + finish
	flush     *metrics.Histogram // synchronous checkpoint on the dispatch path
	persist   *metrics.Histogram // full persist pass (worker or barrier)

	// Signing-pool instruments (see internal/tpm/signpool.go): per-job RSA
	// time and queue wait (fed by the pool's Observe hook) and per-dispatch
	// off-lane signature wait.
	signTime  *metrics.Histogram
	signQueue *metrics.Histogram
	signWait  *metrics.Histogram

	tracer *trace.Tracer
}

func newTelemetry(cfg ManagerConfig) telemetry {
	return telemetry{
		dispatch:  metrics.NewHistogram(nil),
		queueWait: metrics.NewHistogram(nil),
		execute:   metrics.NewHistogram(nil),
		flush:     metrics.NewHistogram(nil),
		persist:   metrics.NewHistogram(nil),
		signTime:  metrics.NewHistogram(nil),
		signQueue: metrics.NewHistogram(nil),
		signWait:  metrics.NewHistogram(nil),
		tracer: trace.New(trace.Config{
			Depth:      cfg.TraceDepth,
			SampleRate: cfg.TraceSampleRate,
			Seed:       cfg.TraceSeed,
		}),
	}
}

// observeDispatch records one completed (or refused) dispatch into the
// histograms and, when the sampler keeps it, the instance's span ring.
// Runs outside every lock; never allocates.
func (m *Manager) observeDispatch(inst *instance, from xen.DomID, ordinal uint32,
	health HealthState, mutated, failed bool,
	start time.Time, queueWait, execute, flush time.Duration) {
	m.observeDispatchSign(inst, from, ordinal, health, mutated, failed, start, queueWait, execute, flush, 0, false)
}

// observeDispatchSign is observeDispatch for dispatches that may have spent
// time off-lane waiting for a pooled signature: signWait is that portion
// (not lane occupancy, so not part of execute), signErr marks a pool
// failure the guest saw as a TPM failure code.
func (m *Manager) observeDispatchSign(inst *instance, from xen.DomID, ordinal uint32,
	health HealthState, mutated, failed bool,
	start time.Time, queueWait, execute, flush, signWait time.Duration, signErr bool) {
	m.tel.commands.Inc()
	if failed {
		m.tel.failures.Inc()
	}
	m.tel.dispatch.Record(queueWait + execute + signWait + flush)
	m.tel.queueWait.Record(queueWait)
	m.tel.execute.Record(execute)
	m.tel.flush.Record(flush)
	if signWait > 0 {
		m.tel.signWait.Record(signWait)
	}
	inst.dispatches.Inc()
	if failed {
		inst.failures.Inc()
	}
	if inst.lat != nil {
		inst.lat.Record(queueWait + execute + signWait + flush)
	}
	if inst.spans != nil && m.tel.tracer.Sample() {
		inst.spans.Record(trace.Span{
			Instance:  uint32(inst.info.ID),
			Dom:       uint32(from),
			Ordinal:   ordinal,
			Health:    uint8(health),
			Mutated:   mutated,
			Denied:    failed,
			SignErr:   signErr,
			Start:     start,
			QueueWait: queueWait,
			Execute:   execute,
			SignWait:  signWait,
			Flush:     flush,
		})
	}
}

// observeSign is the signing pool's Observe hook: one call per completed
// RSA job, from pool worker goroutines.
func (m *Manager) observeSign(ev tpm.SignEvent) {
	m.tel.signTime.Record(ev.SignTime)
	m.tel.signQueue.Record(ev.QueueWait)
}

// DispatchStats is a point-in-time digest of the manager's dispatch-path
// latency distributions.
type DispatchStats struct {
	// Commands counts dispatches that reached an instance lane (including
	// refused ones); Failures those that returned an error to the caller.
	Commands uint64
	Failures uint64
	// Phase latency digests: Total = QueueWait + Execute + Flush per
	// command; Persist covers full background/barrier persist passes.
	Total     metrics.HistogramSummary
	QueueWait metrics.HistogramSummary
	Execute   metrics.HistogramSummary
	Flush     metrics.HistogramSummary
	Persist   metrics.HistogramSummary
}

// SignDebug is the signing-pool section of introspection documents: pool
// counters plus the manager-side latency digests.
type SignDebug struct {
	// Workers is the pool's worker count.
	Workers int `json:"workers"`
	// QueueDepth and InFlight are point-in-time gauges.
	QueueDepth int64 `json:"queue_depth"`
	InFlight   int64 `json:"in_flight"`
	// Submitted/Completed/Errors count individual signatures.
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Errors    uint64 `json:"errors"`
	// SingleSigns counts RSA private-key operations the pool performed.
	SingleSigns uint64 `json:"single_signs"`
	// BatchSigns always reads 0: the pool signs every quote on its own.
	// The repository benchmark (stackbench) sums it with SingleSigns to
	// count RSA operations per quote, so the field stays.
	BatchSigns uint64 `json:"batch_signs"`
	// DispatchErrors counts dispatches that surfaced a pool failure to the
	// guest (the xvtpm_sign_errors_total counter).
	DispatchErrors uint64 `json:"dispatch_errors"`
	// SignTime digests per-job RSA time, QueueWait per-job pool wait, and
	// Wait the per-dispatch off-lane signature wait.
	SignTime  metrics.HistogramSummary `json:"sign_time"`
	QueueWait metrics.HistogramSummary `json:"queue_wait"`
	Wait      metrics.HistogramSummary `json:"wait"`
}

// SignDebug snapshots the signing-pool instruments. It never returns nil:
// every manager runs a pool.
func (m *Manager) SignDebug() *SignDebug {
	st := m.signPool.Stats()
	return &SignDebug{
		Workers:        st.Workers,
		QueueDepth:     st.QueueDepth,
		InFlight:       st.InFlight,
		Submitted:      st.Submitted,
		Completed:      st.Completed,
		Errors:         st.Errors,
		SingleSigns:    st.SingleSigns,
		DispatchErrors: m.signErrors.Load(),
		SignTime:       m.tel.signTime.Summarize(),
		QueueWait:      m.tel.signQueue.Summarize(),
		Wait:           m.tel.signWait.Summarize(),
	}
}

// DispatchStats snapshots the dispatch-path histograms.
func (m *Manager) DispatchStats() DispatchStats {
	return DispatchStats{
		Commands:  m.tel.commands.Load(),
		Failures:  m.tel.failures.Load(),
		Total:     m.tel.dispatch.Summarize(),
		QueueWait: m.tel.queueWait.Summarize(),
		Execute:   m.tel.execute.Summarize(),
		Flush:     m.tel.flush.Summarize(),
		Persist:   m.tel.persist.Summarize(),
	}
}

// InstanceStats is the per-instance observability digest vtpmctl's `top`
// renders one row from.
type InstanceStats struct {
	ID InstanceID
	// Profile is the instance's command profile (1.2 or 2.0); mixed fleets
	// carry both under one manager.
	Profile    tpm.Profile
	BoundDom   xen.DomID
	Health     HealthState
	Dispatches uint64
	Failures   uint64
	// PendingDirty is the write-behind window: mutations dispatched but
	// not yet covered by a persist.
	PendingDirty uint64
	// Latency digests this instance's end-to-end dispatch latency.
	Latency metrics.HistogramSummary
	// SpansRecorded counts spans ever recorded for the instance (the ring
	// retains only the newest trace-depth of them).
	SpansRecorded uint64
}

// InstanceStats reports one instance's observability digest.
func (m *Manager) InstanceStats(id InstanceID) (InstanceStats, error) {
	inst, err := m.lookup(id)
	if err != nil {
		return InstanceStats{}, err
	}
	return m.instanceStats(id, inst), nil
}

// InstanceStatsAll reports every live instance's digest, sorted by ID.
func (m *Manager) InstanceStatsAll() []InstanceStats {
	ids := m.Instances()
	out := make([]InstanceStats, 0, len(ids))
	for _, id := range ids {
		inst, err := m.lookup(id)
		if err != nil {
			continue // destroyed between the sweep and the lookup
		}
		out = append(out, m.instanceStats(id, inst))
	}
	return out
}

func (m *Manager) instanceStats(id InstanceID, inst *instance) InstanceStats {
	info := inst.Snapshot()
	s := InstanceStats{
		ID:         id,
		Profile:    info.Profile,
		BoundDom:   info.BoundDom,
		Health:     inst.health.current(),
		Dispatches: inst.dispatches.Load(),
		Failures:   inst.failures.Load(),
	}
	inst.ck.mu.Lock()
	s.PendingDirty = inst.ck.pendingLocked()
	inst.ck.mu.Unlock()
	if inst.lat != nil {
		s.Latency = inst.lat.Summarize()
	}
	if inst.spans != nil {
		s.SpansRecorded = inst.spans.Total()
	}
	return s
}

// Spans returns a copy of an instance's recent-span ring, oldest first
// (empty when tracing is disabled).
func (m *Manager) Spans(id InstanceID) ([]trace.Span, error) {
	inst, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	if inst.spans == nil {
		return nil, nil
	}
	return inst.spans.Snapshot(), nil
}

// RegisterMetrics exposes the manager's instruments in reg under the
// xvtpm_* namespace: dispatch-phase latency histograms, command and
// failure counters, the checkpoint pipeline counters, and the health
// machine's counters and population gauges.
func (m *Manager) RegisterMetrics(reg *metrics.Registry) error {
	type histReg struct {
		name, help string
		h          *metrics.Histogram
	}
	for _, hr := range []histReg{
		{"xvtpm_dispatch_seconds", "End-to-end vTPM command dispatch latency.", m.tel.dispatch},
		{"xvtpm_dispatch_queue_wait_seconds", "Time blocked on write-behind backpressure before dispatch.", m.tel.queueWait},
		{"xvtpm_dispatch_execute_seconds", "Locked dispatch section: guard admission, engine execution, response finishing.", m.tel.execute},
		{"xvtpm_dispatch_flush_seconds", "Synchronous checkpoint time paid on the dispatch path (eager policy or degraded instance).", m.tel.flush},
		{"xvtpm_checkpoint_persist_seconds", "Full persist pass duration (background worker or flush barrier).", m.tel.persist},
		{"xvtpm_sign_seconds", "RSA private-key operation time per signing-pool job.", m.tel.signTime},
		{"xvtpm_sign_queue_wait_seconds", "Time signing jobs waited in the pool before a worker picked them up.", m.tel.signQueue},
		{"xvtpm_sign_wait_seconds", "Off-lane time dispatches spent waiting for a pooled signature.", m.tel.signWait},
	} {
		if err := reg.RegisterHistogram(hr.name, hr.help, hr.h); err != nil {
			return err
		}
	}
	type ctrReg struct {
		name, help string
		c          *metrics.Counter
	}
	for _, cr := range []ctrReg{
		{"xvtpm_commands_total", "Commands dispatched to vTPM instances.", &m.tel.commands},
		{"xvtpm_dispatch_failures_total", "Dispatches that returned an error.", &m.tel.failures},
		{"xvtpm_checkpoint_mutations_total", "State-mutating commands dispatched.", &m.ckptMutations},
		{"xvtpm_checkpoint_writes_total", "Completed state persists.", &m.ckptWrites},
		{"xvtpm_checkpoint_coalesced_total", "Mutations covered by completed persists.", &m.ckptCoalesced},
		{"xvtpm_checkpoint_bytes_total", "Protected envelope bytes handed to the store.", &m.ckptBytes},
		{"xvtpm_store_retries_total", "Store-I/O retry attempts beyond the first.", &m.ckptRetries},
		{"xvtpm_health_degradations_total", "Healthy-to-Degraded transitions.", &m.healthDegradations},
		{"xvtpm_health_quarantines_total", "Transitions into Quarantined.", &m.healthQuarantines},
		{"xvtpm_health_panics_total", "Contained dispatch/worker panics.", &m.healthPanics},
		{"xvtpm_sign_errors_total", "Dispatches whose deferred signature failed in the signing pool.", &m.signErrors},
	} {
		if err := reg.RegisterCounter(cr.name, cr.help, cr.c); err != nil {
			return err
		}
	}
	if err := reg.RegisterGauge("xvtpm_health_degraded_now", "Instances currently Degraded.", &m.healthDegradedNow); err != nil {
		return err
	}
	if err := reg.RegisterGauge("xvtpm_health_quarantined_now", "Instances currently Quarantined.", &m.healthQuarantinedNow); err != nil {
		return err
	}
	if err := reg.RegisterGaugeFunc("xvtpm_load_sessions", "Open synthetic open-loop load sessions.", func() float64 {
		open, _ := m.LoadSessionStats()
		return float64(open)
	}); err != nil {
		return err
	}
	if err := reg.RegisterGaugeFunc("xvtpm_load_commands_total", "Commands dispatched through load sessions.", func() float64 {
		_, cmds := m.LoadSessionStats()
		return float64(cmds)
	}); err != nil {
		return err
	}
	type gaugeReg struct {
		name, help string
		fn         func() float64
	}
	for _, gr := range []gaugeReg{
		{"xvtpm_sign_queue_depth", "Signing jobs waiting in the pool queue.", func() float64 {
			return float64(m.signPool.Stats().QueueDepth)
		}},
		{"xvtpm_sign_inflight", "Signing jobs being computed right now.", func() float64 {
			return float64(m.signPool.Stats().InFlight)
		}},
		{"xvtpm_sign_single_total", "Individual RSA signatures computed by the pool.", func() float64 {
			return float64(m.signPool.Stats().SingleSigns)
		}},
	} {
		if err := reg.RegisterGaugeFunc(gr.name, gr.help, gr.fn); err != nil {
			return err
		}
	}
	return reg.RegisterGaugeFunc("xvtpm_instances", "Live vTPM instances.", func() float64 {
		m.regMu.RLock()
		n := len(m.instances)
		m.regMu.RUnlock()
		return float64(n)
	})
}
