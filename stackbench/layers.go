package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"xvtpm"
	"xvtpm/internal/cluster"
	"xvtpm/internal/metrics"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
	"xvtpm/internal/xenstore"
)

// hostCounters is one host's public stats getters, read at one instant.
type hostCounters struct {
	name       string
	disp       vtpm.DispatchStats
	sign       vtpm.SignDebug
	ckpt       vtpm.CheckpointStats
	denied     uint64
	cacheHits  uint64
	cacheMiss  uint64
	admitSum   float64 // ns
	admitCount uint64
	rules      int
	audit      int
	ring       metrics.HistogramSnapshot
	sent       uint64
	logRecs    uint64
	logCommits uint64
	// Leak sentinels, read at the end of a run only.
	guests, domains, instances, xsNodes int
}

// counters is the whole system's stats getters at one instant.
type counters struct {
	hosts   []hostCounters
	cluster *cluster.Stats
}

// readHost reads one host's counters; final adds the leak sentinels, which
// walk the xenstore tree.
func readHost(h *xvtpm.Host, final bool) hostCounters {
	c := hostCounters{
		name: h.Name,
		disp: h.Manager.DispatchStats(),
		ckpt: h.Manager.CheckpointStats(),
		ring: h.TransportMetrics().RingBatch.Snapshot(),
		sent: h.HV.EventChannels().SentNotifies(),
	}
	if sd := h.Manager.SignDebug(); sd != nil {
		c.sign = *sd
	}
	if ig, ok := h.ImprovedGuard(); ok {
		a := ig.AdmissionStats()
		c.denied = a.DeniedRate + a.DeniedChannel + a.DeniedPolicy
		c.cacheHits, c.cacheMiss = a.CacheHits, a.CacheMisses
		c.admitSum, c.admitCount = sumOf(a.Latency), a.Latency.Count
		c.rules = ig.Policy().Len()
		c.audit = ig.Audit().Len()
	}
	if ls, ok := h.LogStore(); ok {
		st := ls.Stats()
		c.logRecs, c.logCommits = st.BatchRecords, st.Commits
	}
	if final {
		c.guests = len(h.Guests())
		c.domains = len(h.HV.Domains()) - 1 // not dom0
		c.instances = len(h.Manager.Instances())
		c.xsNodes = xsNodes(h.XS, "/")
	}
	return c
}

// xsNodes counts the nodes of the xenstore subtree at path.
func xsNodes(xs *xenstore.Store, path string) int {
	kids, err := xs.List(xen.Dom0, xenstore.NoTxn, path)
	if err != nil {
		return 0
	}
	n := 1
	for _, k := range kids {
		child := path + "/" + k
		if path == "/" {
			child = "/" + k
		}
		n += xsNodes(xs, child)
	}
	return n
}

func readHosts(hs []*xvtpm.Host, final bool) counters {
	var c counters
	for _, h := range hs {
		c.hosts = append(c.hosts, readHost(h, final))
	}
	return c
}

// sumOf recovers a histogram's sum of samples (ns) from its digest.
func sumOf(s metrics.HistogramSummary) float64 { return float64(s.Mean) * float64(s.Count) }

// delta is the difference of one summed quantity between two readings.
func delta(b, a counters, f func(h hostCounters) float64) float64 {
	var d float64
	for i := range a.hosts {
		d += f(a.hosts[i]) - f(b.hosts[i])
	}
	return d
}

func total(c counters, f func(h hostCounters) float64) float64 {
	var s float64
	for _, h := range c.hosts {
		s += f(h)
	}
	return s
}

// ratio is a/b, or 0 when b is 0: a layer that did no work reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// meanDelta is the mean of the samples a histogram took between two readings,
// in µs. Digest means are whole nanoseconds, so a layer that took only zero
// samples can read a hair below zero; it reads 0.
func meanDelta(b, a counters, f func(h hostCounters) metrics.HistogramSummary) float64 {
	sum := delta(b, a, func(h hostCounters) float64 { return sumOf(f(h)) })
	n := delta(b, a, func(h hostCounters) float64 { return float64(f(h).Count) })
	return math.Max(0, ratio(sum, n)/1e3)
}

// tracedFigures is everything the per-layer metrics are computed from.
type tracedFigures struct {
	ops     int           // ops in the traced phase
	quotes  int           // quotes issued in the traced phase
	before  counters      // at the start of the traced phase
	after   counters      // at its end, with leak sentinels
	rep     traceReport   // the traced phase's spans
	wallA   time.Duration // untraced phase wall time
	wallB   time.Duration // traced phase wall time
	procA   [2]procSample // around the untraced phase
	opsA    int
	thirdsA [2]time.Duration
}

// perLayer computes every per-layer metric. A layer a workload bypasses reads
// 0 on it.
func perLayer(f tracedFigures) map[string]metric {
	b, a := f.before, f.after
	ops := float64(f.ops)
	cmds := delta(b, a, func(h hostCounters) float64 { return float64(h.disp.Commands) })
	mutations := delta(b, a, func(h hostCounters) float64 { return float64(h.ckpt.Mutations) })
	writes := delta(b, a, func(h hostCounters) float64 { return float64(h.ckpt.Checkpoints) })
	guests := total(a, func(h hostCounters) float64 { return float64(h.guests) })
	hits := delta(b, a, func(h hostCounters) float64 { return float64(h.cacheHits) })
	misses := delta(b, a, func(h hostCounters) float64 { return float64(h.cacheMiss) })
	ringFrames := delta(b, a, func(h hostCounters) float64 { return float64(h.ring.Sum) })
	ringDrains := delta(b, a, func(h hostCounters) float64 { return float64(h.ring.Count) })
	signs := delta(b, a, func(h hostCounters) float64 { return float64(h.sign.SingleSigns + h.sign.BatchSigns) })
	pa, pb := f.procA[0], f.procA[1]
	opsA := float64(f.opsA)

	m := map[string]metric{
		"vtpm.transport.rtt_p50_us":   {f.rep.rttP50, "us"},
		"vtpm.transport.self_mean_us": {f.rep.txSelf, "us"},
		"vtpm.transport.cmds_per_op":  {f.rep.count[kTransmit], "count"},
		"ring.frames_per_drain":       {ratio(ringFrames, ringDrains), "count"},
		"xen.evtchn.notifies_per_cmd": {ratio(delta(b, a, func(h hostCounters) float64 { return float64(h.sent) }), cmds), "count"},

		"vtpm.dispatch.mean_us":            {meanDelta(b, a, func(h hostCounters) metrics.HistogramSummary { return h.disp.Total }), "us"},
		"vtpm.dispatch.queue_wait_mean_us": {meanDelta(b, a, func(h hostCounters) metrics.HistogramSummary { return h.disp.QueueWait }), "us"},
		"vtpm.dispatch.execute_mean_us":    {meanDelta(b, a, func(h hostCounters) metrics.HistogramSummary { return h.disp.Execute }), "us"},
		"vtpm.dispatch.sign_wait_mean_us":  {ratio(delta(b, a, func(h hostCounters) float64 { return sumOf(h.sign.Wait) }), cmds) / 1e3, "us"},
		"vtpm.dispatch.flush_mean_us":      {meanDelta(b, a, func(h hostCounters) metrics.HistogramSummary { return h.disp.Flush }), "us"},
		"vtpm.dispatch.failures":           {delta(b, a, func(h hostCounters) float64 { return float64(h.disp.Failures) }), "count"},

		"core.guard.admit_mean_us": {ratio(
			delta(b, a, func(h hostCounters) float64 { return h.admitSum }),
			delta(b, a, func(h hostCounters) float64 { return float64(h.admitCount) })) / 1e3, "us"},
		"core.guard.admit_cache_hit_frac": {ratio(hits, hits+misses), "fraction"},
		"core.guard.denied":               {delta(b, a, func(h hostCounters) float64 { return float64(h.denied) }), "count"},
		"core.policy.rules_per_guest":     {ratio(total(a, func(h hostCounters) float64 { return float64(h.rules) }), guests), "count"},
		"core.audit.records_per_op":       {ratio(delta(b, a, func(h hostCounters) float64 { return float64(h.audit) }), ops), "count"},

		"tpm.signpool.sign_mean_us":       {meanDelta(b, a, func(h hostCounters) metrics.HistogramSummary { return h.sign.SignTime }), "us"},
		"tpm.signpool.queue_wait_mean_us": {meanDelta(b, a, func(h hostCounters) metrics.HistogramSummary { return h.sign.QueueWait }), "us"},
		"tpm.signpool.rsa_ops_per_quote":  {ratio(signs, float64(f.quotes)), "count"},
		"tpm.signpool.errors":             {delta(b, a, func(h hostCounters) float64 { return float64(h.sign.Errors + h.sign.DispatchErrors) }), "count"},

		"vtpm.checkpoint.writes_per_mutation": {ratio(writes, mutations), "count"},
		"vtpm.checkpoint.bytes_per_write":     {ratio(delta(b, a, func(h hostCounters) float64 { return float64(h.ckpt.BytesWritten) }), writes), "bytes"},
		"vtpm.checkpoint.persist_mean_us":     {meanDelta(b, a, func(h hostCounters) metrics.HistogramSummary { return h.disp.Persist }), "us"},
		"store.logstore.records_per_commit": {ratio(
			delta(b, a, func(h hostCounters) float64 { return float64(h.logRecs) }),
			delta(b, a, func(h hostCounters) float64 { return float64(h.logCommits) })), "count"},

		"cluster.migrate_mean_us":   {f.rep.kindMean[kMigrate], "us"},
		"cluster.first_cmd_mean_us": {f.rep.kindMean[kSessionExtend], "us"},
		"cluster.blackout_p99_us":   {0, "us"},
		"cluster.retries":           {0, "count"},
		"cluster.aborts":            {0, "count"},

		"xenstore.nodes_per_guest": {ratio(total(a, func(h hostCounters) float64 { return float64(h.xsNodes) }), guests), "count"},
		"xen.domains_live":         {total(a, func(h hostCounters) float64 { return float64(h.domains) }), "count"},
		"vtpm.instances_live":      {total(a, func(h hostCounters) float64 { return float64(h.instances) }), "count"},

		"attest.verify_mean_us": {f.rep.kindMean[kVerify], "us"},

		"go.allocs_per_op":      {ratio(float64(pb.mallocs-pa.mallocs), opsA), "count"},
		"go.alloc_bytes_per_op": {ratio(float64(pb.allocBytes-pa.allocBytes), opsA), "bytes"},
		"go.gc_cycles":          {float64(pb.gcs - pa.gcs), "count"},
		"proc.cpu_us_per_op":    {ratio(float64(pb.cpu-pa.cpu), opsA) / 1e3, "us"},
		"host.steal_frac":       {ratio(float64(pb.steal-pa.steal), float64(pb.total-pa.total)), "fraction"},

		"bench.trace_overhead_frac":  {ratio(float64(f.wallB)/ops, float64(f.wallA)/opsA) - 1, "fraction"},
		"bench.p50_drift":            {ratio(float64(f.thirdsA[1]), float64(f.thirdsA[0])), "ratio"},
		"bench.client_self_mean_us":  {f.rep.self[kOp], "us"},
		"bench.manager_spans_joined": {ratio(float64(f.rep.joined), f.rep.count[kTransmit]*ops), "fraction"},
	}
	if cs := a.cluster; cs != nil {
		bs := b.cluster
		m["cluster.blackout_p99_us"] = metric{us(cs.Blackout.Quantile(0.99)), "us"}
		m["cluster.retries"] = metric{float64(cs.MigRetried - bs.MigRetried), "count"}
		m["cluster.aborts"] = metric{float64(cs.MigAborted - bs.MigAborted), "count"}
	}
	return m
}

// printSentinels writes the end-of-run leak sentinels per host.
func printSentinels(w io.Writer, c counters) {
	for _, h := range c.hosts {
		fmt.Fprintf(w, "sentinel %s: guests %d, domains %d, instances %d, policy rules %d, xenstore nodes %d\n",
			h.name, h.guests, h.domains, h.instances, h.rules, h.xsNodes)
	}
}
