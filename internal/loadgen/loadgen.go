// Package loadgen is the open-loop load harness: it offers traffic to the
// vTPM stack at a configured aggregate arrival rate — the schedule does not
// slow down when the system does — and records latency from each request's
// *intended* send time on that schedule, so queueing delay caused by a slow
// or stalled server is folded into the recorded latency instead of being
// silently omitted (coordinated-omission-safe, after Tene's HdrHistogram
// critique of closed-loop load generators).
//
// The harness simulates large guest fleets (10⁵–10⁶ guests) cheaply: each
// simulated guest has a heavy-tailed arrival rate (bounded Pareto) and an
// operation mix drawn from internal/workload traits, and the resulting
// per-guest Poisson streams are multiplexed onto a small pool of real
// execution slots (manager load sessions or guest clients). Run drives
// those slots on the wall clock (E19, vtpmctl load).
package loadgen

import (
	"fmt"
	"sort"
	"time"

	"xvtpm/internal/workload"
)

// opCount sizes per-op arrays; workload.AllOps is the dense op universe.
var opCount = len(workload.AllOps)

// Mix12 is the default command profile for simulated 1.2 guests: the
// measurement/attestation mix the paper's consolidated-server scenario
// implies, restricted to the four ops the issue tracks.
var Mix12 = workload.Mix{
	workload.OpExtend:    40,
	workload.OpGetRandom: 35,
	workload.OpSeal:      15,
	workload.OpQuote:     10,
}

// Mix20 is the default profile for simulated 2.0 guests (the 2.0 client
// has no Seal; its share moves to Extend/Quote).
var Mix20 = workload.Mix{
	workload.OpExtend:    45,
	workload.OpGetRandom: 35,
	workload.OpQuote:     20,
}

// DefaultSLO is the per-command latency objective every run is judged
// against: generous for RSA-backed ops, tight for the cheap path.
var DefaultSLO = map[workload.Op]time.Duration{
	workload.OpGetRandom: 2 * time.Millisecond,
	workload.OpExtend:    2 * time.Millisecond,
	workload.OpPCRRead:   2 * time.Millisecond,
	workload.OpSeal:      10 * time.Millisecond,
	workload.OpUnseal:    10 * time.Millisecond,
	workload.OpQuote:     25 * time.Millisecond,
	workload.OpSign:      25 * time.Millisecond,
}

// OpStats is the per-command slice of a Report.
type OpStats struct {
	Op       workload.Op
	Count    int64
	Errors   int64
	SLO      time.Duration
	Attained float64 // fraction of completions within SLO
	P50      time.Duration
	P99      time.Duration
	P999     time.Duration
}

// Report is the outcome of one offered-load run.
type Report struct {
	Guests     int
	Slots      int
	Offered    float64       // requested aggregate rate, commands/sec
	Horizon    time.Duration // schedule length
	Scheduled  int64         // arrivals the schedule emitted
	Completed  int64         // responses received (ok or TPM error)
	Errors     int64         // non-ok responses
	WithinSLO  int64         // completions within their op's SLO
	Elapsed    time.Duration // wall time to drain the schedule
	Throughput float64       // Completed / Elapsed
	Goodput    float64       // WithinSLO / Elapsed

	// Open-loop latency digest: completion − intended send time.
	P50, P99, P999, Max time.Duration
	// Lateness digest: actual − intended send time (how far the
	// generator itself fell behind schedule; already inside the
	// latency numbers above, reported separately for diagnosis).
	LatenessP99, LatenessMax time.Duration

	PerOp []OpStats
}

// SLOFraction is WithinSLO/Completed (1 when nothing completed).
func (r *Report) SLOFraction() float64 {
	if r.Completed == 0 {
		return 1
	}
	return float64(r.WithinSLO) / float64(r.Completed)
}

// String renders a one-line summary (vtpmctl top uses it).
func (r *Report) String() string {
	return fmt.Sprintf("offered %.0f/s goodput %.0f/s (%.1f%% in SLO) p99 %v p999 %v lateness-p99 %v",
		r.Offered, r.Goodput, 100*r.SLOFraction(), r.P99, r.P999, r.LatenessP99)
}

// collector accumulates one slot's samples without locking; Run keeps one
// per slot and merges them at the end.
type collector struct {
	lat      [][]int64 // per-op open-loop latencies, ns
	lateness []int64
	errs     []int64 // per-op
}

func newCollector() *collector {
	return &collector{lat: make([][]int64, opCount), errs: make([]int64, opCount)}
}

func (c *collector) record(op workload.Op, lat, late time.Duration, err error) {
	c.lat[op] = append(c.lat[op], int64(lat))
	c.lateness = append(c.lateness, int64(late))
	if err != nil {
		c.errs[op]++
	}
}

func (c *collector) merge(o *collector) {
	for i := range c.lat {
		c.lat[i] = append(c.lat[i], o.lat[i]...)
		c.errs[i] += o.errs[i]
	}
	c.lateness = append(c.lateness, o.lateness...)
}

// pctl is the nearest-rank percentile of a sorted ns slice, matching
// metrics.Recorder semantics.
func pctl(sorted []int64, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p / 100 * float64(len(sorted)))
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return time.Duration(sorted[rank])
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// report assembles the Report from merged samples, judging each op against
// DefaultSLO.
func (c *collector) report(guests, slots int, offered float64, horizon, elapsed time.Duration, scheduled int64) *Report {
	r := &Report{
		Guests: guests, Slots: slots, Offered: offered,
		Horizon: horizon, Scheduled: scheduled, Elapsed: elapsed,
	}
	var all []int64
	for _, op := range workload.AllOps {
		lats := c.lat[op]
		if len(lats) == 0 && c.errs[op] == 0 {
			continue
		}
		objective := DefaultSLO[op]
		s := sortedCopy(lats)
		var within int64
		for _, l := range s {
			if time.Duration(l) <= objective {
				within++
			}
		}
		st := OpStats{
			Op: op, Count: int64(len(s)), Errors: c.errs[op], SLO: objective,
			P50: pctl(s, 50), P99: pctl(s, 99), P999: pctl(s, 99.9),
		}
		if st.Count > 0 {
			st.Attained = float64(within) / float64(st.Count)
		}
		r.PerOp = append(r.PerOp, st)
		r.Completed += st.Count
		r.Errors += st.Errors
		r.WithinSLO += within
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	r.P50, r.P99, r.P999 = pctl(all, 50), pctl(all, 99), pctl(all, 99.9)
	if n := len(all); n > 0 {
		r.Max = time.Duration(all[n-1])
	}
	late := sortedCopy(c.lateness)
	r.LatenessP99 = pctl(late, 99)
	if n := len(late); n > 0 {
		r.LatenessMax = time.Duration(late[n-1])
	}
	if sec := elapsed.Seconds(); sec > 0 {
		r.Throughput = float64(r.Completed) / sec
		r.Goodput = float64(r.WithinSLO) / sec
	}
	return r
}

// SweepPoint is one offered-load step of a rate sweep.
type SweepPoint struct {
	Offered float64
	// Realized is the arrival rate the schedule actually emitted
	// (Scheduled/Horizon). The seeded Poisson streams carry a frozen
	// fluctuation around Offered that does not shrink with reruns — at
	// small schedules it reaches several percent — so accounting sanity
	// checks (goodput cannot exceed arrivals) must compare against
	// Realized, not Offered. 0 means unknown (treat as Offered).
	Realized   float64
	Throughput float64
	Goodput    float64
	P99        time.Duration
	P999       time.Duration
	SLOFrac    float64
}

// kneeGoodputFrac: the sweep is saturated once goodput falls below this
// fraction of offered load.
const kneeGoodputFrac = 0.95

// FindKnee locates the saturation knee of a sweep: the offered rate at
// which goodput drops below 95% of offered, linearly interpolated between
// the last good point and the first saturated one. ok is false while every
// point keeps up (the sweep never found saturation).
func FindKnee(points []SweepPoint) (knee float64, ok bool) {
	for i, p := range points {
		if p.Offered <= 0 {
			continue
		}
		if p.Goodput >= kneeGoodputFrac*p.Offered {
			continue
		}
		if i == 0 {
			return p.Goodput, true
		}
		prev := points[i-1]
		// Interpolate on the goodput/offered ratio crossing 0.95.
		r0 := prev.Goodput / prev.Offered
		r1 := p.Goodput / p.Offered
		if r0 <= r1 { // not a monotone crossing; take the boundary
			return prev.Offered, true
		}
		t := (r0 - kneeGoodputFrac) / (r0 - r1)
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
		return prev.Offered + t*(p.Offered-prev.Offered), true
	}
	return 0, false
}
