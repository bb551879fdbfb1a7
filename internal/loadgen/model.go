package loadgen

import (
	"errors"
	"sort"
	"time"

	"xvtpm/internal/workload"
)

// ModelConfig parameterizes a deterministic virtual-time run: the same
// arrival schedule as Run, replayed through a modeled G/G/c queue instead
// of real dispatches. No wall clock, no goroutines, no map iteration —
// identical numbers on every machine, which is what lets the capacity
// rows sit in BENCH_*.json behind the regression gate.
type ModelConfig struct {
	Guests   int
	Offered  float64 // commands/sec
	Duration time.Duration
	Seed     int64
	Alpha    float64
	MaxSkew  float64
	Mix      workload.Mix // nil = Mix12

	Servers int                           // modeled dispatch lanes (c)
	Service map[workload.Op]time.Duration // per-op service time
	// ServiceJitter widens each service time by a deterministic
	// ±fraction (0.2 = ±20%), so tails are not artificially flat.
	ServiceJitter float64

	// Sign-pool modeling. When SignWorkers > 0, an op with a SignCost
	// entry pays only its prep share (service − sign cost) on the
	// dispatch lane; the private-key operation is handed to one of
	// SignWorkers dedicated sign lanes, mirroring the deferred-execution
	// split in vtpm dispatch.
	SignWorkers int
	SignCost    map[workload.Op]time.Duration

	// StallAt/StallFor freeze every server for a window — the scenario
	// the coordinated-omission test exercises: an open-loop recorder
	// must surface the stall in its tail, a closed-loop one hides it.
	StallAt, StallFor time.Duration

	SLO       map[workload.Op]time.Duration
	MaxEvents int64

	// Trace, when non-nil, replaces the synthetic guest schedule.
	Trace []TraceEvent
}

// TraceEvent is one explicit arrival in a scenario trace.
type TraceEvent struct {
	At    time.Duration
	Guest int
	Op    workload.Op
}

// defaultService models the measured shape of the dispatch path (cheap
// symmetric ops vs RSA-backed seal/quote) without claiming any machine's
// absolute numbers; scenarios override it.
var defaultService = map[workload.Op]time.Duration{
	workload.OpGetRandom: 6 * time.Microsecond,
	workload.OpExtend:    5 * time.Microsecond,
	workload.OpPCRRead:   5 * time.Microsecond,
	workload.OpSeal:      60 * time.Microsecond,
	workload.OpUnseal:    60 * time.Microsecond,
	workload.OpQuote:     130 * time.Microsecond,
	workload.OpSign:      120 * time.Microsecond,
}

// RunModel drains the schedule through the modeled queue and reports both
// the open-loop digest (latency from intended send) and the closed-loop
// comparison digest (latency from actual send) over the same completions.
func RunModel(cfg ModelConfig) (*Report, error) {
	if cfg.Guests <= 0 && cfg.Trace == nil {
		return nil, errors.New("loadgen: model needs Guests or a Trace")
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 4
	}
	if cfg.Mix == nil {
		cfg.Mix = Mix12
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 2_000_000
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.Trace == nil {
		if cfg.Offered <= 0 {
			return nil, errors.New("loadgen: model needs a positive Offered rate")
		}
		if want := cfg.Offered * cfg.Duration.Seconds(); want > float64(cfg.MaxEvents) {
			cfg.Duration = time.Duration(float64(cfg.MaxEvents) / cfg.Offered * 1e9)
		}
	}
	service := cfg.Service
	if service == nil {
		service = defaultService
	}
	slo := cfg.SLO
	if slo == nil {
		slo = DefaultSLO
	}

	var sched *schedule
	if cfg.Trace != nil {
		evs := make([]event, len(cfg.Trace))
		for i, t := range cfg.Trace {
			evs[i] = event{at: int64(t.At), guest: int32(t.Guest), op: t.Op}
		}
		sched = newTraceSchedule(evs, cfg.Duration)
	} else {
		rates := rateTable(cfg.Guests, cfg.Seed, cfg.Alpha, cfg.MaxSkew, cfg.Offered)
		ids := make([]int32, cfg.Guests)
		for i := range ids {
			ids[i] = int32(i)
		}
		sched = newSchedule(ids, rates, cfg.Mix, cfg.Seed, cfg.Duration)
	}

	// Per-op service time in ns, indexed densely for the hot loop.
	svcNs := make([]int64, opCount)
	for _, op := range workload.AllOps {
		d := service[op]
		if d == 0 {
			d = defaultService[op]
		}
		svcNs[op] = int64(d)
	}
	signNs := make([]int64, opCount)
	signEnabled := cfg.SignWorkers > 0 && len(cfg.SignCost) > 0
	if signEnabled {
		for op, d := range cfg.SignCost {
			if int(op) < len(signNs) && d > 0 {
				signNs[op] = int64(d)
			}
		}
	}
	var signJobs []signJob

	free := make([]int64, cfg.Servers) // per-server next-free virtual time
	stallStart, stallEnd := int64(cfg.StallAt), int64(cfg.StallAt+cfg.StallFor)
	jrng := splitmix{s: uint64(cfg.Seed)*0x100000001b3 + 0xcbf29ce484222325}

	col := newCollector()
	var lastDone int64
	for {
		ev, ok := sched.next()
		if !ok {
			break
		}
		// Earliest-free server takes the command (c is small; linear scan).
		srv := 0
		for i := 1; i < len(free); i++ {
			if free[i] < free[srv] {
				srv = i
			}
		}
		start := ev.at
		if free[srv] > start {
			start = free[srv]
		}
		if cfg.StallFor > 0 && start >= stallStart && start < stallEnd {
			start = stallEnd
		}
		svc := svcNs[ev.op]
		if cfg.ServiceJitter > 0 {
			j := 1 + cfg.ServiceJitter*(2*jrng.float64()-1)
			svc = int64(float64(svc) * j)
			if svc < 1 {
				svc = 1
			}
		}
		if signEnabled && signNs[ev.op] > 0 {
			// Deferred execution: the dispatch lane pays prep only and
			// frees up; the signature completes on a sign lane (second
			// pass below), which is when the response — and the
			// latency — lands.
			prep := svc - signNs[ev.op]
			if prep < 1 {
				prep = 1
			}
			free[srv] = start + prep
			signJobs = append(signJobs, signJob{
				ready: start + prep, at: ev.at, start: start, op: ev.op,
			})
			continue
		}
		done := start + svc
		free[srv] = done
		if done > lastDone {
			lastDone = done
		}
		// Open-loop: from intended arrival. Closed-loop comparator: from
		// actual issue (what a generator that waits for the server would
		// have measured for the very same completion).
		col.record(ev.op, time.Duration(done-ev.at), time.Duration(start-ev.at), nil)
		col.closed = append(col.closed, done-start)
	}

	if len(signJobs) > 0 {
		if d := runSignLanes(signJobs, cfg.SignWorkers, signNs, col); d > lastDone {
			lastDone = d
		}
	}

	elapsed := cfg.Duration
	if v := time.Duration(lastDone); v > elapsed {
		elapsed = v
	}
	return col.report(cfg.Guests, cfg.Servers, cfg.Offered, cfg.Duration, elapsed, sched.emitted, slo), nil
}

// signJob is one deferred private-key operation waiting for a sign lane.
type signJob struct {
	ready int64 // prep done on the dispatch lane, digest enqueued
	at    int64 // intended arrival (open-loop latency anchor)
	start int64 // actual dispatch start (closed-loop anchor)
	op    workload.Op
}

// runSignLanes drains the deferred sign jobs, in ready order, through the
// modeled sign pool: each job takes the earliest-free sign lane, and its
// completion is when the response lands. Returns the last completion time.
func runSignLanes(jobs []signJob, workers int, signNs []int64, col *collector) int64 {
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].ready < jobs[j].ready })
	lanes := make([]int64, workers)
	var lastDone int64
	for _, jb := range jobs {
		lane := 0
		for l := 1; l < len(lanes); l++ {
			if lanes[l] < lanes[lane] {
				lane = l
			}
		}
		begin := jb.ready
		if lanes[lane] > begin {
			begin = lanes[lane]
		}
		done := begin + signNs[jb.op]
		lanes[lane] = done
		if done > lastDone {
			lastDone = done
		}
		col.record(jb.op, time.Duration(done-jb.at), time.Duration(jb.start-jb.at), nil)
		col.closed = append(col.closed, done-jb.start)
	}
	return lastDone
}

// ModelCapacity is the modeled queue's theoretical throughput ceiling for
// a mix: servers / mean service time. Sweeps anchor their rate ladders on
// it so the knee always sits inside the sweep.
func ModelCapacity(servers int, mix workload.Mix, service map[workload.Op]time.Duration) float64 {
	if servers <= 0 {
		servers = 4
	}
	if mix == nil {
		mix = Mix12
	}
	if service == nil {
		service = defaultService
	}
	var wsum, tsum float64
	for _, op := range workload.AllOps {
		w := float64(mix[op])
		if w <= 0 {
			continue
		}
		d := service[op]
		if d == 0 {
			d = defaultService[op]
		}
		wsum += w
		tsum += w * d.Seconds()
	}
	if tsum == 0 {
		return 0
	}
	return float64(servers) * wsum / tsum
}

// ModelCapacitySign is ModelCapacity for a run with a modeled sign pool:
// dispatch lanes pay only the prep share (service − sign cost) of
// offloaded ops, and the sign lanes bound those ops separately. The
// returned ceiling is the tighter of the two, which sweep ladders anchor on.
func ModelCapacitySign(servers, signWorkers int, mix workload.Mix, service, signCost map[workload.Op]time.Duration) float64 {
	if signWorkers <= 0 || len(signCost) == 0 {
		return ModelCapacity(servers, mix, service)
	}
	if servers <= 0 {
		servers = 4
	}
	if mix == nil {
		mix = Mix12
	}
	if service == nil {
		service = defaultService
	}
	var wsum, prepSum, signSum float64
	for _, op := range workload.AllOps {
		w := float64(mix[op])
		if w <= 0 {
			continue
		}
		d := service[op]
		if d == 0 {
			d = defaultService[op]
		}
		prep := d.Seconds()
		if sc := signCost[op]; sc > 0 {
			prep -= sc.Seconds()
			if prep <= 0 {
				prep = 1e-9 // mirrors the 1ns floor in RunModel
			}
			signSum += w * sc.Seconds()
		}
		wsum += w
		prepSum += w * prep
	}
	if prepSum == 0 {
		return 0
	}
	cap := float64(servers) * wsum / prepSum
	if signSum > 0 {
		if sc := float64(signWorkers) * wsum / signSum; sc < cap {
			cap = sc
		}
	}
	return cap
}
