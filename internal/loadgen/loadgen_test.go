package loadgen

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"xvtpm/internal/workload"
)

func TestRateTableShape(t *testing.T) {
	const n, total = 10000, 50000.0
	rates := rateTable(n, 7, total)
	if len(rates) != n {
		t.Fatalf("got %d rates", len(rates))
	}
	var sum, min, max float64
	min = math.Inf(1)
	for _, r := range rates {
		if r <= 0 {
			t.Fatalf("non-positive rate %v", r)
		}
		sum += r
		min = math.Min(min, r)
		max = math.Max(max, r)
	}
	if math.Abs(sum-total) > 1e-6*total {
		t.Fatalf("rates sum %v, want %v", sum, total)
	}
	if ratio := max / min; ratio > 1000.0001 {
		t.Fatalf("skew %v exceeds bound", ratio)
	}
	// Heavy tail: guests far above the mean rate should carry a
	// disproportionate share of the load under alpha=1.1.
	var top float64
	for _, r := range rates {
		if r > 20*total/n {
			top += r
		}
	}
	if top < 0.05*total {
		t.Fatalf("tail too light: guests above 20x mean carry only %.1f%% of load", 100*top/total)
	}
	again := rateTable(n, 7, total)
	for i := range rates {
		if rates[i] != again[i] {
			t.Fatalf("rate table not deterministic at %d", i)
		}
	}
}

func TestScheduleOrderedAndOnRate(t *testing.T) {
	const guests, offered = 5000, 100000.0
	horizon := 500 * time.Millisecond
	rates := rateTable(guests, 3, offered)
	ids := make([]int32, guests)
	for i := range ids {
		ids[i] = int32(i)
	}
	s := newSchedule(ids, rates, Mix12, 3, horizon)
	var last int64 = -1
	var n int64
	seen := make(map[workload.Op]int)
	for {
		ev, ok := s.next()
		if !ok {
			break
		}
		if ev.at < last {
			t.Fatalf("arrivals out of order: %d after %d", ev.at, last)
		}
		last = ev.at
		seen[ev.op]++
		n++
	}
	want := offered * horizon.Seconds()
	if math.Abs(float64(n)-want) > 0.05*want {
		t.Fatalf("schedule emitted %d events, want ~%.0f", n, want)
	}
	for op := range Mix12 {
		if seen[op] == 0 {
			t.Fatalf("mix op %v never drawn", op)
		}
	}
	if seen[workload.OpExtend] < seen[workload.OpQuote] {
		t.Fatalf("mix weights ignored: extend %d < quote %d", seen[workload.OpExtend], seen[workload.OpQuote])
	}
}

func TestRunLiveSmoke(t *testing.T) {
	var steps atomic.Int64
	step := func(op workload.Op) error {
		steps.Add(1)
		if op == workload.OpSeal {
			return errors.New("synthetic")
		}
		return nil
	}
	m := NewMetrics()
	rep, err := Run(Config{
		Guests: 500, Offered: 20000, Duration: 100 * time.Millisecond, Seed: 11,
		Slots:   []Slot{{Step: step, Mix: Mix12}, {Step: step, Mix: Mix20}},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 || rep.Completed != steps.Load() {
		t.Fatalf("completed %d, stepped %d", rep.Completed, steps.Load())
	}
	if rep.Errors == 0 {
		t.Fatalf("synthetic seal errors not counted")
	}
	if rep.Goodput <= 0 || rep.Goodput > rep.Throughput+1 {
		t.Fatalf("goodput %v vs throughput %v", rep.Goodput, rep.Throughput)
	}
	if rep.P999 < rep.P99 || rep.P99 < rep.P50 {
		t.Fatalf("percentiles not ordered: %v %v %v", rep.P50, rep.P99, rep.P999)
	}
	if len(rep.PerOp) == 0 {
		t.Fatalf("no per-op stats")
	}
	for _, st := range rep.PerOp {
		if st.SLO == 0 {
			t.Fatalf("op %v has no SLO", st.Op)
		}
	}
	if got := m.Completed.Load(); int64(got) != rep.Completed {
		t.Fatalf("metrics completed %d, report %d", got, rep.Completed)
	}
	if m.GoodputCPS.Load() == 0 {
		t.Fatalf("goodput gauge not published")
	}
}

func TestRunEventCapTruncatesHorizon(t *testing.T) {
	cfg := Config{Guests: 10, Offered: 1e9, Duration: time.Hour, MaxEvents: 1000,
		Slots: []Slot{{Step: func(workload.Op) error { return nil }, Mix: Mix12}}}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.Duration > time.Millisecond {
		t.Fatalf("horizon not truncated: %v", cfg.Duration)
	}
}

func TestFindKnee(t *testing.T) {
	mk := func(off, good float64) SweepPoint { return SweepPoint{Offered: off, Goodput: good} }
	knee, ok := FindKnee([]SweepPoint{mk(100, 100), mk(200, 199), mk(300, 240), mk(400, 245)})
	if !ok {
		t.Fatal("no knee found")
	}
	if knee <= 200 || knee >= 300 {
		t.Fatalf("knee %v outside (200,300)", knee)
	}
	if _, ok := FindKnee([]SweepPoint{mk(100, 100), mk(200, 200)}); ok {
		t.Fatal("knee claimed on an unsaturated sweep")
	}
	// Saturated from the very first point: knee clamps to its goodput.
	knee, ok = FindKnee([]SweepPoint{mk(100, 50)})
	if !ok || knee != 50 {
		t.Fatalf("first-point saturation: knee %v ok %v", knee, ok)
	}
}
