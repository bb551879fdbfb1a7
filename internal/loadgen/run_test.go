package loadgen

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xvtpm/internal/metrics"
	"xvtpm/internal/workload"
)

// sleepStep is a fixed-cost stepper: every op takes at least d (a sleep
// never returns early), so a slot serves at most 1/d ops per second.
func sleepStep(d time.Duration) Stepper {
	return func(workload.Op) error {
		time.Sleep(d)
		return nil
	}
}

func nopStep(workload.Op) error { return nil }

// realized is the arrival rate a run's schedule actually emitted. The
// seeded Poisson streams are frozen around Offered, so keep-up checks
// compare against this (see SweepPoint.Realized).
func realized(r *Report) float64 {
	return float64(r.Scheduled) / r.Horizon.Seconds()
}

// drain empties every schedule of a validated config, one event slice per
// slot.
func drain(t *testing.T, cfg Config) [][]event {
	t.Helper()
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	var out [][]event
	for _, s := range cfg.schedules() {
		var evs []event
		for {
			ev, ok := s.next()
			if !ok {
				break
			}
			evs = append(evs, ev)
		}
		out = append(out, evs)
	}
	return out
}

// TestModelUnderSaturationKeepsUp: at ~10% of a fixed-cost stepper's
// capacity the open-loop runner completes every arrival, its throughput
// tracks the arrivals it issued, and nearly everything meets its SLO. The
// op is Quote, whose 25ms SLO dwarfs a scheduler's wake-up delay; the
// bound is 90%, not 99%, because a shared host can stall the generator for
// 30-50ms, and under -race that costs up to 4% of a 2s run.
func TestModelUnderSaturationKeepsUp(t *testing.T) {
	const cost = time.Millisecond
	capacity := 2 / cost.Seconds() // two slots
	mix := workload.Mix{workload.OpQuote: 1}
	rep, err := Run(Config{
		Guests: 500, Offered: 0.1 * capacity, Duration: 2 * time.Second, Seed: 9,
		Slots: []Slot{{Step: sleepStep(cost), Mix: mix}, {Step: sleepStep(cost), Mix: mix}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scheduled == 0 || rep.Completed != rep.Scheduled {
		t.Fatalf("completed %d of %d arrivals", rep.Completed, rep.Scheduled)
	}
	if arr := realized(rep); math.Abs(rep.Throughput-arr) > 0.1*arr {
		t.Fatalf("throughput %.0f/s strays from realized arrivals %.0f/s", rep.Throughput, arr)
	}
	if frac := rep.SLOFraction(); frac < 0.9 {
		t.Fatalf("SLO fraction %.3f under light load (p99 %v, max %v, lateness max %v)",
			frac, rep.P99, rep.Max, rep.LatenessMax)
	}
}

// TestModelOverSaturationCapsThroughput offers a 1ms stepper on two slots
// three times its capacity: throughput cannot beat the slots, goodput
// collapses, and the generator's own schedule slip exceeds the SLO.
func TestModelOverSaturationCapsThroughput(t *testing.T) {
	const cost = time.Millisecond
	capacity := 2 / cost.Seconds()
	mix := workload.Mix{workload.OpGetRandom: 1}
	rep, err := Run(Config{
		Guests: 500, Offered: 3 * capacity, Duration: 100 * time.Millisecond, Seed: 9,
		Slots: []Slot{{Step: sleepStep(cost), Mix: mix}, {Step: sleepStep(cost), Mix: mix}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput > 1.2*capacity {
		t.Fatalf("throughput %.0f/s exceeds the slots' capacity %.0f/s", rep.Throughput, capacity)
	}
	if rep.Goodput >= 0.5*rep.Offered {
		t.Fatalf("over-saturated run kept up: goodput %.0f/s of %.0f/s offered", rep.Goodput, rep.Offered)
	}
	if slo := DefaultSLO[workload.OpGetRandom]; rep.LatenessP99 <= slo {
		t.Fatalf("lateness p99 %v within the %v SLO while 3x saturated", rep.LatenessP99, slo)
	}
}

// TestModelSweepFindsKnee applies E19's method — a rate ladder, goodput
// per rung, FindKnee — to a fixed-cost stepper whose capacity is known:
// the knee must land above the lowest rung and at or below nominal
// capacity (a sleep never undershoots, so the real capacity is lower, and
// at nominal load the backlog of a 500ms rung outgrows Quote's 25ms SLO).
func TestModelSweepFindsKnee(t *testing.T) {
	const cost = time.Millisecond
	capacity := 2 / cost.Seconds()
	mix := workload.Mix{workload.OpQuote: 1}
	var points []SweepPoint
	for _, mult := range []float64{0.25, 0.5, 0.75, 1, 2} {
		rep, err := Run(Config{
			Guests: 2000, Offered: mult * capacity, Duration: 500 * time.Millisecond, Seed: 9,
			Slots: []Slot{{Step: sleepStep(cost), Mix: mix}, {Step: sleepStep(cost), Mix: mix}},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Rungs are placed at their realized rate so the schedule's frozen
		// fluctuation is not mistaken for saturation.
		points = append(points, SweepPoint{
			Offered: realized(rep), Throughput: rep.Throughput, Goodput: rep.Goodput,
			P99: rep.P99, P999: rep.P999, SLOFrac: rep.SLOFraction(),
		})
	}
	knee, ok := FindKnee(points)
	if !ok {
		t.Fatalf("ladder up to 2x capacity found no knee: %+v", points)
	}
	if knee <= points[0].Offered || knee > capacity {
		t.Fatalf("knee %.0f/s outside (%.0f, %.0f]: %+v", knee, points[0].Offered, capacity, points)
	}
}

// TestModelDeterministic: per-slot schedules built twice from the same
// config drain to identical (time, guest, op) sequences, and a different
// seed gives a different fleet.
func TestModelDeterministic(t *testing.T) {
	cfg := Config{
		Guests: 3000, Offered: 50000, Duration: 200 * time.Millisecond, Seed: 42,
		Slots: []Slot{{Step: nopStep, Mix: Mix12}, {Step: nopStep, Mix: Mix20}, {Step: nopStep, Mix: Mix12}},
	}
	a, b := drain(t, cfg), drain(t, cfg)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("schedules built from one config differ")
	}
	if len(a[0]) == 0 {
		t.Fatal("empty schedule")
	}
	cfg.Seed = 43
	if fmt.Sprint(drain(t, cfg)) == fmt.Sprint(a) {
		t.Fatal("a different seed produced the same schedules")
	}
}

// TestModelTraceReplay: Run issues exactly the scheduled arrivals — no
// more, no fewer, each op as often as the same schedules drained on their
// own contain it.
func TestModelTraceReplay(t *testing.T) {
	var calls [8]atomic.Int64
	count := func(op workload.Op) error {
		calls[op].Add(1)
		return nil
	}
	cfg := Config{
		Guests: 500, Offered: 5000, Duration: 100 * time.Millisecond, Seed: 3,
		Slots: []Slot{{Step: count, Mix: Mix12}, {Step: count, Mix: Mix20}},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[workload.Op]int64)
	var total int64
	for _, evs := range drain(t, cfg) {
		for _, ev := range evs {
			want[ev.op]++
			total++
		}
	}
	var stepped int64
	for op := range calls {
		stepped += calls[op].Load()
	}
	if rep.Scheduled != total || rep.Completed != total || stepped != total {
		t.Fatalf("scheduled %d, completed %d, stepped %d; standalone schedules hold %d",
			rep.Scheduled, rep.Completed, stepped, total)
	}
	if len(rep.PerOp) != len(want) {
		t.Fatalf("report has %d ops, schedules %d", len(rep.PerOp), len(want))
	}
	for _, st := range rep.PerOp {
		if st.Count != want[st.Op] || calls[st.Op].Load() != want[st.Op] {
			t.Fatalf("%v: report %d, stepped %d, scheduled %d", st.Op, st.Count, calls[st.Op].Load(), want[st.Op])
		}
	}
}

// TestScenarioRejects: validation refuses every config it cannot run —
// including a NaN or infinite offered rate, whose gaps never reach the
// horizon — without starting a run.
func TestScenarioRejects(t *testing.T) {
	good := func() Config {
		return Config{Guests: 10, Offered: 100, Duration: time.Second,
			Slots: []Slot{{Step: nopStep, Mix: Mix12}}}
	}
	if cfg := good(); cfg.defaults() != nil {
		t.Fatal("control config refused")
	}
	for name, bad := range map[string]func(*Config){
		"offered NaN":       func(c *Config) { c.Offered = math.NaN() },
		"offered +Inf":      func(c *Config) { c.Offered = math.Inf(1) },
		"offered -Inf":      func(c *Config) { c.Offered = math.Inf(-1) },
		"offered zero":      func(c *Config) { c.Offered = 0 },
		"offered negative":  func(c *Config) { c.Offered = -1 },
		"no guests":         func(c *Config) { c.Guests = 0 },
		"negative guests":   func(c *Config) { c.Guests = -4 },
		"zero duration":     func(c *Config) { c.Duration = 0 },
		"negative duration": func(c *Config) { c.Duration = -time.Second },
		"no slots":          func(c *Config) { c.Slots = nil },
	} {
		cfg := good()
		bad(&cfg)
		if err := cfg.defaults(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestParseScenario checks per-op SLO accounting: Extend on its own slot
// always takes 3ms, over its 2ms SLO; Quote on another slot returns at
// once, well inside its 25ms SLO. Each op is judged against its own
// DefaultSLO, and WithinSLO is the per-op sum.
func TestParseScenario(t *testing.T) {
	rep, err := Run(Config{
		Guests: 200, Offered: 400, Duration: 250 * time.Millisecond, Seed: 4,
		Slots: []Slot{
			{Step: sleepStep(3 * time.Millisecond), Mix: workload.Mix{workload.OpExtend: 1}},
			{Step: nopStep, Mix: workload.Mix{workload.OpQuote: 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerOp) != 2 {
		t.Fatalf("per-op rows %+v", rep.PerOp)
	}
	var within, completed int64
	for _, st := range rep.PerOp {
		if st.SLO != DefaultSLO[st.Op] {
			t.Fatalf("%v judged against %v, want %v", st.Op, st.SLO, DefaultSLO[st.Op])
		}
		switch st.Op {
		case workload.OpExtend:
			if st.Attained != 0 {
				t.Fatalf("3ms Extend attained %.3f of a 2ms SLO", st.Attained)
			}
		case workload.OpQuote:
			if st.Attained < 0.9 {
				t.Fatalf("instant Quote attained only %.3f of a 25ms SLO", st.Attained)
			}
		default:
			t.Fatalf("unexpected op %v", st.Op)
		}
		within += int64(math.Round(st.Attained * float64(st.Count)))
		completed += st.Count
	}
	if within != rep.WithinSLO || completed != rep.Completed {
		t.Fatalf("per-op sums %d within / %d completed, report %d / %d",
			within, completed, rep.WithinSLO, rep.Completed)
	}
}

// TestScenarioRoundTrip: a run's figures reach the Prometheus exposition —
// completions, errors, SLO misses and the goodput gauge read what the
// Report says.
func TestScenarioRoundTrip(t *testing.T) {
	m := NewMetrics()
	reg := metrics.NewRegistry()
	if err := m.Register(reg); err != nil {
		t.Fatal(err)
	}
	step := func(op workload.Op) error {
		switch op {
		case workload.OpSeal:
			return fmt.Errorf("synthetic seal failure")
		case workload.OpExtend:
			time.Sleep(3 * time.Millisecond) // over the 2ms SLO
		}
		return nil
	}
	mix := workload.Mix{workload.OpGetRandom: 2, workload.OpExtend: 1, workload.OpSeal: 1}
	rep, err := Run(Config{
		Guests: 300, Offered: 300, Duration: 200 * time.Millisecond, Seed: 8,
		Slots: []Slot{{Step: step, Mix: mix}, {Step: step, Mix: mix}}, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	misses := rep.Completed - rep.WithinSLO
	if rep.Errors == 0 || misses == 0 || rep.Goodput < 1 {
		t.Fatalf("run too quiet to check the exposition: %+v", rep)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"loadgen_offered_total":   rep.Scheduled,
		"loadgen_completed_total": rep.Completed,
		"loadgen_errors_total":    rep.Errors,
		"loadgen_slo_miss_total":  misses,
		"loadgen_goodput_cps":     int64(rep.Goodput),
		"loadgen_offered_cps":     int64(rep.Offered),
	} {
		if line := fmt.Sprintf("\n%s %d\n", name, want); !strings.Contains(buf.String(), line) {
			t.Errorf("exposition lacks %q:\n%s", strings.TrimSpace(line), buf.String())
		}
	}
}

// TestScenarioTraceDirective: every simulated guest owns its arrival
// stream, so a guest's arrivals are the same whether its schedule holds it
// alone or merged with other guests — and none lands past the horizon.
func TestScenarioTraceDirective(t *testing.T) {
	const guests, horizon = 10, 500 * time.Millisecond
	rates := rateTable(guests, 12, 20000)
	ids := make([]int32, guests)
	for i := range ids {
		ids[i] = int32(i)
	}
	all := newSchedule(ids, rates, Mix12, 12, horizon)
	var merged [guests][]event
	for {
		ev, ok := all.next()
		if !ok {
			break
		}
		if ev.at < 0 || ev.at > int64(horizon) {
			t.Fatalf("arrival at %dns outside [0, %v]", ev.at, horizon)
		}
		merged[ev.guest] = append(merged[ev.guest], ev)
	}
	for g := int32(0); g < guests; g++ {
		alone := newSchedule([]int32{g}, rates, Mix12, 12, horizon)
		var own []event
		for {
			ev, ok := alone.next()
			if !ok {
				break
			}
			own = append(own, ev)
		}
		if len(own) == 0 {
			t.Fatalf("guest %d has no arrivals", g)
		}
		if fmt.Sprint(own) != fmt.Sprint(merged[g]) {
			t.Fatalf("guest %d: alone %d arrivals, merged %d; streams differ", g, len(own), len(merged[g]))
		}
	}
}
