package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xvtpm/internal/workload"
)

func TestE19RateSweepShape(t *testing.T) {
	var buf bytes.Buffer
	rep, err := E19RateSweep(quickCfg(&buf))
	if err != nil {
		t.Fatalf("E19: %v", err)
	}
	if rep.Capacity <= 0 {
		t.Fatalf("calibration capacity %v", rep.Capacity)
	}
	if len(rep.Points) < 5 {
		t.Fatalf("sweep has %d rates, want >= 5", len(rep.Points))
	}
	last := rep.Points[len(rep.Points)-1]
	if last.Offered <= rep.Capacity {
		t.Fatalf("ladder top %.0f does not cross calibrated capacity %.0f", last.Offered, rep.Capacity)
	}
	for i, p := range rep.Points {
		// Accounting sanity: goodput cannot exceed what actually arrived.
		// The seeded schedule's frozen Poisson fluctuation puts Realized
		// several percent off Offered at quick/-race arrival counts, so
		// the bound is against Realized (see loadgen.SweepPoint).
		realized := p.Realized
		if realized == 0 {
			realized = p.Offered
		}
		if p.Goodput > realized*1.05 {
			t.Fatalf("rate %d: goodput %.0f exceeds realized arrivals %.0f (offered %.0f)",
				i, p.Goodput, realized, p.Offered)
		}
		if p.P999 < p.P99 {
			t.Fatalf("rate %d: p999 %v < p99 %v", i, p.P999, p.P99)
		}
	}
	if rep.Saturated == nil || len(rep.Saturated.PerOp) == 0 {
		t.Fatal("no per-op SLO table at saturation")
	}
	for _, st := range rep.Saturated.PerOp {
		if st.SLO == 0 || st.Attained < 0 || st.Attained > 1 {
			t.Fatalf("per-op stats malformed: %+v", st)
		}
	}
	if rep.ServiceEst[workload.OpQuote] <= rep.ServiceEst[workload.OpGetRandom] {
		t.Fatalf("service probe inverted: quote %v <= getrandom %v",
			rep.ServiceEst[workload.OpQuote], rep.ServiceEst[workload.OpGetRandom])
	}
	out := buf.String()
	for _, want := range []string{"E19", "goodput vs offered", "SLO attainment", "bottleneck"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}
}

// TestCapacityRowsDeterministic: the hot-path dispatch rows report the
// same allocs/op, within the gate's allowance, on two suite runs — the
// bench gate's allocs/op check depends on that.
func TestCapacityRowsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarks under -short")
	}
	rows := []string{"DispatchGetRandom", "DispatchExtend"}
	run := func() map[string]float64 {
		rep, err := RunBenchSuite(Config{RSABits: 512, Quick: true}, rows...)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64, len(rep.Results))
		for _, r := range rep.Results {
			out[r.Name] = r.AllocsPerOp
		}
		return out
	}
	a, b := run(), run()
	for _, name := range rows {
		av, ok := a[name]
		if !ok {
			t.Fatalf("row %s missing: %v", name, a)
		}
		if math.Abs(av-b[name]) > allocGrowthTolerance {
			t.Fatalf("%s allocs/op %.1f then %.1f: beyond the gate's %.1f allowance", name, av, b[name], allocGrowthTolerance)
		}
	}
}

// TestCapacitySmoke checks E19's busy-share attribution: the bottleneck is
// the op with the largest completions × probed service time at saturation,
// and on an uninstrumented build that op is Quote, the RSA-backed one — the
// result E19 documents. Under -race the instrumented protocol code of the
// far more frequent Extend outweighs RSA signing, so only the attribution
// itself is checked there.
func TestCapacitySmoke(t *testing.T) {
	rep, err := E19RateSweep(Config{RSABits: 512, Quick: true})
	if err != nil {
		t.Fatalf("E19: %v", err)
	}
	var sum, top float64
	var topOp workload.Op
	for _, st := range rep.Saturated.PerOp {
		busy := float64(st.Count) * rep.ServiceEst[st.Op].Seconds()
		sum += busy
		if busy > top {
			top, topOp = busy, st.Op
		}
	}
	if rep.Bottleneck != topOp || math.Abs(rep.BottleneckShare-top/sum) > 1e-9 {
		t.Fatalf("attribution %v at %.3f, want %v at %.3f", rep.Bottleneck, rep.BottleneckShare, topOp, top/sum)
	}
	if !raceEnabled && rep.Bottleneck != workload.OpQuote {
		t.Fatalf("bottleneck %v at %.1f%% of busy time, want Quote (service est %v)",
			rep.Bottleneck, 100*rep.BottleneckShare, rep.ServiceEst)
	}
}

func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_10.json", "BENCH_9.json", "BENCH_x.json", "BENCH_3.json.bak", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LatestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != filepath.Join(dir, "BENCH_10.json") {
		t.Fatalf("latest baseline %q", got)
	}
	if _, err := LatestBaseline(t.TempDir()); err == nil {
		t.Fatal("empty dir produced a baseline")
	}
}

func TestLatestBaselineFindsCommitted(t *testing.T) {
	// Run from the package dir; the committed baselines live two levels up.
	got, err := LatestBaseline(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(got), "BENCH_") {
		t.Fatalf("resolved %q", got)
	}
}
