package experiments

import (
	"fmt"
	"io"
	"strings"

	"xvtpm/internal/loadgen"
	"xvtpm/internal/metrics"
)

// The capacity gate: a fixed scenario replayed through loadgen's
// deterministic virtual-time model. No wall clock, no goroutines, seeded
// PRNG only — the resulting rows are identical on every machine, so they
// sit in BENCH_*.json under the ordinary regression gate and a capacity
// regression (slower modeled service path, broken scheduler, broken SLO
// accounting) fails CI like any ns/op regression. The live E19 sweep
// measures this machine; these rows guard the harness itself and the
// committed capacity envelope.
//
// CapacityScenarioText is the committed stable subset: reduced fleet,
// fixed seed, modeled per-op service times shaped like the measured
// dispatch path (cheap symmetric ops vs RSA-backed seal/quote).
const CapacityScenarioText = `# deterministic capacity-gate scenario (modeled; see DESIGN.md §13-14)
guests 20000
seed 9
duration 250ms
alpha 1.1
skew 1000
servers 4
signworkers 4
jitter 0.2
mix extend:40 getrandom:35 seal:15 quote:10
service extend:5µs getrandom:6µs seal:60µs quote:130µs
signcost quote:115µs
slo extend:2ms getrandom:2ms seal:10ms quote:25ms
rates 0.5 0.75 0.9 1.1 1.3
`

// CapacityRowNames lists the gate rows CapacityRows produces, in order.
// benchrunner's -capacity-check runs exactly these.
var CapacityRowNames = []string{
	"CapacityKneeOpNs",
	"CapacitySatGoodOpNs",
	"CapacityPreKneeP99Ns",
	"CapacitySatP999Ns",
}

// capacitySweep replays the scenario ladder through the model.
func capacitySweep() (*loadgen.Scenario, []loadgen.SweepPoint, []*loadgen.Report, error) {
	s, err := loadgen.ParseScenario(CapacityScenarioText)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("capacity scenario: %w", err)
	}
	var points []loadgen.SweepPoint
	var reps []*loadgen.Report
	for _, rate := range s.SweepRates() {
		rep, err := loadgen.RunModel(s.ModelConfig(rate))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("capacity model at %.0f cps: %w", rate, err)
		}
		realized := rate
		if rep.Horizon > 0 {
			realized = float64(rep.Scheduled) / rep.Horizon.Seconds()
		}
		points = append(points, loadgen.SweepPoint{
			Offered: rate, Realized: realized,
			Throughput: rep.Throughput, Goodput: rep.Goodput,
			P99: rep.P99, P999: rep.P999, SLOFrac: rep.SLOFraction(),
		})
		reps = append(reps, rep)
	}
	return s, points, reps, nil
}

// CapacityRows produces the deterministic gate rows. Rates are encoded as
// ns-per-op (1e9 / commands-per-sec) so "higher is worse" and the existing
// tolerance machinery applies unchanged:
//
//	CapacityKneeOpNs     — inverse of the saturation-knee rate
//	CapacitySatGoodOpNs  — inverse of goodput at the top of the ladder
//	CapacityPreKneeP99Ns — CO-safe p99 at the lowest (pre-knee) rate
//	CapacitySatP999Ns    — CO-safe p999 at the top of the ladder
func CapacityRows() ([]BenchResult, error) {
	_, points, reps, err := capacitySweep()
	if err != nil {
		return nil, err
	}
	knee, ok := loadgen.FindKnee(points)
	if !ok {
		return nil, fmt.Errorf("capacity scenario never saturates: ladder %v", points)
	}
	sat := points[len(points)-1]
	if sat.Goodput <= 0 {
		return nil, fmt.Errorf("capacity scenario has zero goodput at saturation")
	}
	pre := reps[0]
	satRep := reps[len(reps)-1]
	return []BenchResult{
		{Name: "CapacityKneeOpNs", NsPerOp: 1e9 / knee},
		{Name: "CapacitySatGoodOpNs", NsPerOp: 1e9 / sat.Goodput},
		{Name: "CapacityPreKneeP99Ns", NsPerOp: float64(pre.P99)},
		{Name: "CapacitySatP999Ns", NsPerOp: float64(satRep.P999)},
	}, nil
}

// CapacitySmoke is the PR-time shape check (`make capacity-smoke`): it
// re-runs the deterministic sweep and fails on *structural* violations —
// accounting that could silently neuter the nightly gate — without
// comparing against a baseline (that comparison is the nightly job's).
func CapacitySmoke(out io.Writer) error {
	s, points, reps, err := capacitySweep()
	if err != nil {
		return err
	}
	var problems []string
	for i, p := range points {
		// The schedule's realized arrival rate, not the nominal one: the
		// deterministic per-guest schedule can emit a few tenths of a
		// percent off the requested rate, and goodput legitimately tracks
		// what actually arrived. Goodput above realized arrivals means
		// double-counted completions or a shrunken elapsed denominator.
		realized := p.Offered
		if reps[i].Horizon > 0 {
			realized = float64(reps[i].Scheduled) / reps[i].Horizon.Seconds()
		}
		if p.Goodput > realized*1.001 {
			problems = append(problems, fmt.Sprintf("rate %d: goodput %.0f exceeds realized arrival rate %.0f", i, p.Goodput, realized))
		}
		if p.Goodput > p.Throughput+0.5 {
			problems = append(problems, fmt.Sprintf("rate %d: goodput %.0f exceeds throughput %.0f", i, p.Goodput, p.Throughput))
		}
		if p.P999 < p.P99 {
			problems = append(problems, fmt.Sprintf("rate %d: p999 %v < p99 %v", i, p.P999, p.P99))
		}
		if i > 0 && p.P99 < points[i-1].P99 {
			problems = append(problems, fmt.Sprintf("rate %d: p99 %v improved under more load (%v before)", i, p.P99, points[i-1].P99))
		}
	}
	if _, ok := loadgen.FindKnee(points); !ok {
		problems = append(problems, "ladder never crosses the saturation knee")
	}
	last := reps[len(reps)-1]
	if last.Scheduled == 0 || last.Completed != last.Scheduled {
		problems = append(problems, fmt.Sprintf("modeled run dropped arrivals: %d of %d", last.Completed, last.Scheduled))
	}
	if out != nil {
		rows := make([][]string, 0, len(points))
		for _, p := range points {
			rows = append(rows, []string{
				fmt.Sprintf("%.0f", p.Offered), fmt.Sprintf("%.0f", p.Goodput),
				fmt.Sprintf("%.1f%%", 100*p.SLOFrac), p.P99.String(), p.P999.String(),
			})
		}
		metrics.Table(out, fmt.Sprintf("capacity smoke (modeled, %d guests, %d servers)", s.Guests, s.Servers),
			[]string{"offered/s", "goodput/s", "in-SLO", "p99", "p999"}, rows)
	}
	if len(problems) > 0 {
		return fmt.Errorf("capacity smoke failed:\n  %s", strings.Join(problems, "\n  "))
	}
	if out != nil {
		fmt.Fprintln(out, "capacity smoke ok")
	}
	return nil
}
