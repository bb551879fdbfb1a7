// Command stackbench is the repository benchmark: it boots hosts through the
// public API with the shipped defaults, drives closed-loop workloads over
// their guests' vTPMs, checks every output, and prints one JSON result line.
//
//	stackbench --workload measure --seed 1 --seconds 10 --trace 0
//
// A run's fixed op count is the workload's rate times --seconds. With
// --trace 0 the run is three repetitions of: set the system up, run a third of
// the ops, check, tear down; it prints ops_per_s, op_p50_us and op_p99_us
// (medians over the repetitions' slices), heap_mb and setup_s (medians over
// the repetitions). With --trace 1 it runs one repetition untraced and one
// traced, and prints the per-layer metrics: counter deltas of the
// public stats getters, spans recorded around the calls into each layer, and
// the runtime and process figures of the untraced run. BENCHMARK.json at the
// repository root names the workloads and metrics; rationale.json beside this
// file says why, layer by layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// workloads are the benchmark's workloads; rationale.json records why each
// was chosen and which layers it exercises and bypasses.
var workloads = []*workload{
	{name: "measure", guests: 64, rate: 30000, harvestEvery: 32, boot: bootMeasure, next: measureNext},
	{name: "attest", guests: 32, rate: 2000, harvestEvery: 32, quotesPerOp: 1, boot: bootAttest, next: attestNext},
	{name: "migrate", guests: 64, rate: 300, harvestEvery: 1, boot: bootMigrate, next: migrateNext},
}

// reps is how many times an untraced run sets its system up and runs a share
// of the ops on it. Spreading the measured ops over three systems and the
// whole run steadies the figures against the VM's drifting speed, and setup_s
// is a median because RSA key generation at set-up cannot be seeded and its
// time spreads widely.
const reps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: measure, attest or migrate")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "run length: the op count is the workload's nominal rate times this")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	spans := fs.String("spans-dir", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "stackbench: need --workload measure|attest|migrate, --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	n := w.rate * *seconds
	var res result
	var err error
	if *trace == 0 {
		res, err = runUntraced(w, *seed, n, stdout)
	} else {
		res, err = runTraced(w, *seed, n, *spans, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "stackbench: %s: %v\n", w.name, err)
		return 1
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			res.Metrics[k] = m
		}
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "stackbench: %v\n", err)
		return 1
	}
	return 0
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// boot sets the workload's system up and returns how long that took.
func boot(w *workload, seed uint64) (system, float64, error) {
	t0 := time.Now()
	sys, err := w.boot(seed, w.guests)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return sys, time.Since(t0).Seconds(), nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w *workload, seed uint64, n int, out io.Writer) (result, error) {
	var ps []phase
	var setups, heaps []float64
	var res result
	for i := 0; i < reps; i++ {
		sys, s, err := boot(w, seed)
		if err != nil {
			return result{}, err
		}
		p := runPhase(w, sys, seed, n/reps, false, false, time.Time{})
		bad := sys.verify(out)
		if err := sys.close(); err != nil {
			return result{}, err
		}
		p.print(out, fmt.Sprintf("%s rep %d (set-up %.3f s)", w.name, i, s))
		p.clients = nil // the next repetition's heap reading must not hold this one's samples
		ps = append(ps, p)
		setups = append(setups, s)
		heaps = append(heaps, p.heapMB)
		res.Attempted += p.ops
		res.Failed += p.failed + bad
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{
		"ops_per_s": {sliceMedian(ps, func(s sliceStat) float64 { return s.rate }), "1/s"},
		"op_p50_us": {sliceMedian(ps, func(s sliceStat) float64 { return s.p50 }), "us"},
		"op_p99_us": {sliceMedian(ps, func(s sliceStat) float64 { return s.p99 }), "us"},
		"heap_mb":   {median(heaps), "MiB"},
		"setup_s":   {median(setups), "s"},
	}
	return res, nil
}

// runTraced runs one repetition untraced and one traced, each on a freshly
// set up system, and computes the per-layer metrics.
func runTraced(w *workload, seed uint64, n int, spansDir string, out io.Writer) (result, error) {
	sysA, _, err := boot(w, seed)
	if err != nil {
		return result{}, err
	}
	pA := runPhase(w, sysA, seed, n/reps, false, false, time.Time{})
	badA := sysA.verify(out)
	if err := sysA.close(); err != nil {
		return result{}, err
	}
	pA.print(out, w.name+" untraced")

	sysB, _, err := boot(w, seed)
	if err != nil {
		return result{}, err
	}
	before := sysB.layers(false)
	pB := runPhase(w, sysB, seed, n/reps, true, false, time.Now())
	after := sysB.layers(true)
	badB := sysB.verify(out)
	if err := sysB.close(); err != nil {
		return result{}, err
	}
	pB.print(out, w.name+" traced")
	var ts []*tracer
	for _, c := range pB.clients {
		ts = append(ts, c.tr)
	}
	rep := analyse(ts)
	rep.print(out, w.name)
	fmt.Fprintf(out, "trace overhead: %.2f µs/op traced, %.2f µs/op untraced (wall time per op)\n",
		us(pB.wall)/float64(pB.ops), us(pA.wall)/float64(pA.ops))
	printSentinels(out, after)
	if err := writeSpans(spansDir, w.name, ts); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	failed := pA.failed + badA + pB.failed + badB
	return result{
		Correct:   failed == 0,
		Attempted: pA.ops + pB.ops,
		Failed:    failed,
		Metrics: perLayer(tracedFigures{
			ops:     pB.ops,
			quotes:  pB.ops * w.quotesPerOp,
			before:  before,
			after:   after,
			rep:     rep,
			wallA:   pA.wall,
			wallB:   pB.wall,
			procA:   pA.proc,
			opsA:    pA.ops,
			thirdsA: pA.thirds,
		}),
	}, nil
}
