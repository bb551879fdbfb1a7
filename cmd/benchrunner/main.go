// Command benchrunner regenerates the reconstructed evaluation of the
// paper: every table and figure (E1–E8 in DESIGN.md) plus the harness
// extensions (E9 flood control, E10 recovery, E11 concurrent dispatch,
// E12 checkpoint policy, E13 fault storm, E14 observability overhead,
// E16 per-profile sweep, E17 log-structured checkpoint store, E18
// federation drain/evacuation/fault-storm, E19 open-loop capacity sweep,
// E20 signing pool), printed as aligned text tables and series. E15, the
// retired transport-pipeline sweep, has no runner.
// It also hosts the CI benchmark-regression gate (-bench / -check).
//
// Usage:
//
//	benchrunner [-exp all|E1|E2|...|E14|E16|...|E20] [-bits 512] [-quick]
//	benchrunner -bench [-out BENCH.json]
//	benchrunner -check BENCH_baseline.json|auto [-tolerance 0.15]
//
// With -bench the gate's benchmark suite runs and its results print as JSON
// (to -out when given, else stdout). With -check the suite runs and is
// compared against the given baseline file: any benchmark regressing more
// than the tolerance in ns/op, or growing its allocs/op, prints a failure
// table and exits 1 — the CI benchmark-regression gate. The baseline "auto"
// resolves the highest-numbered committed BENCH_<n>.json, so baseline bumps
// stop editing Makefile and workflows.
//
// Absolute numbers are those of this Go reproduction on the local machine;
// the claims under test are the relative shapes (baseline vs improved),
// per EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"xvtpm/internal/experiments"
)

// resolveBaseline expands the "auto" baseline to the highest-numbered
// committed BENCH_<n>.json in the working directory.
func resolveBaseline(path string) (string, error) {
	if path != "auto" {
		return path, nil
	}
	resolved, err := experiments.LatestBaseline(".")
	if err != nil {
		return "", err
	}
	fmt.Printf("baseline auto -> %s\n", resolved)
	return resolved, nil
}

// runBenchSuite handles -bench/-out: run the suite, emit JSON.
func runBenchSuite(cfg experiments.Config, out string) error {
	rep, err := experiments.RunBenchSuite(cfg)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
		fmt.Printf("bench report written to %s\n", out)
	}
	return rep.WriteJSON(w)
}

// runBenchCheck handles -check: run the suite, compare, exit non-zero on
// regression via the returned error.
func runBenchCheck(cfg experiments.Config, baselinePath string, tolerance float64) error {
	baselinePath, err := resolveBaseline(baselinePath)
	if err != nil {
		return err
	}
	base, err := experiments.ReadBenchReport(baselinePath)
	if err != nil {
		return fmt.Errorf("loading baseline: %w", err)
	}
	cur, err := experiments.RunBenchSuite(cfg)
	if err != nil {
		return err
	}
	deltas, ok := experiments.CompareBench(base, cur, tolerance)
	experiments.RenderBenchDeltas(os.Stdout, deltas)
	if !ok {
		return fmt.Errorf("benchmark gate failed against %s", baselinePath)
	}
	fmt.Println("benchmark gate passed")
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, or one of E1..E14, E16..E20")
	bits := flag.Int("bits", 512, "RSA modulus size for all TPM keys")
	quick := flag.Bool("quick", false, "reduced repetitions (smoke run)")
	bench := flag.Bool("bench", false, "run the benchmark-gate suite and emit JSON instead of experiments")
	out := flag.String("out", "", "with -bench: write the JSON report to this file")
	check := flag.String("check", "", "run the gate suite and compare against this baseline JSON (or 'auto'); exit 1 on regression")
	tolerance := flag.Float64("tolerance", experiments.DefaultBenchTolerance,
		"with -check: relative ns/op regression that fails the gate")
	flag.Parse()

	cfg := experiments.Config{RSABits: *bits, Quick: *quick, Out: os.Stdout}

	if *bench || *check != "" {
		var err error
		if *check != "" {
			err = runBenchCheck(cfg, *check, *tolerance)
		} else {
			err = runBenchSuite(cfg, *out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		return
	}

	runners := map[string]func() error{
		"E1":  func() error { _, err := experiments.E1PerCommand(cfg); return err },
		"E2":  func() error { _, err := experiments.E2Scalability(cfg); return err },
		"E3":  func() error { _, err := experiments.E3InstanceCreation(cfg); return err },
		"E4":  func() error { _, err := experiments.E4AttackMatrix(cfg); return err },
		"E5":  func() error { _, err := experiments.E5PolicyCost(cfg); return err },
		"E6":  func() error { _, err := experiments.E6Migration(cfg); return err },
		"E7":  func() error { _, err := experiments.E7ExposureWindow(cfg); return err },
		"E8":  func() error { _, err := experiments.E8StorageOverhead(cfg); return err },
		"E9":  func() error { _, err := experiments.E9FloodControl(cfg); return err },
		"E10": func() error { _, err := experiments.E10Recovery(cfg); return err },
		"E11": func() error { _, err := experiments.E11ConcurrentDispatch(cfg); return err },
		"E12": func() error { _, err := experiments.E12CheckpointPolicy(cfg); return err },
		"E13": func() error { _, err := experiments.E13FaultStorm(cfg); return err },
		"E14": func() error { _, err := experiments.E14Observability(cfg); return err },
		"E16": func() error { _, err := experiments.E16ProfileSweep(cfg); return err },
		"E17": func() error { _, err := experiments.E17LogStore(cfg); return err },
		"E18": func() error { _, err := experiments.E18Federation(cfg); return err },
		"E19": func() error { _, err := experiments.E19RateSweep(cfg); return err },
		"E20": func() error { _, err := experiments.E20SignPool(cfg); return err },
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E16", "E17", "E18", "E19", "E20"}

	want := strings.ToUpper(*exp)
	if want == "ALL" {
		fmt.Printf("xvtpm reconstructed evaluation (bits=%d quick=%v)\n\n", *bits, *quick)
		for _, id := range order {
			if err := runners[id](); err != nil {
				fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
				os.Exit(1)
			}
		}
		return
	}
	run, ok := runners[want]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want all, E1..E14 or E16..E20)\n", *exp)
		os.Exit(2)
	}
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", want, err)
		os.Exit(1)
	}
}
