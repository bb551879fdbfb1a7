package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"xvtpm/internal/attest"
	"xvtpm/internal/tpm"
)

// tiny returns the named workload shrunk to a few guests.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w := *findWorkload(name)
	w.guests = 4
	return &w
}

type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRationaleCoversDeclared checks that the program runs exactly the
// declared workloads and that rationale.json maps every declared per-layer
// metric to exactly one layer and gives every workload its reasons.
func TestRationaleCoversDeclared(t *testing.T) {
	d := readDeclared(t)
	b, err := os.ReadFile("rationale.json")
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		Workloads []struct {
			Name, Why           string
			Exercises, Bypasses []string
		}
		Layers []struct {
			Layer   string
			Metrics []string
		}
	}
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	var names, reasoned []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range r.Workloads {
		if w.Why == "" || len(w.Exercises) == 0 || len(w.Bypasses) == 0 {
			t.Errorf("rationale for %s lacks why, exercises or bypasses", w.Name)
		}
		reasoned = append(reasoned, w.Name)
	}
	var programmed []string
	for _, w := range workloads {
		programmed = append(programmed, w.name)
	}
	if !reflect.DeepEqual(names, programmed) || !reflect.DeepEqual(names, reasoned) {
		t.Errorf("workloads: declared %v, programmed %v, reasoned %v", names, programmed, reasoned)
	}
	layerOf := make(map[string]string)
	for _, l := range r.Layers {
		for _, m := range l.Metrics {
			if prev, ok := layerOf[m]; ok {
				t.Errorf("metric %s in layers %s and %s", m, prev, l.Layer)
			}
			layerOf[m] = l.Layer
		}
	}
	for _, m := range d.PerLayer {
		if _, ok := layerOf[m.Name]; !ok {
			t.Errorf("per-layer metric %s has no layer in rationale.json", m.Name)
		}
		delete(layerOf, m.Name)
	}
	for m := range layerOf {
		t.Errorf("rationale.json names %s, which BENCHMARK.json does not declare", m)
	}
}

// TestEveryMetricPrintedWithUnit runs every workload untraced and traced at a
// tiny size and checks that the result names exactly the metrics
// BENCHMARK.json declares, each with its declared unit, with no failed op.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloads {
		w := tiny(t, w.name)
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			var r result
			var err error
			if traced {
				r, err = runTraced(w, 7, 40, "", &out)
			} else {
				r, err = runUntraced(w, 7, 40, &out)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, r.Correct, r.Attempted, r.Failed, out.String())
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not printed", w.name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed in %q, declared in %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced {
				for name, m := range r.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestBadArgumentsExitNonZero checks a bad invocation exits non-zero without
// printing a result.
func TestBadArgumentsExitNonZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nosuch", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := run([]string{"--workload", "measure", "--trace", "2"}, &out, &errOut); code == 0 {
		t.Fatalf("--trace 2 accepted")
	}
}

// TestWrongNonceFailsOp checks a quote verified against another nonce than
// the one it was asked for counts as a failed op.
func TestWrongNonceFailsOp(t *testing.T) {
	w := tiny(t, "attest")
	sys, err := w.boot(3, w.guests)
	if err != nil {
		t.Fatal(err)
	}
	as := sys.(*attestSys)
	as.check = func(v *attest.Verifier, cert *attest.AIKCert, nonce [tpm.NonceSize]byte, q *tpm.QuoteResult) error {
		nonce[0] ^= 1
		return v.VerifyQuote(cert, nonce, q)
	}
	p := runPhase(w, sys, 3, 6, false, false, time.Time{})
	if err := sys.close(); err != nil {
		t.Fatal(err)
	}
	if p.failed != p.ops {
		t.Fatalf("%d of %d wrong-nonce quotes failed", p.failed, p.ops)
	}
}

// TestWrongShadowFailsExtend checks an Extend whose result disagrees with the
// shadow chain counts as a failed op, and that the shadow then resynchronises.
func TestWrongShadowFailsExtend(t *testing.T) {
	w := tiny(t, "measure")
	sys, err := w.boot(3, w.guests)
	if err != nil {
		t.Fatal(err)
	}
	ms := sys.(*measureSys)
	ms.guests[0].shadow[0][0] ^= 1
	w.next = func(r *rng, mine []int) op {
		return op{guest: mine[0], kind: opExtend, pcr: measurePCRBase, digest: r.digest()}
	}
	p := runPhase(w, sys, 3, 6, false, false, time.Time{})
	bad := sys.verify(&bytes.Buffer{})
	if err := sys.close(); err != nil {
		t.Fatal(err)
	}
	if p.failed != 1 || bad != 0 {
		t.Fatalf("failed ops %d, failed end checks %d; want 1 and 0", p.failed, bad)
	}
}

// TestSameSeedSameOps checks two runs with one seed issue the same op
// sequence from each client, and another seed a different one.
func TestSameSeedSameOps(t *testing.T) {
	w := tiny(t, "measure")
	issued := func(seed uint64) [][]op {
		sys, err := w.boot(seed, w.guests)
		if err != nil {
			t.Fatal(err)
		}
		p := runPhase(w, sys, seed, 200, false, true, time.Time{})
		if err := sys.close(); err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 {
			t.Fatalf("seed %d: %d ops failed: %v", seed, p.failed, p.errs)
		}
		var seen [][]op
		for _, c := range p.clients {
			seen = append(seen, c.seen)
		}
		return seen
	}
	a, b, c := issued(5), issued(5), issued(6)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of seed 5 issued different ops")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 5 and 6 issued the same ops")
	}
}
