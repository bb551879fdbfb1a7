package loadgen

import (
	"strings"
	"testing"
	"time"

	"xvtpm/internal/workload"
)

const sampleScenario = `# capacity scenario
guests 20000
seed 9
duration 250ms
alpha 1.1
skew 1000
servers 4
jitter 0.2
mix extend:40 getrandom:35 seal:15 quote:10
service extend:5µs getrandom:6µs seal:60µs quote:130µs
slo extend:2ms getrandom:2ms seal:10ms quote:25ms
rates 0.5 0.75 0.9 1.1 1.3
`

func TestParseScenario(t *testing.T) {
	s, err := ParseScenario(sampleScenario)
	if err != nil {
		t.Fatal(err)
	}
	if s.Guests != 20000 || s.Seed != 9 || s.Servers != 4 {
		t.Fatalf("basic fields wrong: %+v", s)
	}
	if s.Mix[workload.OpSeal] != 15 {
		t.Fatalf("mix seal weight %d", s.Mix[workload.OpSeal])
	}
	if s.Service[workload.OpQuote] != 130*time.Microsecond {
		t.Fatalf("quote service %v", s.Service[workload.OpQuote])
	}
	if s.SLO[workload.OpExtend] != 2*time.Millisecond {
		t.Fatalf("extend slo %v", s.SLO[workload.OpExtend])
	}
	if len(s.Rates) != 5 {
		t.Fatalf("rates %v", s.Rates)
	}
	if c := s.Capacity(); c <= 0 {
		t.Fatalf("capacity %v", c)
	}
	ladder := s.SweepRates()
	if len(ladder) != 5 || ladder[0] >= ladder[4] {
		t.Fatalf("sweep ladder %v", ladder)
	}
	if ladder[4] <= s.Capacity() {
		t.Fatalf("ladder %v never crosses capacity %v", ladder, s.Capacity())
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	s, err := ParseScenario(sampleScenario)
	if err != nil {
		t.Fatal(err)
	}
	text := s.String()
	s2, err := ParseScenario(text)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v\n%s", err, text)
	}
	if s2.String() != text {
		t.Fatalf("canonical form is not a fixed point:\n%q\n%q", text, s2.String())
	}
}

func TestScenarioTraceDirective(t *testing.T) {
	s, err := ParseScenario("trace 0s 0 extend\ntrace 100µs 1 quote\nduration 1s\nservers 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Trace) != 2 || s.Trace[1].Op != workload.OpQuote {
		t.Fatalf("trace %+v", s.Trace)
	}
	rep, err := RunModel(s.ModelConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 {
		t.Fatalf("trace run completed %d", rep.Completed)
	}
}

func TestScenarioRejects(t *testing.T) {
	for _, bad := range []string{
		"guests",                               // missing arg
		"guests -4",                            // negative
		"bogus 1",                              // unknown directive
		"mix extend",                           // not op:value
		"mix warp:4",                           // unknown op
		"offered NaN",                          // non-finite
		"duration -1s",                         // negative duration
		"stall 1s",                             // arity
		"trace 2s 0 extend\ntrace 1s 0 extend", // out of order
		"rates",                                // empty ladder
	} {
		if _, err := ParseScenario(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		} else if !strings.Contains(err.Error(), "line") {
			t.Fatalf("error for %q lacks line info: %v", bad, err)
		}
	}
}
