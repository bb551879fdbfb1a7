package loadgen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"xvtpm/internal/workload"
)

// Scenario is the declarative form of a modeled load run: a small
// line-oriented text format so capacity scenarios can be committed,
// diffed, fuzzed, and replayed byte-for-byte. Directives:
//
//	# comment
//	guests 20000          simulated fleet size
//	seed 9                PRNG seed
//	offered 120000        aggregate rate, commands/sec (sweeps override)
//	duration 500ms        schedule horizon
//	alpha 1.1             Pareto shape of per-guest rates
//	skew 1000             max/min per-guest rate bound
//	servers 4             modeled dispatch lanes
//	signworkers 4         modeled sign-pool lanes (0 = signing stays inline)
//	jitter 0.2            ± service-time jitter fraction
//	stall 200ms 100ms     freeze all servers at t=200ms for 100ms
//	mix extend:40 getrandom:35 seal:15 quote:10
//	service extend:5µs getrandom:6µs seal:60µs quote:130µs
//	signcost quote:115µs  private-key share of service, offloaded to sign lanes
//	slo extend:2ms getrandom:2ms seal:10ms quote:25ms
//	rates 0.5 0.75 0.9 1.1 1.3   sweep ladder, × modeled capacity
//	trace 100µs 3 extend         explicit arrival (repeatable; replaces
//	                             the synthetic schedule when present)
type Scenario struct {
	Guests   int
	Seed     int64
	Offered  float64
	Duration time.Duration
	Alpha    float64
	MaxSkew  float64
	Servers  int
	Jitter   float64
	StallAt  time.Duration
	StallFor time.Duration

	SignWorkers int
	SignCost    map[workload.Op]time.Duration

	Mix     workload.Mix
	Service map[workload.Op]time.Duration
	SLO     map[workload.Op]time.Duration
	Rates   []float64
	Trace   []TraceEvent
}

// opNames maps lowercase directive tokens to ops (and back, via AllOps).
var opNames = func() map[string]workload.Op {
	m := make(map[string]workload.Op, opCount)
	for _, op := range workload.AllOps {
		m[strings.ToLower(op.String())] = op
	}
	return m
}()

func parseOp(tok string) (workload.Op, error) {
	op, ok := opNames[strings.ToLower(tok)]
	if !ok {
		return 0, fmt.Errorf("unknown op %q", tok)
	}
	return op, nil
}

func parseFiniteFloat(tok string) (float64, error) {
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("value %q out of range", tok)
	}
	return v, nil
}

func parseDur(tok string) (time.Duration, error) {
	d, err := time.ParseDuration(tok)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", tok)
	}
	return d, nil
}

// parseOpTable reads "op:value" fields into a map via conv.
func parseOpTable(fields []string, conv func(string) (int64, error)) (map[workload.Op]int64, error) {
	out := make(map[workload.Op]int64, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, ":")
		if !ok {
			return nil, fmt.Errorf("field %q is not op:value", f)
		}
		op, err := parseOp(k)
		if err != nil {
			return nil, err
		}
		n, err := conv(v)
		if err != nil {
			return nil, fmt.Errorf("field %q: %v", f, err)
		}
		out[op] = n
	}
	return out, nil
}

// ParseScenario decodes the scenario/trace text format.
func ParseScenario(src string) (*Scenario, error) {
	s := &Scenario{}
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		key, args := fields[0], fields[1:]
		fail := func(err error) (*Scenario, error) {
			return nil, fmt.Errorf("loadgen: scenario line %d (%s): %v", ln+1, key, err)
		}
		need := func(n int) error {
			if len(args) != n {
				return fmt.Errorf("want %d args, got %d", n, len(args))
			}
			return nil
		}
		var err error
		switch key {
		case "guests":
			if err = need(1); err == nil {
				s.Guests, err = strconv.Atoi(args[0])
				if err == nil && s.Guests < 0 {
					err = fmt.Errorf("negative guests")
				}
			}
		case "seed":
			if err = need(1); err == nil {
				s.Seed, err = strconv.ParseInt(args[0], 10, 64)
			}
		case "offered":
			if err = need(1); err == nil {
				s.Offered, err = parseFiniteFloat(args[0])
			}
		case "duration":
			if err = need(1); err == nil {
				s.Duration, err = parseDur(args[0])
			}
		case "alpha":
			if err = need(1); err == nil {
				s.Alpha, err = parseFiniteFloat(args[0])
			}
		case "skew":
			if err = need(1); err == nil {
				s.MaxSkew, err = parseFiniteFloat(args[0])
			}
		case "servers":
			if err = need(1); err == nil {
				s.Servers, err = strconv.Atoi(args[0])
				if err == nil && s.Servers < 0 {
					err = fmt.Errorf("negative servers")
				}
			}
		case "signworkers":
			if err = need(1); err == nil {
				s.SignWorkers, err = strconv.Atoi(args[0])
				if err == nil && s.SignWorkers < 0 {
					err = fmt.Errorf("negative signworkers")
				}
			}
		case "jitter":
			if err = need(1); err == nil {
				s.Jitter, err = parseFiniteFloat(args[0])
			}
		case "stall":
			if err = need(2); err == nil {
				if s.StallAt, err = parseDur(args[0]); err == nil {
					s.StallFor, err = parseDur(args[1])
				}
			}
		case "mix":
			var tbl map[workload.Op]int64
			tbl, err = parseOpTable(args, func(v string) (int64, error) {
				n, e := strconv.ParseInt(v, 10, 32)
				if e == nil && n < 0 {
					e = fmt.Errorf("negative weight")
				}
				return n, e
			})
			if err == nil {
				s.Mix = make(workload.Mix, len(tbl))
				for op, w := range tbl {
					s.Mix[op] = int(w)
				}
			}
		case "service", "slo", "signcost":
			var tbl map[workload.Op]int64
			tbl, err = parseOpTable(args, func(v string) (int64, error) {
				d, e := parseDur(v)
				return int64(d), e
			})
			if err == nil {
				m := make(map[workload.Op]time.Duration, len(tbl))
				for op, d := range tbl {
					m[op] = time.Duration(d)
				}
				switch key {
				case "service":
					s.Service = m
				case "signcost":
					s.SignCost = m
				default:
					s.SLO = m
				}
			}
		case "rates":
			if len(args) == 0 {
				err = fmt.Errorf("want at least one rate")
			}
			s.Rates = nil
			for _, a := range args {
				var v float64
				if v, err = parseFiniteFloat(a); err != nil {
					break
				}
				s.Rates = append(s.Rates, v)
			}
		case "trace":
			if err = need(3); err == nil {
				var ev TraceEvent
				if ev.At, err = parseDur(args[0]); err == nil {
					if ev.Guest, err = strconv.Atoi(args[1]); err == nil && ev.Guest < 0 {
						err = fmt.Errorf("negative guest")
					}
					if err == nil {
						ev.Op, err = parseOp(args[2])
					}
				}
				if err == nil {
					if len(s.Trace) > 0 && ev.At < s.Trace[len(s.Trace)-1].At {
						err = fmt.Errorf("trace not time-ordered")
					} else {
						s.Trace = append(s.Trace, ev)
					}
				}
			}
		default:
			err = fmt.Errorf("unknown directive")
		}
		if err != nil {
			return fail(err)
		}
	}
	return s, nil
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeOpTable(b *strings.Builder, key string, get func(workload.Op) (string, bool)) {
	vals := make([]string, 0, opCount)
	for _, op := range workload.AllOps {
		if v, ok := get(op); ok {
			vals = append(vals, strings.ToLower(op.String())+":"+v)
		}
	}
	if len(vals) > 0 {
		fmt.Fprintf(b, "%s %s\n", key, strings.Join(vals, " "))
	}
}

// String renders the canonical form: fixed directive order, ops in AllOps
// order, zero-valued directives omitted. Parse(s.String()) round-trips.
func (s *Scenario) String() string {
	var b strings.Builder
	if s.Guests != 0 {
		fmt.Fprintf(&b, "guests %d\n", s.Guests)
	}
	if s.Seed != 0 {
		fmt.Fprintf(&b, "seed %d\n", s.Seed)
	}
	if s.Offered != 0 {
		fmt.Fprintf(&b, "offered %s\n", fmtFloat(s.Offered))
	}
	if s.Duration != 0 {
		fmt.Fprintf(&b, "duration %s\n", s.Duration)
	}
	if s.Alpha != 0 {
		fmt.Fprintf(&b, "alpha %s\n", fmtFloat(s.Alpha))
	}
	if s.MaxSkew != 0 {
		fmt.Fprintf(&b, "skew %s\n", fmtFloat(s.MaxSkew))
	}
	if s.Servers != 0 {
		fmt.Fprintf(&b, "servers %d\n", s.Servers)
	}
	if s.SignWorkers != 0 {
		fmt.Fprintf(&b, "signworkers %d\n", s.SignWorkers)
	}
	if s.Jitter != 0 {
		fmt.Fprintf(&b, "jitter %s\n", fmtFloat(s.Jitter))
	}
	if s.StallAt != 0 || s.StallFor != 0 {
		fmt.Fprintf(&b, "stall %s %s\n", s.StallAt, s.StallFor)
	}
	writeOpTable(&b, "mix", func(op workload.Op) (string, bool) {
		w, ok := s.Mix[op]
		return strconv.Itoa(w), ok && w != 0
	})
	writeOpTable(&b, "service", func(op workload.Op) (string, bool) {
		d, ok := s.Service[op]
		return d.String(), ok
	})
	writeOpTable(&b, "signcost", func(op workload.Op) (string, bool) {
		d, ok := s.SignCost[op]
		return d.String(), ok
	})
	writeOpTable(&b, "slo", func(op workload.Op) (string, bool) {
		d, ok := s.SLO[op]
		return d.String(), ok
	})
	if len(s.Rates) > 0 {
		vals := make([]string, len(s.Rates))
		for i, r := range s.Rates {
			vals[i] = fmtFloat(r)
		}
		fmt.Fprintf(&b, "rates %s\n", strings.Join(vals, " "))
	}
	for _, ev := range s.Trace {
		fmt.Fprintf(&b, "trace %s %d %s\n", ev.At, ev.Guest, strings.ToLower(ev.Op.String()))
	}
	return b.String()
}

// Capacity is the modeled throughput ceiling for the scenario's mix;
// with a sign pool configured, dispatch lanes are charged prep only and
// the sign lanes impose their own bound.
func (s *Scenario) Capacity() float64 {
	return ModelCapacitySign(s.Servers, s.SignWorkers, s.Mix, s.Service, s.SignCost)
}

// ModelConfig builds the modeled-run config at one offered rate (sweeps
// call this once per ladder step).
func (s *Scenario) ModelConfig(offered float64) ModelConfig {
	return ModelConfig{
		Guests: s.Guests, Offered: offered, Duration: s.Duration,
		Seed: s.Seed, Alpha: s.Alpha, MaxSkew: s.MaxSkew, Mix: s.Mix,
		Servers: s.Servers, Service: s.Service, ServiceJitter: s.Jitter,
		StallAt: s.StallAt, StallFor: s.StallFor, SLO: s.SLO,
		SignWorkers: s.SignWorkers, SignCost: s.SignCost, Trace: s.Trace,
	}
}

// SweepRates resolves the scenario's rate ladder (multipliers × modeled
// capacity) to absolute offered rates, ascending.
func (s *Scenario) SweepRates() []float64 {
	cap := s.Capacity()
	mults := s.Rates
	if len(mults) == 0 {
		mults = []float64{0.5, 0.75, 0.9, 1.1, 1.3}
	}
	out := make([]float64, len(mults))
	for i, m := range mults {
		out[i] = m * cap
	}
	sort.Float64s(out)
	return out
}
