package experiments

import (
	"fmt"
	"time"

	"xvtpm"
	"xvtpm/internal/attack"
	"xvtpm/internal/cluster"
	"xvtpm/internal/core"
	"xvtpm/internal/metrics"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/workload"
	"xvtpm/internal/xen"
)

// E4AttackMatrix runs the six attack scenarios against both guards.
// Reconstructed Table 2.
func E4AttackMatrix(cfg Config) (map[xvtpm.Mode][]attack.Result, error) {
	out := make(map[xvtpm.Mode][]attack.Result)
	// Hosts are seeded under fixed names, as E8's are, so every run reports
	// the same evidence; the seed mixes in the name, so source and peer keep
	// distinct keys.
	seeded := func(name string) func(*xvtpm.HostConfig) {
		return func(hc *xvtpm.HostConfig) {
			hc.Name = name
			hc.Seed = []byte("e4-attacks")
		}
	}
	for _, mode := range Modes {
		mode := mode
		factory := func() (*xvtpm.Host, *xvtpm.Host, error) {
			h, err := newHost(cfg, mode, seeded("e4-"+mode.String()))
			if err != nil {
				return nil, nil, err
			}
			peer, err := newHost(cfg, mode, seeded("e4-peer-"+mode.String()))
			if err != nil {
				return nil, nil, err
			}
			return h, peer, nil
		}
		results, err := attack.RunMatrix(factory)
		if err != nil {
			return nil, fmt.Errorf("E4 on %s: %w", mode, err)
		}
		out[mode] = results
	}
	if cfg.Out != nil {
		rows := make([][]string, 0, len(attack.Kinds))
		byKind := func(rs []attack.Result, k attack.Kind) attack.Result {
			for _, r := range rs {
				if r.Kind == k {
					return r
				}
			}
			return attack.Result{}
		}
		outcome := func(r attack.Result) string {
			if r.Succeeded {
				return "SUCCEEDED"
			}
			return "blocked"
		}
		for _, k := range attack.Kinds {
			rows = append(rows, []string{
				string(k),
				outcome(byKind(out[xvtpm.ModeBaseline], k)),
				outcome(byKind(out[xvtpm.ModeImproved], k)),
			})
		}
		metrics.Table(cfg.Out, "E4 / Table 2 — attack resistance (attacker outcome)",
			[]string{"attack", "baseline", "improved"}, rows)
	}
	return out, nil
}

// E5Point is one point of the policy-cost figure.
type E5Point struct {
	Rules   int
	Latency time.Duration
}

// E5PolicyCost measures access-control decision latency as the rule count
// grows, with and without the decision cache. Reconstructed Figure 3 (and
// the cache ablation DESIGN.md calls out). Pure policy-engine microbench:
// no host needed.
func E5PolicyCost(cfg Config) (map[string][]E5Point, error) {
	ruleCounts := []int{1, 16, 64, 256, 1024, 4096}
	if cfg.Quick {
		ruleCounts = []int{1, 16, 64}
	}
	evals := cfg.reps(20000, 500)
	out := make(map[string][]E5Point)
	for _, variant := range []string{"uncached", "cached"} {
		for _, n := range ruleCounts {
			// Build n-1 non-matching rules and one matching rule at the end
			// (worst-case scan depth).
			rules := make([]core.Rule, 0, n)
			for i := 0; i < n-1; i++ {
				rules = append(rules, core.Rule{
					Identity: xen.MeasureLaunch([]byte{byte(i), byte(i >> 8)}, nil, "other"),
					Instance: vtpm.InstanceID(i + 100),
					Group:    core.GroupNV,
					Effect:   core.Allow,
				})
			}
			subject := xen.MeasureLaunch([]byte("subject"), nil, "")
			rules = append(rules, core.Rule{Identity: subject, Instance: 1, Group: core.GroupPCR, Effect: core.Allow})
			p := core.NewPolicy(rules...)
			p.SetCache(variant == "cached")
			// Warm the cache with the single hot key.
			p.Evaluate(tpm.Profile12, subject, 1, tpm.OrdExtend)
			start := time.Now()
			for i := 0; i < evals; i++ {
				if p.Evaluate(tpm.Profile12, subject, 1, tpm.OrdExtend) != core.Allow {
					return nil, fmt.Errorf("E5: unexpected deny at %d rules", n)
				}
			}
			per := time.Since(start) / time.Duration(evals)
			out[variant] = append(out[variant], E5Point{Rules: n, Latency: per})
		}
	}
	if cfg.Out != nil {
		var series []metrics.Series
		for _, variant := range []string{"uncached", "cached"} {
			s := metrics.Series{Name: variant}
			for _, p := range out[variant] {
				s.Points = append(s.Points, metrics.Point{X: float64(p.Rules), Y: float64(p.Latency.Nanoseconds())})
			}
			series = append(series, s)
		}
		metrics.PrintSeries(cfg.Out, "E5 / Figure 3 — access-control decision latency vs policy size",
			"rules", "latency (ns)", series)
	}
	return out, nil
}

// E6Phases is the migration time breakdown for one mode: the mean of each
// of Cluster.Migrate's phases, and of its whole call, over the moves.
type E6Phases struct {
	Mode xvtpm.Mode
	// Phases is indexed by cluster.Phase: quiesce, ship, revive, attach,
	// verify, commit.
	Phases    [cluster.NumPhases]time.Duration
	Total     time.Duration // the whole Cluster.Migrate call
	WireBytes int           // the committed checkpoint a move ships
}

// E6Migration measures the vTPM migration time breakdown for both guards.
// Reconstructed Table 3. It moves one stateful guest back and forth between
// the two members of a seeded federation with Cluster.Migrate and reports
// the phase histograms the cluster keeps (ClusterStats.Phases). The ship
// phase reads the source's committed checkpoint, which crosses as it sits
// at rest (WireBytes); the improved guard's extra cost is its envelope —
// opened in the revive phase and sealed again in verify — with no RSA
// operation of its own.
func E6Migration(cfg Config) ([]E6Phases, error) {
	moves := cfg.reps(50, 4)
	var out []E6Phases
	for _, mode := range Modes {
		p, err := e6Mode(cfg, mode, moves)
		if err != nil {
			return nil, fmt.Errorf("E6 on %s: %w", mode, err)
		}
		out = append(out, p)
	}
	if cfg.Out != nil {
		rows := make([][]string, 0, len(out))
		for _, p := range out {
			row := []string{p.Mode.String()}
			for _, d := range p.Phases {
				row = append(row, metrics.Micros(d))
			}
			rows = append(rows, append(row, metrics.Micros(p.Total), fmt.Sprintf("%d", p.WireBytes)))
		}
		headers := []string{"guard"}
		for ph := cluster.Phase(0); ph < cluster.NumPhases; ph++ {
			headers = append(headers, ph.String())
		}
		metrics.Table(cfg.Out, "E6 / Table 3 — vTPM migration breakdown (mean µs)",
			append(headers, "total", "wire-bytes"), rows)
	}
	return out, nil
}

// e6Mode moves one guest moves times between the members of a two-member
// cluster in mode.
func e6Mode(cfg Config, mode xvtpm.Mode, moves int) (E6Phases, error) {
	p := E6Phases{Mode: mode}
	c, err := cluster.New(cluster.Config{Hosts: 2, Mode: mode, RSABits: cfg.bits(), Seed: []byte("e6-migration")})
	if err != nil {
		return p, err
	}
	defer c.Close()
	g, err := c.CreateGuestOn("h0", xvtpm.GuestConfig{Name: "traveler", Kernel: []byte("traveler-kernel")})
	if err != nil {
		return p, err
	}
	// Populate state so there is something to move.
	runner, err := workload.Prepare(g.TPM, 7, cfg.bits())
	if err != nil {
		return p, err
	}
	for i := 0; i < cfg.reps(20, 3); i++ {
		if err := runner.Step(workload.OpExtend); err != nil {
			return p, err
		}
	}
	var total time.Duration
	for i := 0; i < moves; i++ {
		start := time.Now()
		if err := c.Migrate("traveler", []string{"h1", "h0"}[i%2]); err != nil {
			return p, err
		}
		total += time.Since(start)
	}
	p.Total = total / time.Duration(moves)
	for ph, h := range c.ClusterStats().Phases {
		if h.Count > 0 {
			p.Phases[ph] = h.Sum / time.Duration(h.Count)
		}
	}
	owner, moved, err := c.Owner("traveler")
	if err != nil {
		return p, err
	}
	m, _ := c.Member(owner)
	blob, err := m.Host.Store.Get(vtpm.StateName(moved.Instance))
	if err != nil {
		return p, err
	}
	p.WireBytes = len(blob)
	return p, nil
}
