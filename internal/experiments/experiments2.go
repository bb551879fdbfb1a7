package experiments

import (
	"fmt"
	"time"

	"xvtpm"
	"xvtpm/internal/attack"
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
		factory := func() (*xvtpm.Host, *xvtpm.Guest, *xvtpm.Host, error) {
			h, err := newHost(cfg, mode, seeded("e4-"+mode.String()))
			if err != nil {
				return nil, nil, nil, err
			}
			g, err := h.CreateGuest(xvtpm.GuestConfig{Name: "victim", Kernel: []byte("victim-kernel")})
			if err != nil {
				return nil, nil, nil, err
			}
			peer, err := newHost(cfg, mode, seeded("e4-peer-"+mode.String()))
			if err != nil {
				return nil, nil, nil, err
			}
			return h, g, peer, nil
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

// E6Phases is the migration time breakdown for one mode.
type E6Phases struct {
	Mode      xvtpm.Mode
	Suspend   time.Duration // detach + unbind + domain save
	Transfer  time.Duration // export + encode + decode + import (includes guard crypto)
	Resume    time.Duration // domain restore + rebind
	Total     time.Duration
	WireBytes int // the encoded instance image
}

// E6Migration measures the vTPM migration time breakdown for both guards,
// reporting the median over several migrations. Reconstructed Table 3. The
// transfer phase is the fenced cluster handoff's transfer leg: the source
// exports the instance sealed to the destination's MigrationIdentity, the
// image crosses as vtpm.EncodeInstanceImage bytes (WireBytes), and the
// destination decodes and imports it. The saved domain image is handed
// over in memory, as the cluster does.
func E6Migration(cfg Config) ([]E6Phases, error) {
	samples := cfg.reps(7, 1)
	var out []E6Phases
	for _, mode := range Modes {
		var runs []E6Phases
		for s := 0; s < samples; s++ {
			src, err := newHost(cfg, mode)
			if err != nil {
				return nil, err
			}
			dst, err := newHost(cfg, mode)
			if err != nil {
				return nil, err
			}
			g, err := src.CreateGuest(xvtpm.GuestConfig{Name: "traveler", Kernel: []byte("traveler-kernel")})
			if err != nil {
				return nil, err
			}
			// Populate state so there is something to move.
			runner, err := workload.Prepare(g.TPM, 7, cfg.bits())
			if err != nil {
				return nil, err
			}
			for i := 0; i < cfg.reps(20, 3); i++ {
				if err := runner.Step(workload.OpExtend); err != nil {
					return nil, err
				}
			}

			var phases E6Phases
			phases.Mode = mode
			totalStart := time.Now()

			start := time.Now()
			domImg, err := src.BeginMigration(g)
			if err != nil {
				return nil, err
			}
			phases.Suspend = time.Since(start)

			start = time.Now()
			img, err := src.Manager.ExportInstance(g.Instance, dst.MigrationIdentity())
			if err != nil {
				return nil, fmt.Errorf("E6 export on %s: %w", mode, err)
			}
			wire := vtpm.EncodeInstanceImage(img)
			rimg, err := vtpm.DecodeInstanceImage(wire)
			if err != nil {
				return nil, fmt.Errorf("E6 decode on %s: %w", mode, err)
			}
			inst, err := dst.Manager.ImportInstance(rimg)
			if err != nil {
				return nil, fmt.Errorf("E6 import on %s: %w", mode, err)
			}
			phases.Transfer = time.Since(start)
			phases.WireBytes = len(wire)

			start = time.Now()
			dom, err := dst.HV.RestoreDomain(xen.Dom0, domImg)
			if err != nil {
				return nil, err
			}
			if err := dst.Manager.BindInstance(inst, dom); err != nil {
				return nil, err
			}
			phases.Resume = time.Since(start)
			phases.Total = time.Since(totalStart)
			runs = append(runs, phases)

			src.Manager.DestroyInstance(g.Instance)
			src.Close()
			dst.Close()
		}
		out = append(out, medianPhases(mode, runs))
	}
	if cfg.Out != nil {
		rows := make([][]string, 0, len(out))
		for _, p := range out {
			rows = append(rows, []string{
				p.Mode.String(),
				metrics.Micros(p.Suspend),
				metrics.Micros(p.Transfer),
				metrics.Micros(p.Resume),
				metrics.Micros(p.Total),
				fmt.Sprintf("%d", p.WireBytes),
			})
		}
		metrics.Table(cfg.Out, "E6 / Table 3 — vTPM migration breakdown (µs)",
			[]string{"guard", "suspend", "transfer", "resume", "total", "wire-bytes"}, rows)
	}
	return out, nil
}
