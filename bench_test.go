// Root benchmark suite: one benchmark family per reconstructed table/figure
// (E1–E8 in DESIGN.md; E6's migration benchmark lives with Cluster.Migrate
// in internal/cluster) plus the design-choice ablations (checkpoint policy,
// session reuse, channel crypto). `go test -bench . -benchmem` at the
// repository root reproduces the relative measurements; cmd/benchrunner
// prints the full evaluation (E1–E12) as formatted tables and series.
package xvtpm_test

import (
	"fmt"
	"testing"
	"time"

	"xvtpm"
	"xvtpm/internal/attack"
	"xvtpm/internal/core"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/workload"
	"xvtpm/internal/xen"
)

const benchBits = 512

var benchHostCtr int

func benchHost(b *testing.B, mode xvtpm.Mode, extra ...func(*xvtpm.HostConfig)) *xvtpm.Host {
	b.Helper()
	benchHostCtr++
	cfg := xvtpm.HostConfig{
		Name:    fmt.Sprintf("bench-%s-%d", mode, benchHostCtr),
		Mode:    mode,
		RSABits: benchBits,
	}
	for _, fn := range extra {
		fn(&cfg)
	}
	h, err := xvtpm.NewHost(cfg)
	if err != nil {
		b.Fatalf("NewHost: %v", err)
	}
	b.Cleanup(func() { h.Close() })
	return h
}

func benchGuestRunner(b *testing.B, h *xvtpm.Host, id int) *workload.Runner {
	b.Helper()
	g, err := h.CreateGuest(xvtpm.GuestConfig{
		Name:   fmt.Sprintf("bg-%d", id),
		Kernel: []byte(fmt.Sprintf("bk-%d", id)),
	})
	if err != nil {
		b.Fatalf("CreateGuest: %v", err)
	}
	r, err := workload.Prepare(g.TPM, id, benchBits)
	if err != nil {
		b.Fatalf("Prepare: %v", err)
	}
	return r
}

// BenchmarkE1PerCommand measures single-command latency through the full
// guarded path, per mode and per operation (reconstructed Table 1).
func BenchmarkE1PerCommand(b *testing.B) {
	ops := []workload.Op{
		workload.OpGetRandom, workload.OpExtend, workload.OpPCRRead,
		workload.OpSeal, workload.OpUnseal, workload.OpQuote,
	}
	for _, mode := range []xvtpm.Mode{xvtpm.ModeBaseline, xvtpm.ModeImproved} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			h := benchHost(b, mode)
			runner := benchGuestRunner(b, h, 1)
			for _, op := range ops {
				op := op
				b.Run(op.String(), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := runner.Step(op); err != nil {
							b.Fatalf("Step(%v): %v", op, err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkE2Throughput measures aggregate command throughput with N
// concurrent guests (reconstructed Figure 1). Reported ns/op is per
// command, aggregated across guests.
func BenchmarkE2Throughput(b *testing.B) {
	for _, mode := range []xvtpm.Mode{xvtpm.ModeBaseline, xvtpm.ModeImproved} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for _, guests := range []int{1, 4, 16} {
				guests := guests
				b.Run(fmt.Sprintf("guests=%d", guests), func(b *testing.B) {
					h := benchHost(b, mode, func(hc *xvtpm.HostConfig) { hc.Dom0Pages = 16384 })
					runners := make([]*workload.Runner, guests)
					for i := range runners {
						runners[i] = benchGuestRunner(b, h, i)
					}
					per := b.N/guests + 1
					b.ResetTimer()
					done := make(chan error, guests)
					for i, r := range runners {
						go func(i int, r *workload.Runner) {
							stream := workload.NewStream(workload.CheapMix, int64(i))
							for j := 0; j < per; j++ {
								if err := r.Step(stream.Next()); err != nil {
									done <- err
									return
								}
							}
							done <- nil
						}(i, r)
					}
					for range runners {
						if err := <-done; err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkE3CreateInstance measures vTPM instance creation, with and
// without the EK pool (reconstructed Figure 2 and its ablation).
func BenchmarkE3CreateInstance(b *testing.B) {
	for _, variant := range []struct {
		name string
		pool int
	}{{"no-pool", 0}, {"ek-pool", 16}} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			h := benchHost(b, xvtpm.ModeImproved, func(hc *xvtpm.HostConfig) {
				hc.EKPoolSize = variant.pool
				hc.Dom0Pages = 65536
			})
			if variant.pool > 0 {
				// Give the background generator a head start; steady-state
				// pool behaviour is what the figure compares.
				time.Sleep(300 * time.Millisecond)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Manager.CreateInstance(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4AttackMatrix runs the full six-attack matrix against each
// guard (reconstructed Table 2); ns/op is the cost of one full matrix.
func BenchmarkE4AttackMatrix(b *testing.B) {
	for _, mode := range []xvtpm.Mode{xvtpm.ModeBaseline, xvtpm.ModeImproved} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			factory := func() (*xvtpm.Host, *xvtpm.Guest, *xvtpm.Host, error) {
				benchHostCtr++
				h, err := xvtpm.NewHost(xvtpm.HostConfig{
					Name: fmt.Sprintf("b4-%s-%d", mode, benchHostCtr), Mode: mode, RSABits: benchBits,
				})
				if err != nil {
					return nil, nil, nil, err
				}
				g, err := h.CreateGuest(xvtpm.GuestConfig{Name: "v", Kernel: []byte("vk")})
				if err != nil {
					return nil, nil, nil, err
				}
				benchHostCtr++
				peer, err := xvtpm.NewHost(xvtpm.HostConfig{
					Name: fmt.Sprintf("b4p-%s-%d", mode, benchHostCtr), Mode: mode, RSABits: benchBits,
				})
				if err != nil {
					return nil, nil, nil, err
				}
				return h, g, peer, nil
			}
			wantSuccess := mode == xvtpm.ModeBaseline
			for i := 0; i < b.N; i++ {
				results, err := attack.RunMatrix(factory)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Succeeded != wantSuccess {
						b.Fatalf("unexpected outcome: %s", r)
					}
				}
			}
		})
	}
}

// BenchmarkE5PolicyDecision measures one access-control decision at several
// policy sizes, cached and uncached (reconstructed Figure 3).
func BenchmarkE5PolicyDecision(b *testing.B) {
	subject := xen.MeasureLaunch([]byte("subject"), nil, "")
	for _, cached := range []bool{false, true} {
		cached := cached
		name := "uncached"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			for _, rules := range []int{16, 256, 4096} {
				rules := rules
				b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
					rs := make([]core.Rule, 0, rules)
					for i := 0; i < rules-1; i++ {
						rs = append(rs, core.Rule{
							Identity: xen.MeasureLaunch([]byte{byte(i), byte(i >> 8)}, nil, "x"),
							Instance: vtpm.InstanceID(i + 100),
							Group:    core.GroupNV,
							Effect:   core.Allow,
						})
					}
					rs = append(rs, core.Rule{Identity: subject, Instance: 1, Group: core.GroupPCR, Effect: core.Allow})
					p := core.NewPolicy(rs...)
					p.SetCache(cached)
					p.Evaluate(tpm.Profile12, subject, 1, tpm.OrdExtend) // warm
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if p.Evaluate(tpm.Profile12, subject, 1, tpm.OrdExtend) != core.Allow {
							b.Fatal("unexpected deny")
						}
					}
				})
			}
		})
	}
}

// BenchmarkE7DumpScan measures the attacker's dump-and-scan sampling cost,
// the probe frequency behind the exposure-window figure (Figure 4).
func BenchmarkE7DumpScan(b *testing.B) {
	h := benchHost(b, xvtpm.ModeImproved, func(hc *xvtpm.HostConfig) { hc.Dom0Pages = 1024 })
	_ = benchGuestRunner(b, h, 1)
	probes := []attack.Probe{attack.StateMagicProbe}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attack.DumpAndScan(h.HV, xen.Dom0, probes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8StateProtect measures the state checkpoint path (serialize +
// guard protection) and reports the stored blob size (reconstructed
// Table 4).
func BenchmarkE8StateProtect(b *testing.B) {
	for _, mode := range []xvtpm.Mode{xvtpm.ModeBaseline, xvtpm.ModeImproved} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			h := benchHost(b, mode)
			g, err := h.CreateGuest(xvtpm.GuestConfig{Name: "s", Kernel: []byte("sk")})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.Manager.Checkpoint(g.Instance); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			blob, err := h.Store.Get(fmt.Sprintf("vtpm-%08d.state", g.Instance))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(blob)), "blob-bytes")
		})
	}
}

// BenchmarkConcurrentGuests measures multi-instance dispatch scaling
// (experiment E11): N guests each drive their own GetRandom stream from
// their own goroutine, so the benchmark isolates cross-instance lock
// contention on the manager/guard path rather than engine cost (GetRandom
// does no RSA and is not checkpointed). With the per-instance concurrency
// model, aggregate ns/op should hold roughly flat as guests grow; a global
// dispatch lock would instead serialize all lanes. Reported ns/op is per
// command, aggregated across guests.
func BenchmarkConcurrentGuests(b *testing.B) {
	for _, mode := range []xvtpm.Mode{xvtpm.ModeBaseline, xvtpm.ModeImproved} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for _, guests := range []int{1, 4, 16, 64} {
				guests := guests
				b.Run(fmt.Sprintf("guests=%d", guests), func(b *testing.B) {
					h := benchHost(b, mode, func(hc *xvtpm.HostConfig) { hc.Dom0Pages = 65536 })
					gs := make([]*xvtpm.Guest, guests)
					for i := range gs {
						g, err := h.CreateGuest(xvtpm.GuestConfig{
							Name:   fmt.Sprintf("cg-%d", i),
							Kernel: []byte(fmt.Sprintf("cgk-%d", i)),
						})
						if err != nil {
							b.Fatalf("CreateGuest: %v", err)
						}
						gs[i] = g
					}
					per := b.N/guests + 1
					b.ResetTimer()
					done := make(chan error, guests)
					for _, g := range gs {
						go func(g *xvtpm.Guest) {
							for j := 0; j < per; j++ {
								if _, err := g.TPM.GetRandom(16); err != nil {
									done <- err
									return
								}
							}
							done <- nil
						}(g)
					}
					for range gs {
						if err := <-done; err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkE12CheckpointPolicy measures mutation-heavy throughput through
// the full guest path (client → ring → backend → guard → engine) under each
// checkpoint policy (experiment E12). Four guests each drive a concurrent
// Extend stream — every command mutates state, so eager persistence reseals
// and rewrites the state envelope per command while writeback coalesces the
// burst into background checkpoints. Reported ns/op is per command,
// aggregated across guests.
func BenchmarkE12CheckpointPolicy(b *testing.B) {
	policies := []vtpm.CheckpointPolicy{
		vtpm.CheckpointEager, vtpm.CheckpointWriteback, vtpm.CheckpointDeferred,
	}
	const guests = 4
	for _, pol := range policies {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			h := benchHost(b, xvtpm.ModeImproved, func(hc *xvtpm.HostConfig) {
				hc.Checkpoint = pol
				hc.Dom0Pages = 16384
			})
			gs := make([]*xvtpm.Guest, guests)
			for i := range gs {
				g, err := h.CreateGuest(xvtpm.GuestConfig{
					Name:   fmt.Sprintf("e12-%d", i),
					Kernel: []byte(fmt.Sprintf("e12k-%d", i)),
				})
				if err != nil {
					b.Fatalf("CreateGuest: %v", err)
				}
				gs[i] = g
			}
			per := b.N/guests + 1
			b.ResetTimer()
			done := make(chan error, guests)
			for i, g := range gs {
				go func(i int, g *xvtpm.Guest) {
					var m [20]byte
					m[0] = byte(i)
					for j := 0; j < per; j++ {
						m[1], m[2] = byte(j), byte(j>>8)
						if _, err := g.TPM.Extend(uint32(8+i), m); err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}(i, g)
			}
			for range gs {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCheckpointPolicy compares the three checkpoint policies
// on an Extend-heavy stream — the durability-vs-throughput design choice
// DESIGN.md calls out. Dispatch is driven directly (no ring, no channel
// crypto) so the measurement isolates the persistence cost itself: eager
// serializes and rewrites the state blob inside the dispatch path on every
// mutation (stock behaviour), writeback coalesces mutations into background
// checkpoints bounded by the dirty window, deferred never persists (the
// durability floor the other two are measured against).
func BenchmarkAblationCheckpointPolicy(b *testing.B) {
	policies := []vtpm.CheckpointPolicy{
		vtpm.CheckpointEager, vtpm.CheckpointWriteback, vtpm.CheckpointDeferred,
	}
	for _, pol := range policies {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 8192})
			dom0, err := hv.Domain(xen.Dom0)
			if err != nil {
				b.Fatal(err)
			}
			mgr := vtpm.NewManager(hv, vtpm.NewMemStore(), xen.NewArena(dom0),
				core.NewBaselineGuard(), vtpm.ManagerConfig{
					RSABits: benchBits, Seed: []byte("ablate"), Checkpoint: pol,
				})
			defer mgr.Close()
			dom, err := hv.CreateDomain(xen.DomainConfig{Name: "g", Kernel: []byte("k")})
			if err != nil {
				b.Fatal(err)
			}
			id, err := mgr.CreateInstance()
			if err != nil {
				b.Fatal(err)
			}
			if err := mgr.BindInstance(id, dom); err != nil {
				b.Fatal(err)
			}
			m := [20]byte{1}
			cmd := tpm.NewWriter()
			cmd.U16(tpm.TagRQUCommand)
			cmd.U32(uint32(10 + 4 + len(m)))
			cmd.U32(tpm.OrdExtend)
			cmd.U32(7)
			cmd.Raw(m[:])
			payload := cmd.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mgr.Dispatch(dom.ID(), dom.Launch(), payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSessionReuse compares one-shot authorization sessions
// (one extra OIAP round trip per authorized command, the stock tools'
// behaviour) against the client's session cache, over the full vTPM path.
func BenchmarkAblationSessionReuse(b *testing.B) {
	for _, cached := range []bool{false, true} {
		cached := cached
		name := "one-shot"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			h := benchHost(b, xvtpm.ModeImproved)
			g, err := h.CreateGuest(xvtpm.GuestConfig{Name: "s", Kernel: []byte("sk")})
			if err != nil {
				b.Fatal(err)
			}
			owner := [20]byte{1}
			srk := [20]byte{2}
			if _, err := g.TPM.TakeOwnership(owner, srk); err != nil {
				b.Fatal(err)
			}
			if cached {
				g.TPM.EnableSessionCache()
			}
			if _, err := g.TPM.GetPubKey(tpm.KHSRK, srk); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.TPM.GetPubKey(tpm.KHSRK, srk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChannelEnvelope isolates the improved design's per-command
// channel crypto (ablation: the fixed cost it adds to every exchange).
func BenchmarkChannelEnvelope(b *testing.B) {
	h := benchHost(b, xvtpm.ModeImproved)
	g, err := h.CreateGuest(xvtpm.GuestConfig{Name: "c", Kernel: []byte("ck")})
	if err != nil {
		b.Fatal(err)
	}
	codec, err := h.Manager.EncoderFor(g.Instance)
	if err != nil {
		b.Fatal(err)
	}
	cmd := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := codec.EncodeRequest(nil, cmd); err != nil {
			b.Fatal(err)
		}
	}
}
