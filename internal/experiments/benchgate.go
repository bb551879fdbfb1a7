package experiments

// The benchmark-regression gate: a small fixed suite of hot-path benchmarks
// whose results are serialized as JSON (BENCH_<n>.json in the repo root is
// the committed baseline) and compared against a baseline by `benchrunner
// -check`. CI runs the suite on every push and fails the gate job when a
// benchmark regresses by more than the tolerance in ns/op or grows its
// allocs/op. Absolute numbers vary across machines — the gate is advisory
// (continue-on-error in CI) but loud, and the same machine comparing against
// its own fresh baseline (make bench-gate) is authoritative.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"xvtpm"
	"xvtpm/internal/cluster"
	"xvtpm/internal/core"
	"xvtpm/internal/metrics"
	"xvtpm/internal/store/logstore"
	"xvtpm/internal/tpm"
	"xvtpm/internal/trace"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/workload"
	"xvtpm/internal/xen"
)

// BenchSchema tags bench-report JSON so a -check against a file from some
// other tool fails loudly instead of comparing nonsense.
const BenchSchema = "xvtpm-bench/v1"

// DefaultBenchTolerance is the relative ns/op regression that fails the
// gate: 15%, wide enough for shared-runner noise, narrow enough to catch a
// reintroduced lock or copy on the hot path.
const DefaultBenchTolerance = 0.15

// allocGrowthTolerance is the allocs/op increase that fails the gate.
// Steady-state allocation counts are near-deterministic; the half-object
// allowance absorbs background-worker scheduling jitter only.
const allocGrowthTolerance = 0.5

// allocNoiseRel widens the allowance for bulk rows like ReviveAll10k, whose
// millions of allocs/op jitter a few percent with GC scheduling: growth must
// exceed both the absolute half-object floor and this relative slack to
// fail. Hot-path rows (tens of allocs) are still governed by the absolute
// floor.
const allocNoiseRel = 0.05

// BenchResult is one benchmark's measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// P95Ns is the p95 end-to-end dispatch latency observed by the
	// manager's histograms during the run (0 for micro-benchmarks that do
	// not cross the dispatch path).
	P95Ns float64 `json:"p95_ns,omitempty"`
}

// BenchReport is the serialized result set of one suite run.
type BenchReport struct {
	Schema  string        `json:"schema"`
	Bits    int           `json:"bits"`
	Results []BenchResult `json:"results"`
}

// WriteJSON serializes the report (indented, trailing newline).
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseBenchReport decodes and validates a serialized report.
func ParseBenchReport(data []byte) (*BenchReport, error) {
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing bench report: %w", err)
	}
	if r.Schema != BenchSchema {
		return nil, fmt.Errorf("bench report schema %q, want %q", r.Schema, BenchSchema)
	}
	return &r, nil
}

// ReadBenchReport loads a baseline file.
func ReadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseBenchReport(data)
}

// LatestBaseline resolves the highest-numbered BENCH_<n>.json in dir, so
// Makefile and CI reference "auto" instead of hard-coding the current
// baseline and editing two files on every bump.
func LatestBaseline(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		var n int
		if _, err := fmt.Sscanf(name, "BENCH_%d.json", &n); err != nil {
			continue
		}
		// Reject partial matches like BENCH_9.json.bak: re-render and compare.
		if fmt.Sprintf("BENCH_%d.json", n) != name {
			continue
		}
		if n > bestN {
			bestN, best = n, name
		}
	}
	if bestN < 0 {
		return "", fmt.Errorf("experiments: no BENCH_<n>.json baseline in %s", dir)
	}
	return filepath.Join(dir, best), nil
}

// benchCmd builds a raw marshaled TPM command (baseline-guard framing).
func benchCmd(ordinal uint32, params func(*tpm.Writer)) []byte {
	p := tpm.NewWriter()
	params(p)
	w := tpm.NewWriter()
	w.U16(tpm.TagRQUCommand)
	w.U32(uint32(10 + len(p.Bytes())))
	w.U32(ordinal)
	w.Raw(p.Bytes())
	return w.Bytes()
}

// benchRig is a writeback-policy manager with one bound domain — the same
// rig the alloc guard measures, so gate numbers and alloc budgets describe
// the same path.
type benchRig struct {
	mgr *vtpm.Manager
	dom *xen.Domain
}

// newBenchRig builds the rig; traceDepth is passed through to the manager
// (0 = default span ring, negative disables tracing — the E14 ablation).
func newBenchRig(bits, traceDepth int) (*benchRig, error) {
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 8192})
	dom0, err := hv.Domain(xen.Dom0)
	if err != nil {
		return nil, err
	}
	mgr := vtpm.NewManager(hv, vtpm.NewMemStore(), xen.NewArena(dom0),
		core.NewBaselineGuard(), vtpm.ManagerConfig{
			RSABits: bits, Seed: []byte("benchgate"),
			Checkpoint: vtpm.CheckpointWriteback,
			TraceDepth: traceDepth,
		})
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: "bg", Kernel: []byte("bgk")})
	if err != nil {
		mgr.Close() //nolint:errcheck // constructor failure path
		return nil, err
	}
	id, err := mgr.CreateInstance()
	if err == nil {
		err = mgr.BindInstance(id, dom)
	}
	if err != nil {
		mgr.Close() //nolint:errcheck // constructor failure path
		return nil, err
	}
	return &benchRig{mgr: mgr, dom: dom}, nil
}

func (r *benchRig) dispatchBench(payload []byte) (testing.BenchmarkResult, float64, error) {
	// Warm scratch buffers before measuring, as the alloc guard does.
	for i := 0; i < 100; i++ {
		if _, err := r.mgr.Dispatch(r.dom.ID(), r.dom.Launch(), payload); err != nil {
			return testing.BenchmarkResult{}, 0, err
		}
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.mgr.Dispatch(r.dom.ID(), r.dom.Launch(), payload); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	return res, float64(r.mgr.DispatchStats().Total.P95), benchErr
}

// RunBenchSuite runs the gate's benchmark suite. With names, only the named
// benchmarks run (for tests). Quick mode trims nothing — testing.Benchmark
// self-calibrates — but the suite is small by design (~10s total).
func RunBenchSuite(cfg Config, names ...string) (*BenchReport, error) {
	wanted := func(name string) bool {
		if len(names) == 0 {
			return true
		}
		for _, n := range names {
			if n == name {
				return true
			}
		}
		return false
	}
	rep := &BenchReport{Schema: BenchSchema, Bits: cfg.bits()}
	add := func(name string, res testing.BenchmarkResult, p95 float64) {
		rep.Results = append(rep.Results, BenchResult{
			Name:        name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: float64(res.AllocsPerOp()),
			P95Ns:       p95,
		})
	}

	getRandom := benchCmd(tpm.OrdGetRandom, func(w *tpm.Writer) { w.U32(16) })
	extend := benchCmd(tpm.OrdExtend, func(w *tpm.Writer) {
		w.U32(7)
		w.Raw(make([]byte, tpm.DigestSize))
	})
	for _, bc := range []struct {
		name    string
		payload []byte
	}{
		{"DispatchGetRandom", getRandom},
		{"DispatchExtend", extend},
	} {
		if !wanted(bc.name) {
			continue
		}
		rig, err := newBenchRig(cfg.bits(), 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bc.name, err)
		}
		res, p95, err := rig.dispatchBench(bc.payload)
		cerr := rig.mgr.Close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bc.name, err)
		}
		add(bc.name, res, p95)
	}

	if wanted("GuestGetRandom") {
		// The full guarded path: client → ring → backend → improved guard →
		// engine, the per-command figure the paper's tables are about.
		h, err := newHost(cfg, xvtpm.ModeImproved)
		if err != nil {
			return nil, fmt.Errorf("GuestGetRandom: %w", err)
		}
		g, err := h.CreateGuest(xvtpm.GuestConfig{Name: "bench", Kernel: []byte("bk")})
		if err == nil {
			for i := 0; i < 50; i++ { // warm the codec and response buffers
				if _, err = g.TPM.GetRandom(16); err != nil {
					break
				}
			}
		}
		if err != nil {
			h.Close() //nolint:errcheck // constructor failure path
			return nil, fmt.Errorf("GuestGetRandom: %w", err)
		}
		var benchErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.TPM.GetRandom(16); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		p95 := float64(h.Manager.DispatchStats().Total.P95)
		cerr := h.Close()
		if benchErr == nil {
			benchErr = cerr
		}
		if benchErr != nil {
			return nil, fmt.Errorf("GuestGetRandom: %w", benchErr)
		}
		add("GuestGetRandom", res, p95)
	}

	// Per-profile rows: the same logical op through each profile's wire
	// protocol over the full guarded path. The 12/20 pairs make a protocol
	// regression in either backend visible without changing the gate's
	// cross-profile expectations (absolute costs legitimately differ — 2.0
	// extends two PCR banks, and its quote signs with a different key
	// hierarchy than the 1.2 workload key).
	for _, pc := range []struct {
		name    string
		profile tpm.Profile
		setup   func(*xvtpm.Guest) (func() error, error)
	}{
		{"GuestExtend12", tpm.Profile12, func(g *xvtpm.Guest) (func() error, error) {
			var digest [tpm.DigestSize]byte
			return func() error { _, err := g.TPM.Extend(7, digest); return err }, nil
		}},
		{"GuestExtend20", tpm.Profile20, func(g *xvtpm.Guest) (func() error, error) {
			event := []byte("bench-event")
			return func() error { return g.TPM2.Extend(7, event) }, nil
		}},
		{"GuestQuote12", tpm.Profile12, func(g *xvtpm.Guest) (func() error, error) {
			r, err := workload.Prepare(g.TPM, 1, cfg.bits())
			if err != nil {
				return nil, err
			}
			return func() error { return r.Step(workload.OpQuote) }, nil
		}},
		{"GuestQuote20", tpm.Profile20, func(g *xvtpm.Guest) (func() error, error) {
			nonce := []byte("bench-nonce")
			pcrs := []int{0, 1, 10}
			return func() error { _, _, err := g.TPM2.Quote(nonce, pcrs); return err }, nil
		}},
	} {
		if !wanted(pc.name) {
			continue
		}
		res, p95, err := guestProfileBench(cfg, pc.profile, pc.setup)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pc.name, err)
		}
		add(pc.name, res, p95)
	}

	for _, tc := range []struct {
		name  string
		depth int
	}{
		// The same 8-way concurrent offered load against a lockstep (depth-1)
		// and a pipelined (depth-8) frontend: the pair demonstrates what ring
		// batching and the pending table buy in sustained commands/sec.
		{"GuestLockstepThroughput", 1},
		{"GuestPipelinedThroughput", 8},
	} {
		if !wanted(tc.name) {
			continue
		}
		res, p95, err := guestThroughputBench(cfg, tc.depth)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tc.name, err)
		}
		add(tc.name, res, p95)
	}

	if wanted("HistogramRecord") {
		h := metrics.NewHistogram(nil)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Record(time.Duration(i))
			}
		})
		add("HistogramRecord", res, 0)
	}

	if wanted("SpanRecord") {
		tr := trace.New(trace.Config{})
		ring := tr.NewRing()
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			sp := trace.Span{Instance: 1, Ordinal: tpm.OrdGetRandom}
			for i := 0; i < b.N; i++ {
				ring.Record(sp)
			}
		})
		add("SpanRecord", res, 0)
	}

	// Signing-pool row (DESIGN.md §14): the quote path with the RSA
	// signature on the pool, one sequential client on an otherwise idle
	// engine — the deferred handoff must not tax the single-quote cost.
	if wanted("QuoteSignPooled") {
		res, err := signPoolBench(cfg)
		if err != nil {
			return nil, fmt.Errorf("QuoteSignPooled: %w", err)
		}
		add("QuoteSignPooled", res, 0)
	}

	// Store rows: the log-structured backend's three hot paths — concurrent
	// group-committed Puts (checkpoint flush waves), log replay (cold-start
	// index rebuild), and a full 10k-instance ReviveAll through the manager.

	if wanted("StorePutGroupCommit") {
		// 8-way concurrent checkpoint writers over a modeled 25µs flush: the
		// group-commit window must amortize the flush across the batch, so
		// ns/op lands well under what a serialized flush per Put would cost
		// (the sleep's effective granularity on the host, not its nominal
		// 25µs — E17 measures the flat-vs-grouped ratio directly).
		ls := logstore.New(logstore.Config{
			SyncDelay: 25 * time.Microsecond, NotFound: vtpm.ErrNoState,
		})
		names := make([]string, 4096)
		for i := range names {
			names[i] = fmt.Sprintf("vtpm-%08d.state", i)
		}
		blob := make([]byte, 512)
		var next atomic.Uint64
		var benchErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.SetParallelism(8)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					if err := ls.Put(names[i%uint64(len(names))], blob); err != nil {
						benchErr = err
						return
					}
				}
			})
		})
		if benchErr != nil {
			return nil, fmt.Errorf("StorePutGroupCommit: %w", benchErr)
		}
		add("StorePutGroupCommit", res, 0)
	}

	if wanted("StoreRecoverReplay") || wanted("ReviveAll10k") {
		// Both recovery rows share one prebuilt 10k-blob log. ReviveAll needs
		// real checkpoint blobs, so one donor engine is serialized once and
		// its baseline-guard wrapping (plaintext, ID-independent) is reused
		// under every instance name.
		eng, err := tpm.NewEngine(tpm.Profile12, tpm.Config{RSABits: cfg.bits(), Seed: []byte("benchgate-donor")})
		if err != nil {
			return nil, fmt.Errorf("store bench donor: %w", err)
		}
		if err := tpm.StartupEngine(eng); err != nil {
			return nil, fmt.Errorf("store bench donor: %w", err)
		}
		blob, err := core.NewBaselineGuard().ProtectState(
			vtpm.InstanceInfo{ID: 1, Profile: tpm.Profile12}, nil, eng.AppendState(nil))
		if err != nil {
			return nil, fmt.Errorf("store bench donor: %w", err)
		}
		const fleet = 10000
		seeded := logstore.New(logstore.Config{NotFound: vtpm.ErrNoState, DisableAutoCompact: true})
		for i := 1; i <= fleet; i++ {
			if err := seeded.Put(fmt.Sprintf("vtpm-%08d.state", i), blob); err != nil {
				return nil, fmt.Errorf("store bench seed: %w", err)
			}
		}
		disk := seeded.Disk()

		if wanted("StoreRecoverReplay") {
			// Warm the heap to steady state first: the opening iterations
			// grow the index maps and scan buffers from nothing, and that
			// one-time growth is noise, not replay cost.
			for i := 0; i < 3; i++ {
				if _, _, err := logstore.Open(disk, logstore.Config{NotFound: vtpm.ErrNoState}); err != nil {
					return nil, fmt.Errorf("StoreRecoverReplay: %w", err)
				}
			}
			var benchErr error
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := logstore.Open(disk, logstore.Config{NotFound: vtpm.ErrNoState}); err != nil {
						benchErr = err
						b.FailNow()
					}
				}
			})
			if benchErr != nil {
				return nil, fmt.Errorf("StoreRecoverReplay: %w", benchErr)
			}
			add("StoreRecoverReplay", res, 0)
		}

		if wanted("ReviveAll10k") {
			hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 8192})
			dom0, err := hv.Domain(xen.Dom0)
			if err != nil {
				return nil, fmt.Errorf("ReviveAll10k: %w", err)
			}
			ls, _, err := logstore.Open(disk, logstore.Config{NotFound: vtpm.ErrNoState})
			if err != nil {
				return nil, fmt.Errorf("ReviveAll10k: %w", err)
			}
			var benchErr error
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					mgr := vtpm.NewManager(hv, ls, xen.NewArena(dom0),
						core.NewBaselineGuard(), vtpm.ManagerConfig{
							RSABits: cfg.bits(), TraceDepth: -1,
						})
					b.StartTimer()
					revived, err := mgr.ReviveAll()
					b.StopTimer()
					if err == nil && len(revived) != fleet {
						err = fmt.Errorf("revived %d of %d", len(revived), fleet)
					}
					if cerr := mgr.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						benchErr = err
						b.FailNow()
					}
					b.StartTimer()
				}
			})
			if benchErr != nil {
				return nil, fmt.Errorf("ReviveAll10k: %w", benchErr)
			}
			add("ReviveAll10k", res, 0)
		}
	}

	// Federation rows: the cluster package's three operational paths
	// (DESIGN.md §12) as wall-clock figures — ns/op is elapsed time over
	// instances moved or revived, so the gate catches a serialization or
	// extra-flush regression in the handoff pipeline.

	if wanted("DrainThroughput") {
		// Mass drain: a 256-guest fleet off one host through the bounded
		// worker pipeline; ns/op is the per-instance move cost at 16 workers.
		c, err := newBenchCluster(cfg)
		if err != nil {
			return nil, fmt.Errorf("DrainThroughput: %w", err)
		}
		const fleet = 256
		if _, err := e18CreateFleet(c, "h0", fleet, 16); err != nil {
			c.Close() //nolint:errcheck // constructor failure path
			return nil, fmt.Errorf("DrainThroughput: %w", err)
		}
		ds, err := c.Drain("h0", 16)
		if err == nil && (ds.Failed > 0 || ds.Moved != fleet) {
			err = fmt.Errorf("moved %d, failed %d of %d", ds.Moved, ds.Failed, fleet)
		}
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("DrainThroughput: %w", err)
		}
		add("DrainThroughput", testing.BenchmarkResult{N: ds.Moved, T: ds.Elapsed}, 0)
	}

	if wanted("MigrateBlackoutP99") {
		// The guest-visible pause of one fenced handoff: one guest
		// ping-ponged between two hosts with a live session extending
		// throughout; ns/op is the blackout p99 across the moves. The row
		// is ceiling-gated (see blackoutCeiling), not baseline-gated: a
		// tail statistic over a few dozen moves is too noisy for a
		// relative tolerance.
		c, err := newBenchCluster(cfg)
		if err != nil {
			return nil, fmt.Errorf("MigrateBlackoutP99: %w", err)
		}
		err = func() error {
			if _, err := c.CreateGuestOn("h0", xvtpm.GuestConfig{
				Name: "bench", Kernel: []byte("bk"), Pages: 16,
			}); err != nil {
				return err
			}
			s := c.Session("bench")
			var stop atomic.Bool
			done := make(chan error, 1)
			go func() {
				var digest [tpm.DigestSize]byte
				for !stop.Load() {
					digest[0]++
					if _, err := s.Extend(8, digest); err != nil {
						done <- err
						return
					}
				}
				done <- s.Verify()
			}()
			const moves = 30
			for i := 0; i < moves; i++ {
				dst := "h1"
				if i%2 == 1 {
					dst = "h0"
				}
				if err := c.Migrate("bench", dst); err != nil {
					stop.Store(true)
					<-done
					return err
				}
			}
			stop.Store(true)
			return <-done
		}()
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("MigrateBlackoutP99: %w", err)
		}
		p99 := c.ClusterStats().Blackout.Quantile(0.99)
		add("MigrateBlackoutP99", testing.BenchmarkResult{N: 1, T: p99}, 0)
	}

	if wanted("EvacuateDeadHost") {
		// Failure-driven evacuation: a condemned host's 128 guests revived
		// from committed checkpoints on the survivor; ns/op is the
		// per-instance revival cost at 16 workers.
		c, err := newBenchCluster(cfg)
		if err != nil {
			return nil, fmt.Errorf("EvacuateDeadHost: %w", err)
		}
		const fleet = 128
		var es cluster.EvacStats
		err = func() error {
			if _, err := e18CreateFleet(c, "h1", fleet, 16); err != nil {
				return err
			}
			h1, _ := c.Member("h1")
			if err := h1.Host.Manager.CheckpointAll(); err != nil {
				return err
			}
			if err := c.Condemn("h1"); err != nil {
				return err
			}
			var eerr error
			es, eerr = c.Evacuate("h1", 16)
			if eerr == nil && (es.Failed > 0 || es.Revived != fleet) {
				eerr = fmt.Errorf("revived %d, failed %d of %d", es.Revived, es.Failed, fleet)
			}
			return eerr
		}()
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("EvacuateDeadHost: %w", err)
		}
		add("EvacuateDeadHost", testing.BenchmarkResult{N: es.Revived, T: es.Elapsed}, 0)
	}

	return rep, nil
}

// newBenchCluster builds the two-host federation the gate's cluster rows
// run against.
func newBenchCluster(cfg Config) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Hosts:     2,
		Mode:      xvtpm.ModeImproved,
		RSABits:   cfg.bits(),
		Seed:      []byte("benchgate-cluster"),
		Dom0Pages: 1 << 17,
	})
}

// guestProfileBench builds an improved-mode host, creates one guest of the
// given profile, and benchmarks the closure setup returns against it.
func guestProfileBench(cfg Config, profile tpm.Profile, setup func(*xvtpm.Guest) (func() error, error)) (testing.BenchmarkResult, float64, error) {
	h, err := newHost(cfg, xvtpm.ModeImproved)
	if err != nil {
		return testing.BenchmarkResult{}, 0, err
	}
	g, err := h.CreateGuest(xvtpm.GuestConfig{Name: "bench", Kernel: []byte("bk"), Profile: profile})
	var op func() error
	if err == nil {
		op, err = setup(g)
	}
	if err == nil {
		for i := 0; i < 50; i++ { // warm the codec and response buffers
			if err = op(); err != nil {
				break
			}
		}
	}
	if err != nil {
		h.Close() //nolint:errcheck // constructor failure path
		return testing.BenchmarkResult{}, 0, err
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	p95 := float64(h.Manager.DispatchStats().Total.P95)
	cerr := h.Close()
	if benchErr == nil {
		benchErr = cerr
	}
	if benchErr != nil {
		return testing.BenchmarkResult{}, 0, benchErr
	}
	return res, p95, nil
}

// signPoolBench builds a direct-transport 1.2 engine whose signatures run
// through a default signing pool, provisions one signing key, and measures
// sequential Quote on the deferred path.
func signPoolBench(cfg Config) (testing.BenchmarkResult, error) {
	pool := tpm.NewSignPool(tpm.SignPoolConfig{})
	defer pool.Close()
	eng, err := tpm.NewEngine(tpm.Profile12, tpm.Config{
		RSABits: cfg.bits(), Seed: []byte("benchgate-sign"), Signer: pool,
	})
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	var auth [tpm.AuthSize]byte
	copy(auth[:], "benchgate-sign-auth")
	cli := tpm.NewClient(tpm.DirectTransport{TPM: eng}, nil)
	if err := cli.Startup(tpm.STClear); err != nil {
		return testing.BenchmarkResult{}, err
	}
	if _, err := cli.TakeOwnership(auth, auth); err != nil {
		return testing.BenchmarkResult{}, err
	}
	blob, err := cli.CreateWrapKey(tpm.KHSRK, auth, auth, tpm.KeyParams{
		Usage: tpm.KeyUsageSigning, Scheme: tpm.SSRSASSAPKCS1v15SHA1, Bits: uint32(cfg.bits()),
	})
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	key, err := cli.LoadKey2(tpm.KHSRK, auth, blob)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	sel := tpm.NewPCRSelection(0, 1, 10)
	quote := func(n int) error {
		var nonce [tpm.NonceSize]byte
		nonce[0], nonce[1], nonce[2] = byte(n), byte(n>>8), byte(n>>16)
		_, err := cli.Quote(key, auth, nonce, sel)
		return err
	}
	for i := 0; i < 20; i++ { // warm the codec and the pool's worker path
		if err := quote(i); err != nil {
			return testing.BenchmarkResult{}, err
		}
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := quote(i); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	if benchErr != nil {
		return testing.BenchmarkResult{}, benchErr
	}
	return res, nil
}

// benchEventLatency is the modelled event-channel delivery cost the
// throughput benchmarks run under: on real Xen every doorbell is a
// hypercall plus an upcall into the peer domain — tens of microseconds
// once scheduling is counted — and amortizing that cost is what ring
// batching and doorbell suppression exist for. Both depth rows pay the
// same modelled cost, so the lockstep/pipelined ratio isolates the
// transport discipline. Latency-oriented benchmarks (GuestGetRandom and
// friends) keep delivery instantaneous.
const benchEventLatency = 25 * time.Microsecond

// guestThroughputBench drives one improved-mode guest with 8 concurrent
// submitters at the given pipeline depth and reports inverse throughput:
// ns/op is wall time divided by completed commands across all workers.
func guestThroughputBench(cfg Config, depth int) (testing.BenchmarkResult, float64, error) {
	h, err := newHost(cfg, xvtpm.ModeImproved, func(hc *xvtpm.HostConfig) {
		hc.PipelineDepth = depth
		hc.EventLatency = benchEventLatency
	})
	if err != nil {
		return testing.BenchmarkResult{}, 0, err
	}
	g, err := h.CreateGuest(xvtpm.GuestConfig{Name: "bench", Kernel: []byte("bk")})
	if err == nil {
		for i := 0; i < 50; i++ {
			if _, err = g.TPM.GetRandom(16); err != nil {
				break
			}
		}
	}
	if err != nil {
		h.Close() //nolint:errcheck // constructor failure path
		return testing.BenchmarkResult{}, 0, err
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := g.TPM.GetRandom(16); err != nil {
					benchErr = err
					return
				}
			}
		})
	})
	p95 := float64(h.Manager.DispatchStats().Total.P95)
	cerr := h.Close()
	if benchErr == nil {
		benchErr = cerr
	}
	if benchErr != nil {
		return testing.BenchmarkResult{}, 0, benchErr
	}
	return res, p95, nil
}

// BenchDelta is one benchmark's baseline-vs-current comparison.
type BenchDelta struct {
	Name    string
	Base    BenchResult
	Cur     BenchResult
	NsRatio float64 // cur/base - 1; +0.20 is a 20% regression
	Missing bool    // benchmark present in baseline, absent in current
	// New marks a benchmark present in the current run but absent from the
	// baseline: an informational addition, never a gate failure. It surfaces
	// in the report so a fresh baseline (which would fold the new benchmark
	// in) is an explicit, reviewed step rather than a silent one.
	New    bool
	Fail   bool
	Reason string
	// Synthetic marks a derived gate row (no measurements of its own), like
	// the pipelined-vs-lockstep speedup ratio.
	Synthetic bool
}

// Wall-clock throughput rows run with a modelled event-channel latency, so
// their absolute ns/op is dominated by sleep scheduling — run-to-run noise
// of 2-3× is normal and an absolute tolerance would flap. What the
// pipelined transport actually promises is the ratio: depth-8 must sustain
// at least pipelineSpeedupMin times the lockstep command rate within one
// run, where both rows share the machine's timer behaviour. CompareBench
// therefore skips the ns/op tolerance for these rows (allocs are still
// gated — they are deterministic) and gates the current run's ratio
// instead.
const (
	benchLockstepName   = "GuestLockstepThroughput"
	benchPipelinedName  = "GuestPipelinedThroughput"
	pipelineSpeedupMin  = 3.0
	pipelineSpeedupGate = "GuestPipelineSpeedup"
	ratioGatedNote      = "ratio-gated (see " + pipelineSpeedupGate + ")"
)

// ratioGated reports whether a benchmark row is exempt from the absolute
// ns/op tolerance because it is covered by the speedup-ratio gate.
func ratioGated(name string) bool {
	return name == benchLockstepName || name == benchPipelinedName
}

// The blackout row is a p99 over a few dozen millisecond-scale moves —
// effectively the max of the sample, and on this class of machine a single
// GC pause or scheduler stall shifts it 2×. An absolute tolerance against
// a committed baseline would flap on every noisy run, so CompareBench
// exempts it (like the throughput rows) and instead gates the current
// run's value against an absolute ceiling an order of magnitude above the
// quiet-machine measurement (~1-2ms): a regression that fences the whole
// host, loses the live-session overlap, or adds O(fleet) work to the
// handoff blows through the ceiling; scheduler noise does not.
const (
	benchBlackoutName   = "MigrateBlackoutP99"
	blackoutCeiling     = 50 * time.Millisecond
	blackoutCeilingGate = "MigrateBlackoutCeiling"
	ceilingGatedNote    = "ceiling-gated (see " + blackoutCeilingGate + ")"
)

// ceilingGated reports whether a row is exempt from the absolute ns/op
// tolerance because it is covered by an absolute-ceiling gate instead.
func ceilingGated(name string) bool {
	return name == benchBlackoutName
}

// rowTolerance widens the ns/op tolerance for the wall-clock federation
// rows: each is a macro-benchmark over dozens of real migrations (worker
// scheduling, checkpoint flushes, a full two-phase handoff per op), and
// their run-to-run spread on this class of machine is ±20% — inside the
// default 15% an honest run flaps. Doubling the tolerance keeps the gate's
// job (catching gross operational-path regressions) without the flapping;
// allocs stay gated at the normal allowance.
func rowTolerance(name string, tolerance float64) float64 {
	switch name {
	case "DrainThroughput", "EvacuateDeadHost":
		return 2 * tolerance
	}
	return tolerance
}

// CompareBench evaluates current against baseline with the given ns/op
// tolerance (0 means DefaultBenchTolerance). ok is false when any baseline
// benchmark is missing, slower than tolerated, or allocates more.
func CompareBench(base, cur *BenchReport, tolerance float64) (deltas []BenchDelta, ok bool) {
	if tolerance <= 0 {
		tolerance = DefaultBenchTolerance
	}
	byName := make(map[string]BenchResult, len(cur.Results))
	for _, r := range cur.Results {
		byName[r.Name] = r
	}
	ok = true
	for _, b := range base.Results {
		d := BenchDelta{Name: b.Name, Base: b}
		c, found := byName[b.Name]
		if !found {
			d.Missing, d.Fail, d.Reason = true, false, "missing from current run"
			// A missing benchmark fails the gate: silently dropping a
			// measurement is how regressions hide.
			d.Fail = true
		} else {
			d.Cur = c
			if b.NsPerOp > 0 {
				d.NsRatio = c.NsPerOp/b.NsPerOp - 1
			}
			allocAllowance := allocGrowthTolerance
			if rel := b.AllocsPerOp * allocNoiseRel; rel > allocAllowance {
				allocAllowance = rel
			}
			tol := rowTolerance(b.Name, tolerance)
			switch {
			case d.NsRatio > tol && !ratioGated(b.Name) && !ceilingGated(b.Name):
				d.Fail = true
				d.Reason = fmt.Sprintf("ns/op +%.1f%% (tolerance %.0f%%)", d.NsRatio*100, tol*100)
			case c.AllocsPerOp > b.AllocsPerOp+allocAllowance:
				d.Fail = true
				d.Reason = fmt.Sprintf("allocs/op %.1f → %.1f", b.AllocsPerOp, c.AllocsPerOp)
			case ratioGated(b.Name):
				d.Reason = ratioGatedNote
			case ceilingGated(b.Name):
				d.Reason = ceilingGatedNote
			}
		}
		if d.Fail {
			ok = false
		}
		deltas = append(deltas, d)
	}
	// Current-run benchmarks the baseline does not know yet are reported as
	// informational additions (in current-run order), not failures.
	inBase := make(map[string]bool, len(base.Results))
	for _, b := range base.Results {
		inBase[b.Name] = true
	}
	for _, c := range cur.Results {
		if !inBase[c.Name] {
			deltas = append(deltas, BenchDelta{
				Name: c.Name, Cur: c, New: true,
				Reason: "new benchmark, not in baseline (informational)",
			})
		}
	}
	// The speedup gate: within the current run, depth-8 pipelining must
	// sustain at least pipelineSpeedupMin times the lockstep command rate.
	lock, hasLock := byName[benchLockstepName]
	pipe, hasPipe := byName[benchPipelinedName]
	if hasLock && hasPipe && pipe.NsPerOp > 0 {
		ratio := lock.NsPerOp / pipe.NsPerOp
		d := BenchDelta{Name: pipelineSpeedupGate, Synthetic: true}
		if ratio < pipelineSpeedupMin {
			d.Fail = true
			d.Reason = fmt.Sprintf("depth-8 sustains only %.2fx the lockstep rate (floor %.1fx)",
				ratio, pipelineSpeedupMin)
			ok = false
		} else {
			d.Reason = fmt.Sprintf("depth-8 sustains %.2fx the lockstep rate (floor %.1fx)",
				ratio, pipelineSpeedupMin)
		}
		deltas = append(deltas, d)
	}
	// The blackout ceiling gate: the current run's per-move blackout p99
	// must stay under the absolute ceiling, whatever the baseline says.
	if bo, hasBo := byName[benchBlackoutName]; hasBo {
		d := BenchDelta{Name: blackoutCeilingGate, Synthetic: true}
		if bo.NsPerOp > float64(blackoutCeiling) {
			d.Fail = true
			d.Reason = fmt.Sprintf("blackout p99 %.1fms over the %v ceiling",
				bo.NsPerOp/1e6, blackoutCeiling)
			ok = false
		} else {
			d.Reason = fmt.Sprintf("blackout p99 %.2fms under the %v ceiling",
				bo.NsPerOp/1e6, blackoutCeiling)
		}
		deltas = append(deltas, d)
	}
	return deltas, ok
}

// RenderBenchDeltas prints the comparison as an aligned table.
func RenderBenchDeltas(w io.Writer, deltas []BenchDelta) {
	rows := make([][]string, 0, len(deltas))
	for _, d := range deltas {
		status := "ok"
		switch {
		case d.Fail:
			status = "FAIL: " + d.Reason
		case d.New:
			status = "NEW: " + d.Reason
		case d.Reason != "":
			status = "ok: " + d.Reason
		}
		if d.Synthetic {
			rows = append(rows, []string{d.Name, "-", "-", "-", "-", "-", status})
			continue
		}
		cur, ratio := "-", "-"
		if !d.Missing {
			cur = fmt.Sprintf("%.0f", d.Cur.NsPerOp)
			if !d.New && !math.IsNaN(d.NsRatio) {
				ratio = fmt.Sprintf("%+.1f%%", d.NsRatio*100)
			}
		}
		baseNs, baseAllocs := "-", "-"
		if !d.New {
			baseNs = fmt.Sprintf("%.0f", d.Base.NsPerOp)
			baseAllocs = fmt.Sprintf("%.1f", d.Base.AllocsPerOp)
		}
		rows = append(rows, []string{
			d.Name,
			baseNs,
			cur,
			ratio,
			baseAllocs,
			func() string {
				if d.Missing {
					return "-"
				}
				return fmt.Sprintf("%.1f", d.Cur.AllocsPerOp)
			}(),
			status,
		})
	}
	metrics.Table(w, "benchmark gate: baseline vs current",
		[]string{"benchmark", "base ns/op", "cur ns/op", "delta", "base allocs", "cur allocs", "status"}, rows)
}
