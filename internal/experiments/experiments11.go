package experiments

// E18 — federation under churn and failure. The cluster package (DESIGN.md
// §12) federates hosts behind a generation-fenced placement directory;
// every cross-host move is a two-phase fenced handoff and every failure
// path must end with exactly one owner. E18 measures and verifies the three
// operations a fleet actually runs:
//
//   - Phase A — drain: one host's whole fleet (≥5k guests in full mode)
//     evacuates through the bounded-concurrency migration pipeline while
//     guest sessions keep dispatching; the guest-visible pause is per
//     instance (blackout p50/p99), never per host, and every session's PCR
//     chain must survive intact.
//   - Phase B — failure: a host stops heartbeating, the detector walks it
//     Alive → Suspect → Condemned, and evacuation revives every guest it
//     owned from committed checkpoints in the shared log — with zero
//     committed-generation loss (PCR digests equal pre-kill snapshots) and
//     the zombie's late writes and dispatches fenced off.
//   - Phase C — storm: a ~5% transfer-leg fault rate (transient and
//     permanent) over a migration barrage; afterwards the accounting must
//     balance (started = committed + aborted) and a full ownership audit
//     must find exactly one owner per guest, still serving.
//
// Guests use RSA-512 vTPM keys regardless of mode: key size is orthogonal
// to federation mechanics, and it keeps the 5k-guest fleet's creation
// affordable (the same trade E17 makes with its donor blob).

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"xvtpm"
	"xvtpm/internal/cluster"
	"xvtpm/internal/faults"
	"xvtpm/internal/metrics"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
)

// E18Report is the measured summary.
type E18Report struct {
	// Phase A — mass drain under live dispatch.
	Guests           int
	CreateSecs       float64
	DrainMoved       int
	DrainFailed      int
	DrainSecs        float64
	DrainRate        float64
	BlackoutP50      time.Duration
	BlackoutP99      time.Duration
	SessionExtends   uint64
	SessionRedirects uint64
	SessionRetries   uint64
	ChainFailures    int

	// Phase B — condemnation and evacuation.
	EvacRequested      int
	EvacRevived        int
	EvacFailed         int
	EvacSecs           float64
	EvacRate           float64
	DigestMismatches   int
	ZombieStoreRejects uint64
	ZombieFenceRejects uint64

	// Phase C — transfer-leg fault storm.
	StormMoves          int
	StormStarted        uint64
	StormCommitted      uint64
	StormAborted        uint64
	StormRetries        uint64
	OwnershipViolations int
}

// e18CreateFleet places n guests on host through a worker pool.
func e18CreateFleet(c *cluster.Cluster, host string, n, workers int) (time.Duration, error) {
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				_, err := c.CreateGuestOn(host, xvtpm.GuestConfig{
					Name:   fmt.Sprintf("fed-%05d", i),
					Kernel: []byte(fmt.Sprintf("vmlinuz-%05d", i)),
					Pages:  16,
				})
				if err != nil {
					errCh <- fmt.Errorf("creating fed-%05d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return 0, err
	default:
		return elapsed, nil
	}
}

// E18Federation runs the three phases and renders the summary table.
func E18Federation(cfg Config) (*E18Report, error) {
	rep := &E18Report{
		Guests:     cfg.reps(5000, 60),
		StormMoves: cfg.reps(2000, 100),
	}
	const seed = 0xE18
	workers := 16

	// The injector is armed only for phase C; phases A and B run clean.
	inj := faults.NewInjector(seed)
	inj.SetPolicy(faults.OpTransfer, faults.Policy{ErrorRate: 0.04, PermanentRate: 0.01})
	inj.SetDisabled(true)

	c, err := cluster.New(cluster.Config{
		Hosts:         3,
		Mode:          xvtpm.ModeImproved,
		RSABits:       512,
		Seed:          []byte("e18-federation"),
		Dom0Pages:     1 << 18,
		Injector:      inj,
		TransferRetry: vtpm.RetryPolicy{MaxAttempts: 4, Deadline: 5 * time.Second},
	})
	if err != nil {
		return nil, fmt.Errorf("E18 cluster: %w", err)
	}
	defer c.Close() //nolint:errcheck // condemned member's flush is expected to be refused

	// Phase A: fleet onto h0, then drain it with sessions dispatching the
	// whole time.
	createDur, err := e18CreateFleet(c, "h0", rep.Guests, workers)
	if err != nil {
		return nil, fmt.Errorf("E18 fleet: %w", err)
	}
	rep.CreateSecs = createDur.Seconds()

	nSessions := 24
	if nSessions > rep.Guests {
		nSessions = rep.Guests
	}
	sessions := make([]*cluster.Session, nSessions)
	var stop atomic.Bool
	var extends atomic.Uint64
	var chainFailures atomic.Int64
	var wg sync.WaitGroup
	for i := range sessions {
		// Spread sessions across the fleet; each owns one PCR of one guest.
		key := fmt.Sprintf("fed-%05d", i*(rep.Guests/nSessions))
		sessions[i] = c.Session(key)
		wg.Add(1)
		go func(i int, s *cluster.Session) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i))) //nolint:gosec // deterministic workload
			pcr := uint32(8 + i%8)
			for !stop.Load() {
				var d [tpm.DigestSize]byte
				rng.Read(d[:]) //nolint:errcheck // never fails
				if _, err := s.Extend(pcr, d); err != nil {
					chainFailures.Add(1)
					return
				}
				extends.Add(1)
			}
		}(i, sessions[i])
	}

	ds, err := c.Drain("h0", workers)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("E18 drain: %w", err)
	}
	rep.DrainMoved = ds.Moved
	rep.DrainFailed = ds.Failed
	rep.DrainSecs = ds.Elapsed.Seconds()
	rep.DrainRate = ds.Throughput()
	blackout := c.ClusterStats().Blackout
	rep.BlackoutP50 = blackout.Quantile(0.50)
	rep.BlackoutP99 = blackout.Quantile(0.99)
	rep.SessionExtends = extends.Load()
	for _, s := range sessions {
		rep.SessionRedirects += s.Redirects
		rep.SessionRetries += s.Retried
		if err := s.Verify(); err != nil {
			chainFailures.Add(1)
		}
	}
	rep.ChainFailures = int(chainFailures.Load())
	if rep.DrainFailed > 0 || rep.DrainMoved != rep.Guests {
		return nil, fmt.Errorf("E18: drain moved %d, failed %d, want all %d moved",
			rep.DrainMoved, rep.DrainFailed, rep.Guests)
	}
	if rep.ChainFailures > 0 {
		return nil, fmt.Errorf("E18: %d session PCR chains broke across the drain", rep.ChainFailures)
	}

	// Phase B: snapshot h1's committed truth, then let it go silent.
	h1, _ := c.Member("h1")
	preDigests := make(map[string][tpm.DigestSize]byte)
	preHandles := make(map[string]*xvtpm.Guest)
	for _, key := range c.Keys() {
		owner, g, err := c.Owner(key)
		if err != nil {
			return nil, err
		}
		if owner != "h1" {
			continue
		}
		d, err := h1.Host.Manager.PCRDigest(g.Instance)
		if err != nil {
			return nil, fmt.Errorf("E18 pre-kill digest of %q: %w", key, err)
		}
		preDigests[key] = d
		preHandles[key] = g
	}
	// Commit everything pending so the shared log's committed generation is
	// the snapshot just taken.
	if err := h1.Host.Manager.CheckpointAll(); err != nil {
		return nil, fmt.Errorf("E18 pre-kill flush: %w", err)
	}

	// Drive the detector on an explicit clock: all beat at t0, the
	// survivors beat on, h1 never again.
	t0 := time.Now()
	for _, m := range c.Members() {
		c.Beat(m.Name, t0)
	}
	t1 := t0.Add(3 * time.Second) // past the 2s suspect window, short of condemnation
	c.Beat("h0", t1)
	c.Beat("h2", t1)
	if condemned := c.CheckFailures(t1); len(condemned) != 0 {
		return nil, fmt.Errorf("E18: %v condemned at suspect horizon", condemned)
	}
	if st, _ := c.FailStateOf("h1"); st != cluster.Suspect {
		return nil, fmt.Errorf("E18: h1 is %v at suspect horizon, want suspect", st)
	}
	t2 := t0.Add(5 * time.Second) // past suspect plus condemn windows (4s)
	c.Beat("h0", t2)
	c.Beat("h2", t2)
	condemned := c.CheckFailures(t2)
	if len(condemned) != 1 || condemned[0] != "h1" {
		return nil, fmt.Errorf("E18: condemned %v, want exactly h1", condemned)
	}

	es, err := c.Evacuate("h1", workers)
	if err != nil {
		return nil, fmt.Errorf("E18 evacuate: %w", err)
	}
	rep.EvacRequested = es.Requested
	rep.EvacRevived = es.Revived
	rep.EvacFailed = es.Failed
	rep.EvacSecs = es.Elapsed.Seconds()
	if rep.EvacSecs > 0 {
		rep.EvacRate = float64(rep.EvacRevived) / rep.EvacSecs
	}
	rep.ZombieStoreRejects = es.ZombieStoreRejects
	if rep.EvacFailed > 0 || rep.EvacRevived != rep.EvacRequested {
		return nil, fmt.Errorf("E18: evacuation revived %d of %d (%d failed)",
			rep.EvacRevived, rep.EvacRequested, rep.EvacFailed)
	}

	// Zero committed-generation loss: every revived guest's PCR bank equals
	// the pre-kill snapshot.
	for key, want := range preDigests {
		owner, g, err := c.Owner(key)
		if err != nil {
			return nil, err
		}
		m, _ := c.Member(owner)
		got, err := m.Host.Manager.PCRDigest(g.Instance)
		if err != nil || got != want {
			rep.DigestMismatches++
		}
	}
	if rep.DigestMismatches > 0 {
		return nil, fmt.Errorf("E18: %d revived guests lost committed PCR state", rep.DigestMismatches)
	}

	// The zombie: its guests' late dispatches must be redirected, never
	// executed against superseded state.
	zombieBase := h1.Host.Manager.FenceRejects()
	probes := 0
	for _, g := range preHandles {
		if _, err := g.TPM.GetRandom(4); err == nil {
			return nil, fmt.Errorf("E18: a zombie dispatch executed after condemnation")
		}
		if probes++; probes >= 8 {
			break
		}
	}
	rep.ZombieFenceRejects = h1.Host.Manager.FenceRejects() - zombieBase
	if rep.ZombieFenceRejects == 0 {
		return nil, fmt.Errorf("E18: zombie dispatches were not fence-rejected")
	}

	// Phase C: arm the injector and run the storm over the survivors.
	preStorm := c.ClusterStats()
	inj.SetDisabled(false)
	keys := c.Keys()
	stormHosts := []string{"h0", "h2"}
	var sw sync.WaitGroup
	stormWorkers := 8
	if stormWorkers > rep.StormMoves {
		stormWorkers = rep.StormMoves
	}
	for w := 0; w < stormWorkers; w++ {
		sw.Add(1)
		go func(w int) {
			defer sw.Done()
			rng := rand.New(rand.NewSource(seed ^ int64(0x9E3779B9*(w+1)))) //nolint:gosec // deterministic schedule
			for n := w; n < rep.StormMoves; n += stormWorkers {
				key := keys[rng.Intn(len(keys))]
				dst := stormHosts[rng.Intn(len(stormHosts))]
				// Rollbacks under injected faults are the point; the audit
				// below is the verdict.
				c.Migrate(key, dst) //nolint:errcheck // storm leg
			}
		}(w)
	}
	sw.Wait()
	inj.SetDisabled(true)

	post := c.ClusterStats()
	rep.StormStarted = post.MigStarted - preStorm.MigStarted
	rep.StormCommitted = post.MigCommitted - preStorm.MigCommitted
	rep.StormAborted = post.MigAborted - preStorm.MigAborted
	rep.StormRetries = post.MigRetried - preStorm.MigRetried
	if rep.StormStarted != rep.StormCommitted+rep.StormAborted {
		return nil, fmt.Errorf("E18: migration accounting leak: %d started != %d committed + %d aborted",
			rep.StormStarted, rep.StormCommitted, rep.StormAborted)
	}

	// The audit: exactly one owner per guest — directory settled, record in
	// agreement, owner's manager holding the instance, a live dispatch
	// served.
	for _, key := range keys {
		pl, ok := c.Directory().Lookup(key)
		if !ok || pl.State != cluster.Owned || pl.Dest != "" {
			rep.OwnershipViolations++
			continue
		}
		owner, g, err := c.Owner(key)
		if err != nil || owner != pl.Host {
			rep.OwnershipViolations++
			continue
		}
		m, ok := c.Member(owner)
		if !ok {
			rep.OwnershipViolations++
			continue
		}
		if _, err := m.Host.Manager.InstanceInfo(g.Instance); err != nil {
			rep.OwnershipViolations++
			continue
		}
		if _, err := g.TPM.GetRandom(4); err != nil {
			rep.OwnershipViolations++
		}
	}
	if rep.OwnershipViolations > 0 {
		return nil, fmt.Errorf("E18: %d guests violate exactly-one-owner after the storm", rep.OwnershipViolations)
	}

	if cfg.Out != nil {
		row := func(metric, value string) []string { return []string{metric, value} }
		metrics.Table(cfg.Out, "E18 (extension) — federation: fenced drain, evacuation, fault storm",
			[]string{"metric", "value"}, [][]string{
				row("fleet", fmt.Sprintf("%d guests on 3 hosts (%.3fs create, %.0f guests/s)",
					rep.Guests, rep.CreateSecs, float64(rep.Guests)/rep.CreateSecs)),
				row("drain h0", fmt.Sprintf("%d moved, %d failed in %.3fs (%.0f moves/s)",
					rep.DrainMoved, rep.DrainFailed, rep.DrainSecs, rep.DrainRate)),
				row("blackout per instance", fmt.Sprintf("p50 %v, p99 %v", rep.BlackoutP50, rep.BlackoutP99)),
				row("live sessions", fmt.Sprintf("%d extends, %d redirects, %d retries, %d chains broken",
					rep.SessionExtends, rep.SessionRedirects, rep.SessionRetries, rep.ChainFailures)),
				row("evacuate dead h1", fmt.Sprintf("%d of %d revived in %.3fs (%.0f revives/s)",
					rep.EvacRevived, rep.EvacRequested, rep.EvacSecs, rep.EvacRate)),
				row("committed-state loss", fmt.Sprintf("%d digest mismatches", rep.DigestMismatches)),
				row("zombie containment", fmt.Sprintf("%d store rejects, %d fence rejects",
					rep.ZombieStoreRejects, rep.ZombieFenceRejects)),
				row("fault storm", fmt.Sprintf("%d moves at 5%% injected faults: %d committed, %d aborted, %d retries",
					rep.StormMoves, rep.StormCommitted, rep.StormAborted, rep.StormRetries)),
				row("ownership audit", fmt.Sprintf("%d violations across %d guests", rep.OwnershipViolations, len(keys))),
			})
	}
	return rep, nil
}
