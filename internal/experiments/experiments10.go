package experiments

// E17 — log-structured checkpoint store at fleet scale. The write-behind
// checkpoint pipeline (E11-E13) made persistence asynchronous, but the flat
// blob store still pays one random device write — and on real hardware one
// flush — per dirty instance. E17 measures what the segmented log with
// cross-instance group commit (internal/store/logstore, DESIGN.md §11) buys
// at fleet scale, on a modeled device whose flush cost is charged
// explicitly:
//
//   - group-commit throughput vs the flat store at `dirty` concurrent
//     checkpoint writers per window (the ISSUE criterion: ≥5× at 10k);
//   - fleet persistence and recovery at 100k+ instances: creation
//     throughput, write amplification, compaction debt and reclaim;
//   - cold-start: log replay rate (records/s) and full ReviveAll of the
//     fleet through the vTPM manager;
//   - torn-tail discipline: a crash mid-record must cost at most the one
//     uncommitted record and zero committed generations.
//
// Instance state is donor-replicated: one TPM 1.2 engine is serialized once
// and wrapped per instance ID through the baseline guard (whose state
// protection is ID-independent plaintext — the paper's point of attack), so
// the experiment measures store mechanics, not 100k RSA key generations.

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"xvtpm/internal/core"
	"xvtpm/internal/metrics"
	"xvtpm/internal/store/logstore"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// e17SyncDelay is the modeled device flush cost, charged once per Put on
// the flat store and once per group commit on the log store. 50µs sits
// between an NVMe flush and a disk-array write-back ack.
const e17SyncDelay = 50 * time.Microsecond

// E17Report is the measured summary.
type E17Report struct {
	// Phase A — group-commit throughput at DirtyPerWindow concurrent
	// checkpoint writers.
	DirtyPerWindow int
	FlatSecs       float64
	GroupSecs      float64
	Speedup        float64
	CoalesceRatio  float64

	// Phase B — fleet persistence at Instances blobs.
	Instances      int
	CreateSecs     float64
	WriteAmp       float64
	Segments       int
	DebtBytes      uint64
	ReclaimedBytes int

	// Phase C — cold start over the compacted fleet log.
	ReplayRecords int
	ReplaySecs    float64
	ReplayRate    float64
	Revived       int
	ReviveSecs    float64
	ReviveRate    float64

	// Phase D — torn-tail recovery discipline.
	TornDroppedBytes int
	TornFallbacks    int
	LostCommitted    int
}

// e17FlatStore models the seed persistence backend on the same device: one
// random write plus one flush per dirty instance, serialized at the device
// like any single blockdev queue.
type e17FlatStore struct {
	mu    sync.Mutex
	inner *vtpm.MemStore
}

func (s *e17FlatStore) Put(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(e17SyncDelay)
	return s.inner.Put(name, data)
}
func (s *e17FlatStore) Get(name string) ([]byte, error) { return s.inner.Get(name) }
func (s *e17FlatStore) Delete(name string) error        { return s.inner.Delete(name) }
func (s *e17FlatStore) List() ([]string, error)         { return s.inner.List() }

// e17PutStorm writes blobs for ids [0, n) through workers concurrent
// goroutines — the shape of a write-behind flush wave — and returns the
// wall time.
func e17PutStorm(store vtpm.Store, n, workers int, blob []byte) (time.Duration, error) {
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
			for id := w; id < n; id += workers {
				if err := store.Put(fmt.Sprintf("vtpm-%08d.state", id), blob); err != nil {
					errCh <- err
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

// e17DonorBlob serializes one freshly-started TPM 1.2 engine and wraps it
// the way the manager's checkpoint path would under the baseline guard.
func e17DonorBlob(cfg Config) ([]byte, error) {
	eng, err := tpm.NewEngine(tpm.Profile12, tpm.Config{RSABits: cfg.bits(), Seed: []byte("e17-donor")})
	if err != nil {
		return nil, err
	}
	if err := tpm.StartupEngine(eng); err != nil {
		return nil, err
	}
	return core.NewBaselineGuard().ProtectState(
		vtpm.InstanceInfo{ID: 1, Profile: tpm.Profile12}, nil, eng.AppendState(nil))
}

// E17LogStore runs the four phases and renders the summary table.
func E17LogStore(cfg Config) (*E17Report, error) {
	rep := &E17Report{
		DirtyPerWindow: cfg.reps(10000, 1000),
		Instances:      cfg.reps(100000, 5000),
	}
	blob, err := e17DonorBlob(cfg)
	if err != nil {
		return nil, fmt.Errorf("E17 donor: %w", err)
	}
	workers := 64

	// Phase A: one window of dirty instances, flat vs group commit.
	flat := &e17FlatStore{inner: vtpm.NewMemStore()}
	flatDur, err := e17PutStorm(flat, rep.DirtyPerWindow, workers, blob)
	if err != nil {
		return nil, fmt.Errorf("E17 flat storm: %w", err)
	}
	gs := logstore.New(logstore.Config{SyncDelay: e17SyncDelay, NotFound: vtpm.ErrNoState})
	groupDur, err := e17PutStorm(gs, rep.DirtyPerWindow, workers, blob)
	if err != nil {
		return nil, fmt.Errorf("E17 group storm: %w", err)
	}
	rep.FlatSecs = flatDur.Seconds()
	rep.GroupSecs = groupDur.Seconds()
	if rep.GroupSecs > 0 {
		rep.Speedup = rep.FlatSecs / rep.GroupSecs
	}
	rep.CoalesceRatio = gs.Stats().CoalesceRatio()

	// Phase B: persist the whole fleet, then churn 10% of it through three
	// more generations to build compaction debt.
	fleet := logstore.New(logstore.Config{
		SyncDelay: e17SyncDelay, NotFound: vtpm.ErrNoState, DisableAutoCompact: true,
	})
	createDur, err := e17PutStorm(fleet, rep.Instances, workers, blob)
	if err != nil {
		return nil, fmt.Errorf("E17 fleet create: %w", err)
	}
	rep.CreateSecs = createDur.Seconds()
	churn := rep.Instances / 10
	for round := 0; round < 3; round++ {
		if _, err := e17PutStorm(fleet, churn, workers, blob); err != nil {
			return nil, fmt.Errorf("E17 churn: %w", err)
		}
	}
	st := fleet.Stats()
	rep.WriteAmp = st.WriteAmplification()
	rep.Segments = st.Segments
	rep.DebtBytes = st.CompactionDebt
	rep.ReclaimedBytes = fleet.Compact()

	// Phase C: cold start — replay the compacted log, then revive the
	// whole fleet through a fresh manager.
	ls2, rs, err := logstore.Open(fleet.Disk(), logstore.Config{NotFound: vtpm.ErrNoState})
	if err != nil {
		return nil, fmt.Errorf("E17 reopen: %w", err)
	}
	rep.ReplayRecords = rs.Records
	rep.ReplaySecs = rs.Elapsed.Seconds()
	rep.ReplayRate = rs.ReplayRate()

	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 8192})
	dom0, err := hv.Domain(xen.Dom0)
	if err != nil {
		return nil, err
	}
	mgr := vtpm.NewManager(hv, ls2, xen.NewArena(dom0), core.NewBaselineGuard(),
		vtpm.ManagerConfig{RSABits: cfg.bits(), TraceDepth: -1})
	reviveStart := time.Now()
	revived, err := mgr.ReviveAll()
	reviveDur := time.Since(reviveStart)
	if err != nil {
		return nil, fmt.Errorf("E17 revive: %w", err)
	}
	if len(revived) != rep.Instances {
		return nil, fmt.Errorf("E17: revived %d of %d", len(revived), rep.Instances)
	}
	rep.Revived = len(revived)
	rep.ReviveSecs = reviveDur.Seconds()
	if rep.ReviveSecs > 0 {
		rep.ReviveRate = float64(rep.Revived) / rep.ReviveSecs
	}
	if err := mgr.Close(); err != nil {
		return nil, err
	}

	// Phase D: torn tail. A small deterministic fleet, three committed
	// generations per name, then a crash mid-final-record.
	torn := logstore.New(logstore.Config{SegmentSize: 64 << 10, NotFound: vtpm.ErrNoState, DisableAutoCompact: true})
	const tornNames, tornGens, tornLen = 100, 3, 256
	for g := 0; g < tornGens; g++ {
		payload := bytes.Repeat([]byte{byte(g)}, tornLen)
		for i := 0; i < tornNames; i++ {
			if err := torn.Put(fmt.Sprintf("vtpm-%08d.state", i), payload); err != nil {
				return nil, err
			}
		}
	}
	torn.Disk().TruncateTail(tornLen / 2)
	tre, trs, err := logstore.Open(torn.Disk(), logstore.Config{NotFound: vtpm.ErrNoState})
	if err != nil {
		return nil, fmt.Errorf("E17 torn reopen: %w", err)
	}
	rep.TornDroppedBytes = trs.DroppedBytes
	for i := 0; i < tornNames; i++ {
		b, err := tre.Get(fmt.Sprintf("vtpm-%08d.state", i))
		if err != nil || len(b) != tornLen {
			rep.LostCommitted++
			continue
		}
		if b[0] != tornGens-1 {
			rep.TornFallbacks++
		}
	}
	if rep.LostCommitted > 0 {
		return nil, fmt.Errorf("E17: %d committed names lost to a torn tail", rep.LostCommitted)
	}

	if cfg.Out != nil {
		row := func(metric, value string) []string { return []string{metric, value} }
		metrics.Table(cfg.Out, "E17 (extension) — log-structured checkpoint store with group commit",
			[]string{"metric", "value"}, [][]string{
				row("dirty instances per window", fmt.Sprintf("%d", rep.DirtyPerWindow)),
				row("flat-store window", fmt.Sprintf("%.3fs (%.0f puts/s)", rep.FlatSecs, float64(rep.DirtyPerWindow)/rep.FlatSecs)),
				row("group-commit window", fmt.Sprintf("%.3fs (%.0f puts/s)", rep.GroupSecs, float64(rep.DirtyPerWindow)/rep.GroupSecs)),
				row("speedup", fmt.Sprintf("%.1fx (coalesce %.1f puts/commit)", rep.Speedup, rep.CoalesceRatio)),
				row("fleet size", fmt.Sprintf("%d instances (%.3fs create, %.0f puts/s)", rep.Instances, rep.CreateSecs, float64(rep.Instances)/rep.CreateSecs)),
				row("write amplification", fmt.Sprintf("%.3fx over %d segments", rep.WriteAmp, rep.Segments)),
				row("compaction", fmt.Sprintf("%d bytes debt, %d reclaimed", rep.DebtBytes, rep.ReclaimedBytes)),
				row("replay", fmt.Sprintf("%d records in %.3fs (%.0f records/s)", rep.ReplayRecords, rep.ReplaySecs, rep.ReplayRate)),
				row("ReviveAll", fmt.Sprintf("%d instances in %.3fs (%.0f instances/s)", rep.Revived, rep.ReviveSecs, rep.ReviveRate)),
				row("torn tail", fmt.Sprintf("%d bytes dropped, %d fallbacks, %d committed lost", rep.TornDroppedBytes, rep.TornFallbacks, rep.LostCommitted)),
			})
	}
	return rep, nil
}
