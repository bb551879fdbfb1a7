package experiments

import (
	"fmt"
	"sort"
	"time"

	"xvtpm"
	"xvtpm/internal/attack"
	"xvtpm/internal/metrics"
	"xvtpm/internal/vtpm"
)

// E12Row is one row of the checkpoint-policy throughput table.
type E12Row struct {
	Policy vtpm.CheckpointPolicy
	// Throughput is the median over the rounds of mutating commands/second,
	// aggregate; ThroughputMin/Max bound the rounds.
	Throughput    float64
	ThroughputMin float64
	ThroughputMax float64
	// The counters are those of the median round.
	Checkpoints uint64  // store writes during the stream (plus the final flush)
	Coalesce    float64 // mutations persisted per checkpoint
	Bytes       uint64  // protected envelope bytes handed to the store
	LeakedBlobs int     // stored blobs carrying plaintext state magic, summed over every round
}

// E12CheckpointPolicy measures mutation-heavy dispatch throughput under the
// three checkpoint policies. Every guest drives a pure Extend stream — the
// worst case for eager persistence, which reseals and rewrites the full
// state envelope inside the dispatch path on each command. Write-behind
// should recover most of the gap to deferred (the durability floor) while
// keeping the store at most MaxDirtyCommands mutations behind the engine;
// the coalesce ratio and bytes-written columns show where the win comes
// from. All runs use the improved guard, and after the final flush the
// store is scanned for plaintext state magic — the policy change must not
// reopen the state-theft channel E4 closes.
//
// One stream lasts tens of milliseconds, so a single timing swings by a
// fifth or more on a shared machine. The policies therefore run in
// interleaved rounds (eager, writeback, deferred, eager, …; 5 rounds, 1 in
// quick mode) on a fresh host each, and the table reports each policy's
// median with its min–max range.
func E12CheckpointPolicy(cfg Config) ([]E12Row, error) {
	policies := []vtpm.CheckpointPolicy{
		vtpm.CheckpointEager,
		vtpm.CheckpointWriteback,
		vtpm.CheckpointDeferred,
	}
	rounds := cfg.reps(5, 1)
	runs := make([][]E12Row, len(policies))
	for r := 0; r < rounds; r++ {
		for i, pol := range policies {
			row, err := e12Round(cfg, pol)
			if err != nil {
				return nil, err
			}
			runs[i] = append(runs[i], row)
		}
	}
	rows := make([]E12Row, len(policies))
	for i, rs := range runs {
		leaks := 0
		for _, r := range rs {
			leaks += r.LeakedBlobs
		}
		sort.Slice(rs, func(a, b int) bool { return rs[a].Throughput < rs[b].Throughput })
		rows[i] = rs[len(rs)/2]
		rows[i].ThroughputMin, rows[i].ThroughputMax = rs[0].Throughput, rs[len(rs)-1].Throughput
		rows[i].LeakedBlobs = leaks
	}
	if cfg.Out != nil {
		tbl := make([][]string, 0, len(rows))
		for _, r := range rows {
			tbl = append(tbl, []string{
				r.Policy.String(),
				fmt.Sprintf("%.0f", r.Throughput),
				fmt.Sprintf("%.0f–%.0f", r.ThroughputMin, r.ThroughputMax),
				fmt.Sprintf("%d", r.Checkpoints),
				fmt.Sprintf("%.1f", r.Coalesce),
				fmt.Sprintf("%d", r.Bytes),
				fmt.Sprintf("%d", r.LeakedBlobs),
			})
		}
		metrics.Table(cfg.Out,
			fmt.Sprintf("E12 — mutation-heavy throughput by checkpoint policy (Extend stream, improved guard; median of %d interleaved rounds)", rounds),
			[]string{"policy", "commands/s", "range", "checkpoints", "coalesce", "bytes-written", "plaintext-leaks"}, tbl)
	}
	return rows, nil
}

// e12Round runs one policy's Extend stream on a fresh host.
func e12Round(cfg Config, pol vtpm.CheckpointPolicy) (E12Row, error) {
	const guests = 4
	perGuest := cfg.reps(1500, 30)
	h, err := newHost(cfg, xvtpm.ModeImproved, func(hc *xvtpm.HostConfig) {
		hc.Checkpoint = pol
	})
	if err != nil {
		return E12Row{}, err
	}
	defer h.Close()
	gs := make([]*xvtpm.Guest, guests)
	for i := range gs {
		g, err := h.CreateGuest(xvtpm.GuestConfig{
			Name:   fmt.Sprintf("cp-%d", i),
			Kernel: []byte(fmt.Sprintf("cp-kernel-%d", i)),
		})
		if err != nil {
			return E12Row{}, fmt.Errorf("E12 guest %d under %s: %w", i, pol, err)
		}
		gs[i] = g
	}
	// Exclude instance creation (and its forced initial checkpoint) from
	// the stream's checkpoint counters.
	base := h.Manager.CheckpointStats()
	errCh := make(chan error, guests)
	start := time.Now()
	for i, g := range gs {
		go func(i int, g *xvtpm.Guest) {
			var m [20]byte
			m[0] = byte(i)
			for j := 0; j < perGuest; j++ {
				m[1], m[2] = byte(j), byte(j>>8)
				if _, err := g.TPM.Extend(uint32(8+i%4), m); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(i, g)
	}
	for i := 0; i < guests; i++ {
		if err := <-errCh; err != nil {
			return E12Row{}, fmt.Errorf("E12 stream under %s: %w", pol, err)
		}
	}
	elapsed := time.Since(start)
	// Flush barrier: deferred has persisted nothing yet, writeback may
	// still hold a dirty tail. After this the store holds every
	// instance's latest state under all three policies, which is also
	// what the leak scan must inspect.
	if err := h.Manager.CheckpointAll(); err != nil {
		return E12Row{}, fmt.Errorf("E12 final flush under %s: %w", pol, err)
	}
	stats := h.Manager.CheckpointStats()
	delta := vtpm.CheckpointStats{
		Mutations:    stats.Mutations - base.Mutations,
		Checkpoints:  stats.Checkpoints - base.Checkpoints,
		Coalesced:    stats.Coalesced - base.Coalesced,
		BytesWritten: stats.BytesWritten - base.BytesWritten,
	}
	hits, err := attack.ScanStore(h.Store, []attack.Probe{attack.StateMagicProbe})
	if err != nil {
		return E12Row{}, fmt.Errorf("E12 store scan under %s: %w", pol, err)
	}
	return E12Row{
		Policy:      pol,
		Throughput:  float64(guests*perGuest) / elapsed.Seconds(),
		Checkpoints: delta.Checkpoints,
		Coalesce:    delta.CoalesceRatio(),
		Bytes:       delta.BytesWritten,
		LeakedBlobs: len(hits),
	}, nil
}
