package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"xvtpm"
	"xvtpm/internal/attack"
	"xvtpm/internal/metrics"
	"xvtpm/internal/tpm"
	"xvtpm/internal/workload"
	"xvtpm/internal/xen"
)

// E7Point is one point of the exposure-window figure.
type E7Point struct {
	LoadLabel string
	// ExposedFraction is the fraction of dump samples in which plaintext
	// vTPM material was visible in dom0 memory.
	ExposedFraction float64
	Samples         int
}

// E7ExposureWindow runs a guest workload while a dump sampler repeatedly
// images dom0 memory and scans it for plaintext vTPM state. The fraction of
// samples that hit is the secret-exposure window. Reconstructed Figure 4.
func E7ExposureWindow(cfg Config) (map[xvtpm.Mode][]E7Point, error) {
	loads := []struct {
		label string
		gap   time.Duration
	}{
		{"saturated", 0},
		{"medium", 500 * time.Microsecond},
		{"light", 2 * time.Millisecond},
	}
	if cfg.Quick {
		loads = loads[:1]
	}
	samples := cfg.reps(60, 8)
	out := make(map[xvtpm.Mode][]E7Point)
	for _, mode := range Modes {
		for _, load := range loads {
			h, err := newHost(cfg, mode, func(hc *xvtpm.HostConfig) {
				hc.Dom0Pages = 1024 // keep dump snapshots cheap
			})
			if err != nil {
				return nil, err
			}
			_, runner, err := newGuestRunner(h, 1, cfg.bits())
			if err != nil {
				return nil, err
			}
			probes := []attack.Probe{
				attack.StateMagicProbe,
				{Name: "exchange-plaintext", Pattern: []byte(sealWorkloadSecret)},
			}
			var stop atomic.Bool
			workErr := make(chan error, 1)
			go func() {
				stream := workload.NewStream(workload.DefaultMix, 11)
				for !stop.Load() {
					if err := runner.Step(stream.Next()); err != nil {
						workErr <- err
						return
					}
					if load.gap > 0 {
						time.Sleep(load.gap)
					}
				}
				workErr <- nil
			}()
			hits := 0
			for i := 0; i < samples; i++ {
				found, err := attack.DumpAndScan(h.HV, xen.Dom0, probes)
				if err != nil {
					stop.Store(true)
					<-workErr
					return nil, err
				}
				if len(found) > 0 {
					hits++
				}
				time.Sleep(time.Millisecond)
			}
			stop.Store(true)
			if err := <-workErr; err != nil {
				return nil, fmt.Errorf("E7 workload on %s: %w", mode, err)
			}
			out[mode] = append(out[mode], E7Point{
				LoadLabel:       load.label,
				ExposedFraction: float64(hits) / float64(samples),
				Samples:         samples,
			})
			h.Close()
		}
	}
	if cfg.Out != nil {
		var series []metrics.Series
		for _, mode := range Modes {
			s := metrics.Series{Name: mode.String()}
			for i, p := range out[mode] {
				s.Points = append(s.Points, metrics.Point{X: float64(i), Y: p.ExposedFraction * 100})
			}
			series = append(series, s)
		}
		metrics.PrintSeries(cfg.Out,
			"E7 / Figure 4 — plaintext exposure window in dom0 memory (% of dump samples; x: 0=saturated,1=medium,2=light)",
			"load level", "% samples exposed", series)
	}
	return out, nil
}

// E8Row is one row of the storage-overhead table.
type E8Row struct {
	NVAreas       int
	PlainBytes    int
	EnvelopeBytes int
}

// E8StorageOverhead measures vTPM state blob sizes as stored by each guard,
// as the instance accumulates NV areas. Reconstructed Table 4.
func E8StorageOverhead(cfg Config) ([]E8Row, error) {
	nvCounts := []int{0, 2, 4, 8}
	if cfg.Quick {
		nvCounts = []int{0, 2}
	}
	var rows []E8Row
	for _, nv := range nvCounts {
		sizes := make(map[xvtpm.Mode]int)
		for _, mode := range Modes {
			// Seeded under a fixed name, so every run stores the same
			// key material and the table is exact, not ±1 byte.
			h, err := newHost(cfg, mode, func(hc *xvtpm.HostConfig) {
				hc.Name = "e8-" + mode.String()
				hc.Seed = []byte("e8-storage")
			})
			if err != nil {
				return nil, err
			}
			g, runner, err := newGuestRunner(h, 1, cfg.bits())
			if err != nil {
				return nil, err
			}
			owner := runner.OwnerAuth()
			for i := 0; i < nv; i++ {
				var areaAuth [tpm.AuthSize]byte
				if err := g.TPM.NVDefineSpace(owner, uint32(0x1000+i), 256, 0, areaAuth); err != nil {
					return nil, fmt.Errorf("E8 define nv %d: %w", i, err)
				}
				if err := g.TPM.NVWrite(uint32(0x1000+i), 0, make([]byte, 256), nil); err != nil {
					return nil, err
				}
			}
			if err := h.Manager.Checkpoint(g.Instance); err != nil {
				return nil, err
			}
			blob, err := h.Store.Get(fmt.Sprintf("vtpm-%08d.state", g.Instance))
			if err != nil {
				return nil, err
			}
			sizes[mode] = len(blob)
			h.Close()
		}
		rows = append(rows, E8Row{
			NVAreas:       nv,
			PlainBytes:    sizes[xvtpm.ModeBaseline],
			EnvelopeBytes: sizes[xvtpm.ModeImproved],
		})
	}
	if cfg.Out != nil {
		tbl := make([][]string, 0, len(rows))
		for _, r := range rows {
			tbl = append(tbl, []string{
				fmt.Sprintf("%d", r.NVAreas),
				fmt.Sprintf("%d", r.PlainBytes),
				fmt.Sprintf("%d", r.EnvelopeBytes),
				fmt.Sprintf("%+d", r.EnvelopeBytes-r.PlainBytes),
			})
		}
		metrics.Table(cfg.Out, "E8 / Table 4 — stored vTPM state size (bytes)",
			[]string{"nv-areas", "baseline(plain)", "improved(envelope)", "delta"}, tbl)
	}
	return rows, nil
}
