package experiments

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"xvtpm"
	"xvtpm/internal/loadgen"
	"xvtpm/internal/metrics"
	"xvtpm/internal/tpm"
	"xvtpm/internal/workload"
)

// E19 — open-loop capacity: offered-load rate sweep over a simulated
// large-guest fleet multiplexed onto a pool of manager load sessions.
// Closed-loop experiments (E2/E11/E18) measure what the system *can*
// do; E19 measures how it degrades when traffic does not politely wait:
// goodput vs offered load, coordinated-omission-safe p99/p999 through
// saturation, per-command SLO attainment, and the knee — plus a busy-share
// attribution naming the op that owns the bottleneck (expected: the
// RSA-backed Quote, the follow-up ROADMAP item).

// E19Report is the rendered result set.
type E19Report struct {
	Guests   int
	Slots    int
	Capacity float64 // closed-loop calibration estimate, commands/sec

	Points    []loadgen.SweepPoint
	Knee      float64
	KneeFound bool

	// Saturated is the full report at the top of the rate ladder: its
	// PerOp table is the SLO-attainment exhibit.
	Saturated *loadgen.Report

	// Bottleneck attribution at saturation: per-op busy share =
	// completions × measured service time, normalized.
	Bottleneck      workload.Op
	BottleneckShare float64
	ServiceEst      map[workload.Op]time.Duration
}

// e19Slots builds the execution lanes: dedicated load slots on an
// improved-mode host, three 1.2 lanes to one 2.0 lane, each with a
// prepared workload runner (1.2) or a direct 2.0 stepper.
func e19Slots(h *xvtpm.Host, n int, bits int) ([]loadgen.Slot, []*xvtpm.LoadSlot, error) {
	var slots []loadgen.Slot
	var raw []*xvtpm.LoadSlot
	for i := 0; i < n; i++ {
		profile := tpm.Profile12
		if i%4 == 3 {
			profile = tpm.Profile20
		}
		ls, err := h.OpenLoadSlot(fmt.Sprintf("e19-slot-%d", i), profile)
		if err != nil {
			return nil, raw, err
		}
		raw = append(raw, ls)
		if profile == tpm.Profile20 {
			cli := ls.TPM2
			var ctr uint32
			nonce := []byte("e19-qualifying-data")
			pcrs := []int{0, 1, 10}
			event := []byte("e19-event")
			step := func(op workload.Op) error {
				switch op {
				case workload.OpExtend:
					c := atomic.AddUint32(&ctr, 1)
					return cli.Extend(int(10+c%6), event)
				case workload.OpQuote:
					_, _, err := cli.Quote(nonce, pcrs)
					return err
				default:
					_, err := cli.GetRandom(32)
					return err
				}
			}
			slots = append(slots, loadgen.Slot{Step: step, Mix: loadgen.Mix20})
		} else {
			runner, err := workload.Prepare(ls.TPM, i, bits)
			if err != nil {
				return nil, raw, err
			}
			slots = append(slots, loadgen.Slot{Step: runner.Step, Mix: loadgen.Mix12})
		}
	}
	return slots, raw, nil
}

// calibrate estimates aggregate closed-loop capacity: every slot steps its
// mix back-to-back for the window; capacity = total completions / window.
func calibrate(slots []loadgen.Slot, window time.Duration, seed int64) (float64, error) {
	var wg sync.WaitGroup
	var total, firstErr atomic.Int64
	errs := make([]error, len(slots))
	deadline := time.Now().Add(window)
	for i, slot := range slots {
		wg.Add(1)
		go func(i int, slot loadgen.Slot) {
			defer wg.Done()
			stream := workload.NewStream(slot.Mix, seed+int64(i))
			for time.Now().Before(deadline) {
				if err := slot.Step(stream.Next()); err != nil {
					errs[i] = err
					firstErr.Store(int64(i) + 1)
					return
				}
				total.Add(1)
			}
		}(i, slot)
	}
	wg.Wait()
	if at := firstErr.Load(); at != 0 {
		return 0, fmt.Errorf("calibration slot %d: %w", at-1, errs[at-1])
	}
	return float64(total.Load()) / window.Seconds(), nil
}

// probeService measures per-op median service time on one representative
// 1.2 slot (closed loop, small rep count) for the busy-share attribution.
// The median, not the mean: one preempted rep would otherwise inflate a
// cheap op's estimate several-fold and hand it the attribution.
func probeService(step loadgen.Stepper, reps int) (map[workload.Op]time.Duration, error) {
	est := make(map[workload.Op]time.Duration, 4)
	for _, op := range []workload.Op{workload.OpGetRandom, workload.OpExtend, workload.OpSeal, workload.OpQuote} {
		rec := metrics.NewRecorder()
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := step(op); err != nil {
				return nil, fmt.Errorf("service probe %v: %w", op, err)
			}
			rec.Add(time.Since(start))
		}
		est[op] = rec.Percentile(50)
	}
	return est, nil
}

// E19RateSweep runs the open-loop capacity sweep on the improved host.
func E19RateSweep(cfg Config) (*E19Report, error) {
	nSlots := cfg.reps(16, 4)
	guests := cfg.reps(100_000, 2_000)
	stepDur := cfg.durOrQuick(1200*time.Millisecond, 200*time.Millisecond)
	calibDur := cfg.durOrQuick(400*time.Millisecond, 120*time.Millisecond)

	h, err := newHost(cfg, xvtpm.ModeImproved, func(hc *xvtpm.HostConfig) {
		hc.Dom0Pages = 1 << 16
	})
	if err != nil {
		return nil, err
	}
	defer h.Close() //nolint:errcheck // teardown

	slots, raw, err := e19Slots(h, nSlots, cfg.bits())
	defer func() {
		for _, ls := range raw {
			h.CloseLoadSlot(ls) //nolint:errcheck // teardown
		}
	}()
	if err != nil {
		return nil, err
	}

	rep := &E19Report{Guests: guests, Slots: nSlots}

	// Closed-loop calibration anchors the ladder so it brackets the knee
	// whatever this machine's speed is.
	if rep.Capacity, err = calibrate(slots, calibDur, 17); err != nil {
		return nil, err
	}
	if rep.ServiceEst, err = probeService(slots[0].Step, cfg.reps(120, 15)); err != nil {
		return nil, err
	}

	var lastRep *loadgen.Report
	for _, mult := range []float64{0.25, 0.5, 0.75, 1.0, 1.15, 1.3} {
		offered := mult * rep.Capacity
		r, err := loadgen.Run(loadgen.Config{
			Guests: guests, Offered: offered, Duration: stepDur,
			Seed: 19, Slots: slots,
		})
		if err != nil {
			return nil, fmt.Errorf("E19 at %.0f cps: %w", offered, err)
		}
		if r.Errors > 0 {
			return nil, fmt.Errorf("E19 at %.0f cps: %d command errors", offered, r.Errors)
		}
		realized := offered
		if r.Horizon > 0 {
			realized = float64(r.Scheduled) / r.Horizon.Seconds()
		}
		rep.Points = append(rep.Points, loadgen.SweepPoint{
			Offered: offered, Realized: realized,
			Throughput: r.Throughput, Goodput: r.Goodput,
			P99: r.P99, P999: r.P999, SLOFrac: r.SLOFraction(),
		})
		lastRep = r
	}
	rep.Saturated = lastRep
	rep.Knee, rep.KneeFound = loadgen.FindKnee(rep.Points)

	// Busy-share attribution at saturation: completions × service time.
	var shares [8]float64
	var sum float64
	for _, st := range lastRep.PerOp {
		svc, ok := rep.ServiceEst[st.Op]
		if !ok {
			continue
		}
		s := float64(st.Count) * svc.Seconds()
		shares[st.Op] = s
		sum += s
	}
	for op, s := range shares {
		if s > shares[rep.Bottleneck] {
			rep.Bottleneck = workload.Op(op)
		}
	}
	if sum > 0 {
		rep.BottleneckShare = shares[rep.Bottleneck] / sum
	}

	renderE19(cfg.Out, rep)
	return rep, nil
}

func renderE19(w io.Writer, rep *E19Report) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, "E19 — open-loop capacity: %d simulated guests on %d load slots (improved mode)\n",
		rep.Guests, rep.Slots)
	fmt.Fprintf(w, "  closed-loop calibration: %.0f commands/sec\n", rep.Capacity)
	rows := make([][]string, 0, len(rep.Points))
	for _, p := range rep.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", p.Offered),
			fmt.Sprintf("%.0f", p.Throughput),
			fmt.Sprintf("%.0f", p.Goodput),
			fmt.Sprintf("%.1f%%", 100*p.SLOFrac),
			p.P99.String(),
			p.P999.String(),
		})
	}
	metrics.Table(w, "goodput vs offered load (CO-safe latency)",
		[]string{"offered/s", "tput/s", "goodput/s", "in-SLO", "p99", "p999"}, rows)
	if rep.KneeFound {
		fmt.Fprintf(w, "  saturation knee: ~%.0f commands/sec (goodput < 95%% of offered)\n", rep.Knee)
	} else {
		fmt.Fprintf(w, "  saturation knee: not reached inside the ladder\n")
	}
	if rep.Saturated != nil {
		rows = rows[:0]
		for _, st := range rep.Saturated.PerOp {
			rows = append(rows, []string{
				st.Op.String(),
				fmt.Sprintf("%d", st.Count),
				st.SLO.String(),
				fmt.Sprintf("%.1f%%", 100*st.Attained),
				st.P50.String(),
				st.P99.String(),
				st.P999.String(),
			})
		}
		metrics.Table(w, "per-command SLO attainment at saturation",
			[]string{"op", "count", "SLO", "attained", "p50", "p99", "p999"}, rows)
		fmt.Fprintf(w, "  generator lateness p99 at saturation: %v\n", rep.Saturated.LatenessP99)
	}
	fmt.Fprintf(w, "  bottleneck attribution: %v owns %.0f%% of busy time (service est %v)\n",
		rep.Bottleneck, 100*rep.BottleneckShare, rep.ServiceEst[rep.Bottleneck])
}
