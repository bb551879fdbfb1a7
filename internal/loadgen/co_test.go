package loadgen

import (
	"testing"
	"time"

	"xvtpm/internal/workload"
)

// TestCoordinatedOmissionStall is the harness's correctness anchor: every
// slot freezes once for 300ms inside a 600ms run while arrivals keep coming
// (steps otherwise return at once). The open-loop digest, which times each
// request from its *intended* send, must surface the stall — requests
// scheduled early in the window wait nearly the whole 300ms, so the tail
// reaches it and the SLO accounting sees the outage. A closed-loop recorder
// that politely waits for the server would have stopped sampling exactly
// then: that is coordinated omission.
func TestCoordinatedOmissionStall(t *testing.T) {
	const (
		stallAt  = 100 * time.Millisecond
		stallFor = 300 * time.Millisecond
	)
	t0 := time.Now()
	stallOnce := func() Stepper {
		stalled := false // one slot goroutine owns it
		return func(workload.Op) error {
			if !stalled && time.Since(t0) >= stallAt {
				stalled = true
				time.Sleep(stallFor)
			}
			return nil
		}
	}
	mix := workload.Mix{workload.OpGetRandom: 1}
	rep, err := Run(Config{
		Guests: 2000, Offered: 2000, Duration: 600 * time.Millisecond, Seed: 1,
		Slots: []Slot{{Step: stallOnce(), Mix: mix}, {Step: stallOnce(), Mix: mix}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Half the run's arrivals land inside a stall, so even p99 sits deep
	// inside it.
	if rep.P99 < 100*time.Millisecond {
		t.Fatalf("open-loop p99 %v does not surface the stall", rep.P99)
	}
	if rep.Max < stallFor-50*time.Millisecond {
		t.Fatalf("open-loop max %v does not span the %v stall", rep.Max, stallFor)
	}
	if frac := rep.SLOFraction(); frac >= 0.9 {
		t.Fatalf("SLO fraction %.3f ignores a 300ms outage in a 600ms run", frac)
	}
}

// TestLiveRunFoldsLatenessIn drives the wall-clock runner with a stepper
// that blocks once for a long beat: every arrival scheduled during the
// block must record a latency that includes its schedule slip, not just
// its own service time.
func TestLiveRunFoldsLatenessIn(t *testing.T) {
	const block = 150 * time.Millisecond
	first := true
	step := func(op workload.Op) error {
		if first {
			first = false
			time.Sleep(block)
		}
		return nil
	}
	rep, err := Run(Config{
		Guests: 200, Offered: 2000, Duration: 200 * time.Millisecond, Seed: 5,
		Slots: []Slot{{Step: step, Mix: workload.Mix{workload.OpGetRandom: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max < block/2 {
		t.Fatalf("blocked stepper invisible in open-loop latency: max %v", rep.Max)
	}
	if rep.LatenessMax < block/2 {
		t.Fatalf("schedule slip not recorded: lateness max %v", rep.LatenessMax)
	}
}
