package loadgen

import (
	"errors"
	"math"
	"sync"
	"time"

	"xvtpm/internal/workload"
)

// Stepper executes one operation on a slot's real backing (a load session
// client or a guest TPM client) and returns the command error, if any.
type Stepper func(op workload.Op) error

// Slot is one real execution lane: simulated guests are dealt across
// slots, and each slot replays its guests' merged arrival stream through
// Step. The slot's Mix is the op profile of the guests homed on it (how
// 1.2 and 2.0 fleets coexist: give their slots different mixes).
type Slot struct {
	Step Stepper
	Mix  workload.Mix
}

// Config parameterizes a live (wall-clock) open-loop run.
type Config struct {
	Guests   int           // simulated guests
	Offered  float64       // aggregate arrival rate, commands/sec
	Duration time.Duration // schedule horizon
	Seed     int64
	Slots    []Slot
	// MaxEvents bounds the schedule (default 2e6): an over-ambitious
	// offered×duration product truncates the horizon instead of
	// building an unbounded schedule.
	MaxEvents int64
	// Metrics, when set, receives per-command observations live (the
	// Prometheus rows); the Report is produced either way.
	Metrics *Metrics
}

// defaults validates the config and fills in MaxEvents, truncating the
// horizon to it. A NaN Offered is refused because its gaps never carry a
// schedule past the horizon, an infinite one because it truncates the
// horizon to nothing.
func (c *Config) defaults() error {
	if c.Guests <= 0 || c.Duration <= 0 {
		return errors.New("loadgen: Guests and Duration must be positive")
	}
	if !(c.Offered > 0) || math.IsInf(c.Offered, 1) {
		return errors.New("loadgen: Offered must be a finite positive rate")
	}
	if len(c.Slots) == 0 {
		return errors.New("loadgen: need at least one slot")
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 2_000_000
	}
	if want := c.Offered * c.Duration.Seconds(); want > float64(c.MaxEvents) {
		c.Duration = time.Duration(float64(c.MaxEvents) / c.Offered * 1e9)
	}
	return nil
}

// schedules builds each slot's merged arrival stream: the fleet's rate
// table, guests dealt round-robin across slots, one seeded stream per slot.
func (c *Config) schedules() []*schedule {
	rates := rateTable(c.Guests, c.Seed, c.Offered)
	parts := partition(c.Guests, len(c.Slots))
	out := make([]*schedule, len(c.Slots))
	for i, slot := range c.Slots {
		out[i] = newSchedule(parts[i], rates, slot.Mix, c.Seed+int64(i)*1009, c.Duration)
	}
	return out
}

// Run offers load to the slots on the wall clock. Each slot worker walks
// its schedule: it waits until an arrival's intended send time, issues the
// op, and records completion − *intended* send time — if the worker (or the
// system behind it) falls behind, the lateness lands in the recorded
// latency rather than stretching the schedule (open loop, CO-safe).
func Run(cfg Config) (*Report, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	scheds := cfg.schedules()
	cols := make([]*collector, len(cfg.Slots))
	for i := range cols {
		cols[i] = newCollector()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := range cfg.Slots {
		wg.Add(1)
		go func(slot Slot, sched *schedule, col *collector) {
			defer wg.Done()
			for {
				ev, ok := sched.next()
				if !ok {
					return
				}
				intended := start.Add(time.Duration(ev.at))
				if wait := time.Until(intended); wait > 0 {
					time.Sleep(wait)
				}
				late := time.Since(intended)
				if late < 0 {
					late = 0
				}
				err := slot.Step(ev.op)
				lat := time.Since(intended) // includes lateness: CO-safe
				col.record(ev.op, lat, late, err)
				if m := cfg.Metrics; m != nil {
					m.observe(lat, late, err, lat <= DefaultSLO[ev.op])
				}
			}
		}(cfg.Slots[i], scheds[i], cols[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	merged := newCollector()
	var scheduled int64
	for i, col := range cols {
		merged.merge(col)
		scheduled += scheds[i].emitted
	}
	rep := merged.report(cfg.Guests, len(cfg.Slots), cfg.Offered, cfg.Duration, elapsed, scheduled)
	if cfg.Metrics != nil {
		cfg.Metrics.observeReport(rep)
	}
	return rep, nil
}
