package loadgen

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"xvtpm/internal/workload"
)

// fuzzMaxEvents caps each fuzzed schedule, so one input drains in
// milliseconds.
const fuzzMaxEvents = 1 << 12

// fuzzHeader is the fixed part of a fuzz input: guests (uint16), offered
// rate (float64 bits), duration (int64 ns) and seed (int64), little-endian.
// One mix weight byte per op in workload.AllOps order follows.
const fuzzHeader = 2 + 8 + 8 + 8

// fuzzInput encodes a live-generator config the way fuzzConfig decodes it.
func fuzzInput(guests uint16, offered float64, dur time.Duration, seed int64, weights ...byte) string {
	le := binary.LittleEndian
	b := make([]byte, fuzzHeader)
	le.PutUint16(b, guests)
	le.PutUint64(b[2:], math.Float64bits(offered))
	le.PutUint64(b[10:], uint64(dur))
	le.PutUint64(b[18:], uint64(seed))
	return string(append(b, weights...))
}

// fuzzConfig decodes fuzz bytes into a three-slot config; missing bytes
// read as zero, so a short input has an empty mix.
func fuzzConfig(src string) Config {
	b := make([]byte, fuzzHeader+len(workload.AllOps))
	copy(b, src)
	le := binary.LittleEndian
	mix := workload.Mix{}
	for i, op := range workload.AllOps {
		if w := b[fuzzHeader+i]; w > 0 {
			mix[op] = int(w)
		}
	}
	return Config{
		Guests:    int(le.Uint16(b)),
		Offered:   math.Float64frombits(le.Uint64(b[2:])),
		Duration:  time.Duration(le.Uint64(b[10:])),
		Seed:      int64(le.Uint64(b[18:])),
		Slots:     []Slot{{Step: nopStep, Mix: mix}, {Step: nopStep, Mix: mix}, {Step: nopStep, Mix: Mix20}},
		MaxEvents: fuzzMaxEvents,
	}
}

// FuzzLoadgenTraceParse fuzzes the live generator's config: any guest
// count, offered rate (every float64 bit pattern), horizon, seed and mix
// either fails validation or yields schedules that drain in time order,
// inside the horizon, within the event budget. The drain is bounded, so a
// schedule that never ends fails instead of hanging.
func FuzzLoadgenTraceParse(f *testing.F) {
	f.Add(fuzzInput(2000, 50000, 100*time.Millisecond, 1, 35, 40, 0, 15, 0, 10))
	f.Add(fuzzInput(100, math.NaN(), 100*time.Millisecond, 2, 1))
	f.Add(fuzzInput(100, math.Inf(1), time.Second, 3, 1))
	f.Add(fuzzInput(100, 1e12, time.Hour, 4, 1, 1, 1, 1, 1, 1, 1))
	f.Add(fuzzInput(0, 1000, time.Second, 5, 1))
	f.Add(fuzzInput(500, 2000, 50*time.Millisecond, 6))
	f.Add(fuzzInput(60000, 1e-300, 1<<62, 7, 0, 1))
	f.Add(fuzzInput(10, -5, -time.Second, 8, 255))
	f.Fuzz(func(t *testing.T, src string) {
		cfg := fuzzConfig(src)
		if cfg.defaults() != nil {
			return
		}
		// Horizon truncation holds the expected count at MaxEvents; a
		// Poisson draw never doubles it at this size.
		budget := 2 * fuzzMaxEvents
		for i, s := range cfg.schedules() {
			var last int64
			for {
				ev, ok := s.next()
				if !ok {
					break
				}
				if budget--; budget < 0 {
					t.Fatalf("schedules exceed %d events (offered %v, horizon %v)", 2*fuzzMaxEvents, cfg.Offered, cfg.Duration)
				}
				if ev.at < last || ev.at > int64(cfg.Duration) {
					t.Fatalf("slot %d: arrival at %dns after %dns, horizon %v", i, ev.at, last, cfg.Duration)
				}
				last = ev.at
			}
		}
	})
}
