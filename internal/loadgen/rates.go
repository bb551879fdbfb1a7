package loadgen

import "math"

// splitmix is a splitmix64 PRNG: tiny state, excellent mixing, and —
// unlike math/rand sources — trivially forkable per guest, which keeps a
// million-guest schedule deterministic regardless of how guests interleave.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 in [0,1) with 53 bits of precision.
func (r *splitmix) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// expDur draws an exponential with the given mean (in ns), for Poisson
// inter-arrival gaps. The +tiny offset keeps log() off zero; a gap too long
// for int64 (a vanishing per-guest rate) saturates instead of wrapping.
func (r *splitmix) expDur(meanNs float64) int64 {
	u := r.float64()
	d := -math.Log(1-u+1e-18) * meanNs
	if !(d < math.MaxInt64) {
		return math.MaxInt64
	}
	if d < 1 {
		d = 1
	}
	return int64(d)
}

// Fleet shape: per-guest rates follow a bounded Pareto with this shape on
// [1, paretoMaxSkew] before normalization.
const (
	paretoAlpha   = 1.1
	paretoMaxSkew = 1000
)

// rateTable assigns each of n simulated guests an arrival rate from a
// bounded Pareto distribution (shape paretoAlpha, support [1,
// paretoMaxSkew]) and normalizes the table so the rates sum to total
// commands/sec. A heavy tail is the realistic fleet shape: most guests idle
// along at a trickle while a few busy ones dominate, so per-slot load is
// bursty rather than uniform.
func rateTable(n int, seed int64, total float64) []float64 {
	rng := splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
	rates := make([]float64, n)
	// Inverse CDF of bounded Pareto on [1, H]: w = (1 - u(1 - H^-a))^(-1/a).
	hma := math.Pow(paretoMaxSkew, -paretoAlpha)
	var sum float64
	for i := range rates {
		u := rng.float64()
		w := math.Pow(1-u*(1-hma), -1/paretoAlpha)
		rates[i] = w
		sum += w
	}
	scale := total / sum
	for i := range rates {
		rates[i] *= scale
	}
	return rates
}
