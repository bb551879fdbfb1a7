package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// clients is the closed loop's concurrency: one client goroutine per vCPU of
// the reference VM, each owning half of the guests and issuing its next op
// only after the previous one returned.
const clients = 2

// rng is splitmix64: every op stream, guest name, kernel image and
// measurement digest the benchmark generates comes from one of these, seeded
// from the --seed argument, so a seed names one exact input.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) rng {
	r := rng{s: seed}
	for _, b := range []byte(stream) {
		r.s = (r.s ^ uint64(b)) * 0x100000001b3
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) digest() (d [20]byte) {
	for i := 0; i < len(d); i += 8 {
		v := r.next()
		for j := 0; j < 8 && i+j < len(d); j++ {
			d[i+j] = byte(v >> (8 * j))
		}
	}
	return d
}

func (r *rng) bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if i%8 == 0 {
			v := r.next()
			for j := 0; j < 8 && i+j < n; j++ {
				out[i+j] = byte(v >> (8 * j))
			}
		}
	}
	return out
}

// op is one generated operation. Its fields mean what the workload that
// generated it says; the closed loop only routes it.
type op struct {
	guest  int
	kind   uint8
	pcr    uint32
	size   int
	digest [20]byte
}

// system is one booted workload: hosts, guests and their clients.
type system interface {
	// do runs one op and checks its output; an error is a failed op.
	do(c *client, o op) error
	// verify runs the end-of-run checks and returns how many ops they fail.
	verify(out io.Writer) int
	// layers reads the per-layer counters; final adds the leak sentinels.
	layers(final bool) counters
	// trace routes the commands of the client's guests through timing
	// transports on its tracer.
	trace(c *client)
	// close tears every guest down and shuts the hosts; an error fails the run.
	close() error
}

// workload is one benchmark workload.
type workload struct {
	name   string
	guests int
	// rate sizes a run: a run of s seconds executes rate×s ops, a fixed
	// count, so runs of one seed do identical work however fast they go.
	// It is the closed loop's throughput on a 2-vCPU VM.
	rate int
	// harvestEvery is how many commands a guest's vTPM instance may run
	// before the traced run copies its manager spans out (the manager keeps
	// only the newest trace.DefaultDepth of them per instance).
	harvestEvery int
	// quotesPerOp is how many TPM quotes one op asks for.
	quotesPerOp int
	// boot brings the system up: hosts, guests, one warm-up command each.
	boot func(seed uint64, guests int) (system, error)
	// next draws a client's next op over the guests it owns.
	next func(r *rng, mine []int) op
}

// client is one closed-loop client goroutine and everything it owns.
type client struct {
	r     rng
	mine  []int
	lat   []time.Duration
	fails int
	errs  []string
	tr    *tracer // nil in the untraced run
	seen  []op    // ops issued, when recording (self-tests)
	rec   bool
}

// A phase runs in consecutive slices of at least minSliceOps ops, at most
// maxSlices of them, so each slice's p99 has ten samples beyond it. The
// end-to-end figures are medians over slices: on a shared 2-vCPU VM the
// throughput of one op stream moves by up to a fifth from one second to the
// next (one measure run's one-second slices ranged from 26k to 35k ops/s),
// and the median reads the common speed where a figure over the whole run
// would read how many fast or slow seconds it caught. The clients stop and
// restart between slices, which also re-deals the scheduler's placement of
// client, backend and pool goroutines.
const (
	minSliceOps = 1000
	maxSlices   = 10
)

// phase is one measured closed-loop phase.
type phase struct {
	ops, failed int
	wall        time.Duration
	slices      []sliceStat
	thirds      [2]time.Duration // op p50 over the first and the last third
	heapMB      float64          // live heap after a forced GC at the end
	proc        [2]procSample    // at the start and at the end
	clients     []*client
	errs        []string
}

// sliceStat is one slice's figures: completed ops per wall second and op
// latency quantiles in µs.
type sliceStat struct{ rate, p50, p99 float64 }

// ownedBy splits guests between clients: client i owns every guest whose
// index is i mod clients.
func ownedBy(i, guests int) []int {
	var mine []int
	for g := i; g < guests; g += clients {
		mine = append(mine, g)
	}
	return mine
}

// runPhase drives n ops through sys from the closed-loop clients, in slices.
func runPhase(w *workload, sys system, seed uint64, n int, traced, record bool, base time.Time) phase {
	cs := make([]*client, clients)
	share := n / clients
	for i := range cs {
		cs[i] = &client{
			r:    newRNG(seed, fmt.Sprintf("ops|%s|%d", w.name, i)),
			mine: ownedBy(i, w.guests),
			lat:  make([]time.Duration, 0, share),
			rec:  record,
		}
		if traced {
			cs[i].tr = newTracer(base, w.harvestEvery, share)
			sys.trace(cs[i])
		}
	}
	p := phase{ops: share * clients, clients: cs}
	slices := min(max(n/minSliceOps, 1), maxSlices)
	var walls []time.Duration
	var fails []int
	proc0 := sampleProc()
	for k := 0; k < slices; k++ {
		lo, hi := share*k/slices, share*(k+1)/slices
		failed0 := 0
		for _, c := range cs {
			failed0 += c.fails
		}
		var wg sync.WaitGroup
		start := time.Now()
		for _, c := range cs {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				c.loop(w, sys, hi-lo)
			}(c)
		}
		wg.Wait()
		wall := time.Since(start)
		p.wall += wall
		walls = append(walls, wall)
		failed := -failed0
		for _, c := range cs {
			failed += c.fails
		}
		fails = append(fails, failed)
	}
	p.proc = [2]procSample{proc0, sampleProc()}
	p.heapMB = liveHeapMB()
	for k := 0; k < slices; k++ {
		lo, hi := share*k/slices, share*(k+1)/slices
		var lat []time.Duration
		for _, c := range cs {
			lat = append(lat, c.lat[lo:hi]...)
		}
		p.slices = append(p.slices, sliceStat{
			rate: float64(len(lat)-fails[k]) / walls[k].Seconds(),
			p50:  us(quantile(lat, 0.50)),
			p99:  us(quantile(lat, 0.99)),
		})
	}
	var first, last []time.Duration
	for _, c := range cs {
		p.failed += c.fails
		p.errs = append(p.errs, c.errs...)
		third := len(c.lat) / 3
		first = append(first, c.lat[:third]...)
		last = append(last, c.lat[len(c.lat)-third:]...)
	}
	p.thirds = [2]time.Duration{quantile(first, 0.5), quantile(last, 0.5)}
	return p
}

// loop issues the client's next n ops, one at a time.
func (c *client) loop(w *workload, sys system, n int) {
	for k := 0; k < n; k++ {
		o := w.next(&c.r, c.mine)
		if c.rec {
			c.seen = append(c.seen, o)
		}
		var id int32
		if c.tr != nil {
			id = c.tr.begin()
		}
		t0 := time.Now()
		err := sys.do(c, o)
		d := time.Since(t0)
		c.lat = append(c.lat, d)
		if c.tr != nil {
			c.tr.end(id, t0, d)
		}
		if err != nil {
			c.fails++
			if len(c.errs) < 3 {
				c.errs = append(c.errs, err.Error())
			}
		}
	}
	if c.tr != nil {
		c.tr.harvestAll()
	}
}

// sliceMedian is the median over every slice of the phases of f(slice).
func sliceMedian(ps []phase, f func(sliceStat) float64) float64 {
	var xs []float64
	for _, p := range ps {
		for _, sl := range p.slices {
			xs = append(xs, f(sl))
		}
	}
	return median(xs)
}

// quantile returns the q-quantile of ds by the nearest-rank rule. It sorts a
// copy.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// print writes the phase's summary line and its first errors.
func (p phase) print(w io.Writer, name string) {
	fmt.Fprintf(w, "%s: %d ops, %d failed, %.3f s; op p50 %.1f µs in the first third, %.1f µs in the last\n",
		name, p.ops, p.failed, p.wall.Seconds(), us(p.thirds[0]), us(p.thirds[1]))
	fmt.Fprintf(w, "%s: slices", name)
	for _, sl := range p.slices {
		fmt.Fprintf(w, " [%.0f/s p50 %.1f p99 %.1f µs]", sl.rate, sl.p50, sl.p99)
	}
	fmt.Fprintln(w)
	for _, e := range p.errs {
		fmt.Fprintf(w, "%s: failed op: %s\n", name, e)
	}
}
