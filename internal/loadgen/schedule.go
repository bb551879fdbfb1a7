package loadgen

import (
	"time"

	"xvtpm/internal/workload"
)

// event is one scheduled arrival: at is the intended send time relative to
// run start, in ns.
type event struct {
	at    int64
	guest int32
	op    workload.Op
}

// guestState is one simulated guest inside a schedule: its own PRNG stream
// (so the schedule is deterministic no matter how guests interleave), its
// mean inter-arrival gap, and its next arrival time.
type guestState struct {
	next   int64
	meanNs float64
	rng    splitmix
	id     int32
}

// opPicker draws operations from a weighted mix, deterministically.
type opPicker struct {
	ops []workload.Op
	cum []uint64
	tot uint64
}

func newOpPicker(mix workload.Mix) *opPicker {
	p := &opPicker{}
	for _, op := range workload.AllOps {
		if w := mix[op]; w > 0 {
			p.tot += uint64(w)
			p.ops = append(p.ops, op)
			p.cum = append(p.cum, p.tot)
		}
	}
	if p.tot == 0 {
		p.ops = []workload.Op{workload.OpGetRandom}
		p.cum = []uint64{1}
		p.tot = 1
	}
	return p
}

func (p *opPicker) pick(r *splitmix) workload.Op {
	x := r.next() % p.tot
	for i, c := range p.cum {
		if x < c {
			return p.ops[i]
		}
	}
	return p.ops[len(p.ops)-1]
}

// schedule merges the Poisson arrival streams of a set of simulated guests
// into one ordered event stream via a binary min-heap keyed on next
// arrival time. Pops are ~log(guests); a million-guest schedule advances in
// well under a microsecond per event.
type schedule struct {
	guests  []guestState
	heap    []int32 // indexes into guests, min-heap on next
	pick    *opPicker
	horizon int64
	emitted int64
}

// newSchedule builds the merged arrival stream for guests[ids] with the
// given per-guest rates (commands/sec). Arrivals stop at horizon.
func newSchedule(ids []int32, rates []float64, mix workload.Mix, seed int64, horizon time.Duration) *schedule {
	s := &schedule{
		guests:  make([]guestState, 0, len(ids)),
		pick:    newOpPicker(mix),
		horizon: int64(horizon),
	}
	for _, id := range ids {
		rate := rates[id]
		if rate <= 0 {
			continue
		}
		g := guestState{
			meanNs: 1e9 / rate,
			rng:    splitmix{s: uint64(seed) ^ (uint64(id)+1)*0xd1342543de82ef95},
			id:     id,
		}
		// First arrival is a full exponential gap: the fleet phase-staggers
		// itself instead of stampeding at t=0.
		g.next = g.rng.expDur(g.meanNs)
		if g.next <= s.horizon {
			s.guests = append(s.guests, g)
		}
	}
	s.heap = make([]int32, len(s.guests))
	for i := range s.heap {
		s.heap[i] = int32(i)
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	return s
}

func (s *schedule) less(a, b int32) bool { return s.guests[a].next < s.guests[b].next }

func (s *schedule) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(s.heap[l], s.heap[min]) {
			min = l
		}
		if r < n && s.less(s.heap[r], s.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
	}
}

// next pops the earliest arrival and schedules that guest's following one.
// ok is false once every remaining arrival lies beyond the horizon.
func (s *schedule) next() (event, bool) {
	if len(s.heap) == 0 {
		return event{}, false
	}
	g := &s.guests[s.heap[0]]
	if g.next > s.horizon {
		// Heap min is past the horizon — everything else is too.
		return event{}, false
	}
	ev := event{at: g.next, guest: g.id, op: s.pick.pick(&g.rng)}
	// Compared before adding, so a saturated gap cannot wrap around.
	if gap := g.rng.expDur(g.meanNs); gap <= s.horizon-g.next {
		g.next += gap
	} else {
		// Retire the guest: swap-remove from the heap.
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
	}
	s.siftDown(0)
	s.emitted++
	return ev, true
}

// partition deals guest ids across nSlots round-robin; with a seeded
// shuffle this would bias nothing further since rates are already i.i.d.
func partition(nGuests, nSlots int) [][]int32 {
	out := make([][]int32, nSlots)
	for i := 0; i < nGuests; i++ {
		s := i % nSlots
		out[s] = append(out[s], int32(i))
	}
	return out
}
