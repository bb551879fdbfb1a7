package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
)

// Span kinds. The tree of one op is
//
//	op → client.transmit → manager   (every guest command)
//	op → attest.verify
//	op → cluster.migrate
//	op → cluster.session_extend → client.transmit → manager
//
// The manager span is the vTPM manager's own per-command span, read through
// Manager.Spans and joined to the client.transmit span that carried it.
const (
	kOp uint8 = iota
	kTransmit
	kManager
	kVerify
	kMigrate
	kSessionExtend
	nKinds
)

var kindNames = [nKinds]string{"op", "client.transmit", "manager", "attest.verify", "cluster.migrate", "cluster.session_extend"}

// span is one recorded interval. Times are nanoseconds since the phase's
// base time. A manager span carries its four phases in ph: queue wait,
// execute, sign wait and flush.
type span struct {
	op     int32
	parent int32
	kind   uint8
	start  int64
	end    int64
	ph     [4]int64
}

// lane is one vTPM instance on one manager: the unit the manager's span ring
// is kept per.
type lane struct {
	mgr  *vtpm.Manager
	inst vtpm.InstanceID
}

// pending is a lane's transmit spans not yet joined to manager spans.
type pending struct {
	idx     []int32
	lastSeq uint64
}

// tracer records the spans of one client goroutine. Nothing in it is shared:
// each client traces only the guests it owns.
type tracer struct {
	base    time.Time
	every   int
	spans   []span
	stack   []int32
	op      int32
	lanes   map[lane]*pending
	joined  int
	missed  int
	harvest []lane
}

func newTracer(base time.Time, every, ops int) *tracer {
	return &tracer{
		base:  base,
		every: every,
		spans: make([]span, 0, ops*3),
		lanes: make(map[lane]*pending),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens an op span and returns its index.
func (t *tracer) begin() int32 {
	t.op = int32(len(t.spans))
	t.spans = append(t.spans, span{op: t.op, parent: -1, kind: kOp})
	t.stack = append(t.stack[:0], t.op)
	return t.op
}

// end closes the op span and copies out the manager spans of every lane due
// for a harvest. The copy runs after the op's end, outside its span.
func (t *tracer) end(id int32, t0 time.Time, d time.Duration) {
	s := &t.spans[id]
	s.start = int64(t0.Sub(t.base))
	s.end = s.start + int64(d)
	t.stack = t.stack[:0]
	for _, l := range t.harvest {
		t.collect(l)
	}
	t.harvest = t.harvest[:0]
}

// open starts a child span of the innermost open span. Outside an op (the
// end-of-run checks) nothing is recorded and open returns -1.
func (t *tracer) open(kind uint8) int32 {
	if len(t.stack) == 0 {
		return -1
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{op: t.op, parent: t.stack[len(t.stack)-1], kind: kind, start: t.now()})
	t.stack = append(t.stack, idx)
	return idx
}

// close ends the innermost open span.
func (t *tracer) close(idx int32) {
	if idx < 0 {
		return
	}
	t.spans[idx].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// transmitted notes a finished transmit span on a lane and schedules the
// lane's harvest once enough commands are pending.
func (t *tracer) transmitted(l lane, idx int32) {
	if idx < 0 {
		return
	}
	p := t.lanes[l]
	if p == nil {
		p = &pending{}
		t.lanes[l] = p
	}
	p.idx = append(p.idx, idx)
	if len(p.idx) == t.every {
		t.harvest = append(t.harvest, l)
	}
}

// harvestAll joins every lane's outstanding transmits.
func (t *tracer) harvestAll() {
	for l := range t.lanes {
		t.collect(l)
	}
}

// collect copies a lane's new manager spans out and joins each to the
// transmit span that contains it. Lockstep frontends keep one command in
// flight per guest, so at most one transmit contains a given manager span.
func (t *tracer) collect(l lane) {
	p := t.lanes[l]
	if p == nil || len(p.idx) == 0 {
		return
	}
	ms, err := l.mgr.Spans(l.inst)
	if err != nil {
		t.missed += len(p.idx)
		p.idx = p.idx[:0]
		return
	}
	j := 0
	for _, m := range ms {
		if m.Seq <= p.lastSeq {
			continue
		}
		p.lastSeq = m.Seq
		ms := int64(m.Start.Sub(t.base))
		me := ms + int64(m.Total())
		for j < len(p.idx) && t.spans[p.idx[j]].end < me {
			j++
			t.missed++
		}
		if j == len(p.idx) {
			break
		}
		tx := p.idx[j]
		if t.spans[tx].start > ms {
			continue // a command this tracer did not carry (warm-up)
		}
		t.spans = append(t.spans, span{
			op: t.spans[tx].op, parent: tx, kind: kManager, start: ms, end: me,
			ph: [4]int64{int64(m.QueueWait), int64(m.Execute), int64(m.SignWait), int64(m.Flush)},
		})
		t.joined++
		j++
	}
	t.missed += len(p.idx) - j
	p.idx = p.idx[:0]
}

// timingTransport is a tpm.Transport over a guest frontend that records a
// client.transmit span around every command.
type timingTransport struct {
	next tpm.Transport
	tr   *tracer
	lane lane
}

// Transmit implements tpm.Transport.
func (tt *timingTransport) Transmit(cmd []byte) ([]byte, error) {
	idx := tt.tr.open(kTransmit)
	resp, err := tt.next.Transmit(cmd)
	tt.tr.close(idx)
	tt.tr.transmitted(tt.lane, idx)
	return resp, err
}

// traceReport is what the traced phase's spans say, averaged per op.
type traceReport struct {
	ops      int
	opMean   float64         // µs
	self     [nKinds]float64 // mean self time per op, µs
	phases   [4]float64      // mean manager phase time per op, µs
	count    [nKinds]float64 // spans per op
	kindMean [nKinds]float64 // mean span duration, µs
	rttP50   float64         // µs
	txSelf   float64         // mean transmit self time over joined transmits, µs
	joined   int
	missed   int
}

// analyse computes self times: a span's duration minus the time its children
// cover. Children of one span never overlap (a client runs one call at a
// time), so the covered time is the sum of their durations.
func analyse(ts []*tracer) traceReport {
	var r traceReport
	var rtts []time.Duration
	var txSelfSum float64
	var txJoined int
	for _, t := range ts {
		child := make([]int64, len(t.spans))
		joined := make([]bool, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
				if s.kind == kManager {
					joined[s.parent] = true
				}
			}
		}
		for i, s := range t.spans {
			d := s.end - s.start
			self := d - child[i]
			r.self[s.kind] += float64(self)
			r.count[s.kind]++
			r.kindMean[s.kind] += float64(d)
			switch s.kind {
			case kOp:
				r.ops++
			case kTransmit:
				rtts = append(rtts, time.Duration(d))
				if joined[i] {
					txSelfSum += float64(self)
					txJoined++
				}
			case kManager:
				for k := range s.ph {
					r.phases[k] += float64(s.ph[k])
				}
			}
		}
		r.joined += t.joined
		r.missed += t.missed
	}
	if r.ops == 0 {
		return r
	}
	n := float64(r.ops)
	for k := range r.self {
		if r.count[k] > 0 {
			r.kindMean[k] /= r.count[k] * 1e3
		}
		r.self[k] /= n * 1e3
		r.count[k] /= n
	}
	for k := range r.phases {
		r.phases[k] /= n * 1e3
	}
	r.opMean = r.kindMean[kOp]
	r.rttP50 = us(quantile(rtts, 0.5))
	if txJoined > 0 {
		r.txSelf = txSelfSum / float64(txJoined) / 1e3
	}
	return r
}

// print writes the per-op self-time breakdown: the rows sum to the op span.
func (r traceReport) print(w io.Writer, name string) {
	fmt.Fprintf(w, "trace %s: %d ops, manager spans joined %d, unjoined transmits %d\n", name, r.ops, r.joined, r.missed)
	fmt.Fprintf(w, "  %-26s %10s %10s %12s\n", "span", "per op", "mean µs", "self µs/op")
	var sum float64
	for k := uint8(0); k < nKinds; k++ {
		if r.count[k] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-26s %10.3f %10.2f %12.2f\n", kindNames[k], r.count[k], r.kindMean[k], r.self[k])
		sum += r.self[k]
	}
	for k, name := range []string{"queue_wait", "execute", "sign_wait", "flush"} {
		if r.count[kManager] > 0 {
			fmt.Fprintf(w, "  %-26s %10s %10s %12.2f\n", "  manager."+name, "", "", r.phases[k])
		}
	}
	fmt.Fprintf(w, "  self times sum to %.2f µs/op; op span mean %.2f µs\n", sum, r.opMean)
}

// writeSpans dumps every span, one per line, to dir/<workload>.spans.tsv.
func writeSpans(dir, name string, ts []*tracer) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".spans.tsv"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "client\top\tkind\tparent\tstart_ns\tend_ns\tqueue_wait_ns\texecute_ns\tsign_wait_ns\tflush_ns")
	for ci, t := range ts {
		for _, s := range t.spans {
			fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", ci, s.op, kindNames[s.kind], s.parent,
				s.start, s.end, s.ph[0], s.ph[1], s.ph[2], s.ph[3])
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
