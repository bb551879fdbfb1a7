package vtpm

import (
	"fmt"
	"sync"
	"time"

	"xvtpm/internal/metrics"
	"xvtpm/internal/ring"
)

// TransportMetrics instruments the guest transport path: end-to-end guest
// round-trip latency (recorded by frontends) and the request batch size per
// backend drain (recorded by backends). One instance serves a whole host;
// both histograms are atomic and zero-alloc to record.
type TransportMetrics struct {
	// GuestRTT is the guest-observed command round trip: encode, ring,
	// dispatch, ring back, decode.
	GuestRTT *metrics.Histogram
	// RingBatch distributes the number of request frames each backend drain
	// pulled per wakeup (recorded as a Duration whose integer value is the
	// frame count).
	RingBatch *metrics.Histogram
}

// ringBatchBounds bucket batch sizes 1..N for the 8-slot device ring, with
// headroom for larger geometries.
var ringBatchBounds = []int64{1, 2, 3, 4, 6, 8, 12, 16, 32}

// NewTransportMetrics builds the host's transport instruments.
func NewTransportMetrics() *TransportMetrics {
	return &TransportMetrics{
		GuestRTT:  metrics.NewHistogram(nil),
		RingBatch: metrics.NewHistogram(ringBatchBounds),
	}
}

// Register exposes the transport instruments in reg.
func (t *TransportMetrics) Register(reg *metrics.Registry) error {
	if err := reg.RegisterHistogram("xvtpm_guest_rtt_seconds",
		"End-to-end guest command round-trip latency.", t.GuestRTT); err != nil {
		return err
	}
	return reg.RegisterHistogram("xvtpm_ring_batch_frames",
		"Request frames drained per backend wakeup.", t.RingBatch)
}

// FrontendConfig tunes one guest frontend.
type FrontendConfig struct {
	// PipelineDepth is the maximum number of commands the frontend keeps in
	// flight on the ring at once. 0 or 1 selects strict request/response
	// lockstep (the /dev/tpm0 model); larger values let concurrent callers
	// overlap their round trips. Clamped to the ring's slot count.
	PipelineDepth int
	// Metrics, when non-nil, receives guest round-trip latencies.
	Metrics *TransportMetrics
}

// pendSlot is one in-flight command in the pipelined frontend's pending
// table. The ring frame tag (id) matches responses to slots out of order;
// seq is the channel sequence number the response envelope must carry.
type pendSlot struct {
	id   uint64
	seq  uint64
	rsp  []byte // framed response payload, copied out of the drain batch
	dec  []byte // reusable decode buffer
	used bool
	done bool
}

// pipeline is the pending table plus the cooperative drain state of one
// pipelined frontend. One waiter at a time is elected drainer; it pulls
// whole response batches off the ring and deposits them into slots by frame
// tag, then wakes everyone to re-check.
type pipeline struct {
	mu       sync.Mutex
	slotFree sync.Cond // waiters for a free pending slot
	arrival  sync.Cond // waiters for a deposited response
	slots    []pendSlot
	draining bool
	stale    uint64 // responses whose tag matched no in-flight slot
	txBuf    []byte // shared framed-request build buffer (under mu)
	rx       ring.Batch
}

func newPipeline(depth int) *pipeline {
	p := &pipeline{slots: make([]pendSlot, depth)}
	p.slotFree.L = &p.mu
	p.arrival.L = &p.mu
	return p
}

// StaleResponses reports how many drained responses matched no in-flight
// command (tests and fuzzing observability).
func (f *Frontend) StaleResponses() uint64 {
	if f.pipe == nil {
		return 0
	}
	f.pipe.mu.Lock()
	defer f.pipe.mu.Unlock()
	return f.pipe.stale
}

// depositLocked matches one drained response frame to its pending slot by
// ring tag, copying the payload into the slot. Unmatched frames — stale
// tags, duplicates for already-completed slots — are counted and dropped.
// Called with p.mu held.
func (p *pipeline) depositLocked(id uint64, payload []byte) {
	for j := range p.slots {
		s := &p.slots[j]
		if s.used && !s.done && s.id == id {
			s.rsp = append(s.rsp[:0], payload...)
			s.done = true
			return
		}
	}
	p.stale++
}

// depositBatch deposits a whole drained batch under p.mu.
func (p *pipeline) depositBatch(n int) {
	p.mu.Lock()
	for i := 0; i < n; i++ {
		id, payload := p.rx.Frame(i)
		p.depositLocked(id, payload)
	}
	p.mu.Unlock()
}

// transmitPipelined is Transmit for PipelineDepth > 1: claim a pending slot,
// encode and enqueue under the pipeline lock (so ring order matches sequence
// order, which the server's anti-replay window requires), then wait for the
// slot's response, cooperatively draining the ring.
func (f *Frontend) transmitPipelined(cmd []byte) ([]byte, error) {
	var start time.Time
	tm := f.cfg.Metrics
	if tm != nil {
		start = time.Now()
	}
	p := f.pipe
	p.mu.Lock()
	var s *pendSlot
	for {
		for j := range p.slots {
			if !p.slots[j].used {
				s = &p.slots[j]
				break
			}
		}
		if s != nil {
			break
		}
		p.slotFree.Wait()
	}
	s.used, s.done = true, false
	buf, seq, err := f.codec.EncodeRequest(append(p.txBuf[:0], payloadEncoded), cmd)
	if err != nil {
		s.used = false
		p.mu.Unlock()
		p.slotFree.Signal()
		return nil, err
	}
	p.txBuf = buf
	// Depth never exceeds the slot count and every in-flight command's
	// response is drained eagerly, so the ring cannot be full here and the
	// enqueue never blocks while p.mu is held.
	id, err := f.r.EnqueueRequest(p.txBuf)
	if err != nil {
		s.used = false
		p.mu.Unlock()
		p.slotFree.Signal()
		return nil, err
	}
	s.id, s.seq = id, seq
	p.mu.Unlock()
	if err := ringDoorbell(f.hv.EventChannels(), f.dom.ID(), f.port, f.r.RequestNotifyWanted()); err != nil {
		f.failSlot(s)
		return nil, err
	}

	p.mu.Lock()
	for !s.done {
		if p.draining {
			p.arrival.Wait()
			continue
		}
		p.draining = true
		p.mu.Unlock()
		derr := f.drainResponses(p)
		p.mu.Lock()
		p.draining = false
		p.arrival.Broadcast()
		if derr != nil && !s.done {
			s.used = false
			p.mu.Unlock()
			p.slotFree.Signal()
			return nil, derr
		}
	}
	// The slot is ours until used is cleared, so decode outside p.mu.
	p.mu.Unlock()
	out, err := f.decodeFrame(s.rsp, s.seq)
	p.mu.Lock()
	s.used = false
	p.mu.Unlock()
	p.slotFree.Signal()
	if err == nil && tm != nil {
		tm.GuestRTT.Record(time.Since(start))
	}
	return out, err
}

// failSlot releases a claimed slot after a post-enqueue failure.
func (f *Frontend) failSlot(s *pendSlot) {
	f.pipe.mu.Lock()
	s.used = false
	f.pipe.mu.Unlock()
	f.pipe.slotFree.Signal()
}

// decodeFrame unwraps a framed response carrying channel sequence seq. The
// returned slice is caller-owned (copied or freshly decoded), since the
// frame's buffer — a pending slot or the lockstep scratch buffer — is reused
// for the next command.
func (f *Frontend) decodeFrame(rp []byte, seq uint64) ([]byte, error) {
	if len(rp) == 0 {
		return nil, ErrShortPayload
	}
	switch rp[0] {
	case payloadRaw:
		return append([]byte(nil), rp[1:]...), nil
	case payloadEncoded:
		return f.codec.DecodeResponse(nil, rp[1:], seq)
	default:
		return nil, fmt.Errorf("vtpm: unknown response framing %d", rp[0])
	}
}

// drainResponses waits until the ring yields at least one response batch
// and deposits it into the pending table.
func (f *Frontend) drainResponses(p *pipeline) error {
	return awaitRing(f.hv.EventChannels(), f.dom.ID(), f.port, f.r.SetResponseNotify, func() (bool, error) {
		n, err := f.r.DequeueResponseBatchInto(&p.rx, 0)
		if n > 0 {
			p.depositBatch(n)
		}
		return n > 0, err
	})
}
