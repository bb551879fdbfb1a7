package ring

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func newTestRing(t *testing.T, g Geometry) *Ring {
	t.Helper()
	region := make([]byte, g.RegionSize())
	r, err := Init(region, g, nil)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	return r
}

// takeRequest is the backend's pop: it fails the test unless a request is
// pending.
func takeRequest(t testing.TB, r *Ring) (uint64, []byte) {
	t.Helper()
	id, p, ok, err := r.TryDequeueRequestInto(nil)
	if err != nil || !ok {
		t.Fatalf("TryDequeueRequestInto = (%v, %v), want a request", ok, err)
	}
	return id, p
}

// takeResponse is the frontend's pop: it fails the test unless a response
// is pending.
func takeResponse(t testing.TB, r *Ring) (uint64, []byte) {
	t.Helper()
	id, p, ok, err := r.TryDequeueResponseInto(nil)
	if err != nil || !ok {
		t.Fatalf("TryDequeueResponseInto = (%v, %v), want a response", ok, err)
	}
	return id, p
}

func TestInitRejectsBadGeometry(t *testing.T) {
	cases := []Geometry{
		{NumSlots: 0, SlotSize: 64},
		{NumSlots: 3, SlotSize: 64},
		{NumSlots: 6, SlotSize: 64},
	}
	for _, g := range cases {
		if _, err := Init(make([]byte, 1<<16), g, nil); !errors.Is(err, ErrBadGeometry) {
			t.Errorf("Init(%+v) err = %v, want ErrBadGeometry", g, err)
		}
	}
}

func TestInitRejectsShortRegion(t *testing.T) {
	g := Geometry{NumSlots: 4, SlotSize: 128}
	if _, err := Init(make([]byte, g.RegionSize()-1), g, nil); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("err = %v, want ErrBadRegion", err)
	}
}

func TestRoundTripSingle(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 256})
	id, err := r.EnqueueRequest([]byte("hello tpm"))
	if err != nil {
		t.Fatalf("EnqueueRequest: %v", err)
	}
	gotID, payload := takeRequest(t, r)
	if gotID != id || string(payload) != "hello tpm" {
		t.Fatalf("got (%d, %q), want (%d, %q)", gotID, payload, id, "hello tpm")
	}
	if err := r.EnqueueResponse(id, []byte("resp")); err != nil {
		t.Fatalf("EnqueueResponse: %v", err)
	}
	rid, rp := takeResponse(t, r)
	if rid != id || string(rp) != "resp" {
		t.Fatalf("got (%d, %q), want (%d, %q)", rid, rp, id, "resp")
	}
}

// TestBatchRoundTrip keeps a batch of requests in flight at once: all are
// published before the backend takes any, and requests and responses come
// back in publication order with their ids.
func TestBatchRoundTrip(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 8, SlotSize: 256})
	payloads := [][]byte{[]byte("alpha"), []byte("bb"), []byte("gamma-long-payload"), []byte("d")}
	var ids []uint64
	for _, p := range payloads {
		id, err := r.EnqueueRequest(p)
		if err != nil {
			t.Fatalf("EnqueueRequest: %v", err)
		}
		ids = append(ids, id)
	}
	for i := range payloads {
		id, p := takeRequest(t, r)
		if id != ids[i] || !bytes.Equal(p, payloads[i]) {
			t.Fatalf("request %d = (%d, %q), want (%d, %q)", i, id, p, ids[i], payloads[i])
		}
		if err := r.EnqueueResponse(id, append([]byte("re:"), p...)); err != nil {
			t.Fatalf("EnqueueResponse: %v", err)
		}
	}
	if _, _, ok, err := r.TryDequeueRequestInto(nil); ok || err != nil {
		t.Fatalf("drained ring: ok=%v err=%v", ok, err)
	}
	for i := range payloads {
		id, p := takeResponse(t, r)
		want := append([]byte("re:"), payloads[i]...)
		if id != ids[i] || !bytes.Equal(p, want) {
			t.Fatalf("response %d = (%d, %q), want (%d, %q)", i, id, p, ids[i], want)
		}
	}
}

func TestPayloadTooLarge(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 8})
	if _, err := r.EnqueueRequest(make([]byte, 9)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("EnqueueRequest err = %v, want ErrTooLarge", err)
	}
	if err := r.EnqueueResponse(1, make([]byte, 9)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("EnqueueResponse err = %v, want ErrTooLarge", err)
	}
}

// TestBatchRejectsOversizedFrame refuses an oversized frame in the middle of
// a batch without disturbing the frames published before it.
func TestBatchRejectsOversizedFrame(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 16})
	id, err := r.EnqueueRequest([]byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.EnqueueRequest(make([]byte, 17)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if gid, p := takeRequest(t, r); gid != id || string(p) != "ok" {
		t.Fatalf("got (%d, %q), want (%d, %q)", gid, p, id, "ok")
	}
	if _, _, ok, err := r.TryDequeueRequestInto(nil); ok || err != nil {
		t.Fatalf("oversized frame reached the ring: ok=%v err=%v", ok, err)
	}
}

func TestResponseWithoutRequestFails(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 32})
	if err := r.EnqueueResponse(1, []byte("x")); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
}

func TestResponseWrongIDFails(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 32})
	id, _ := r.EnqueueRequest([]byte("a"))
	takeRequest(t, r)
	if err := r.EnqueueResponse(id+7, []byte("x")); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("err = %v, want ErrUnknownID", err)
	}
}

// TestBatchResponseIDMismatch keeps two requests in flight: responses must
// land in request order, so answering the second id first is refused.
func TestBatchResponseIDMismatch(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 64})
	first, _ := r.EnqueueRequest([]byte("x"))
	second, _ := r.EnqueueRequest([]byte("y"))
	takeRequest(t, r)
	takeRequest(t, r)
	if err := r.EnqueueResponse(second, []byte("r1")); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("err = %v, want ErrUnknownID", err)
	}
	if err := r.EnqueueResponse(first, []byte("r0")); err != nil {
		t.Fatalf("in-order response refused: %v", err)
	}
}

func TestBlockingWhenFullThenDrain(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 32})
	for i := 0; i < 2; i++ {
		if _, err := r.EnqueueRequest([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.EnqueueRequest([]byte{9})
		done <- err
	}()
	// Drain one full exchange to free a slot.
	id, _ := takeRequest(t, r)
	if err := r.EnqueueResponse(id, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	takeResponse(t, r)
	if err := <-done; err != nil {
		t.Fatalf("blocked enqueue returned %v", err)
	}
}

// TestBatchFillsWholeRing publishes as many requests as the ring has slots,
// answers them all, and drains every response.
func TestBatchFillsWholeRing(t *testing.T) {
	g := Geometry{NumSlots: 8, SlotSize: 32}
	r := newTestRing(t, g)
	for i := 0; i < int(g.NumSlots); i++ {
		if _, err := r.EnqueueRequest([]byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < int(g.NumSlots); i++ {
		id, p := takeRequest(t, r)
		if err := r.EnqueueResponse(id, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < int(g.NumSlots); i++ {
		if _, p := takeResponse(t, r); string(p) != fmt.Sprintf("p%d", i) {
			t.Fatalf("response %d = %q", i, p)
		}
	}
	if _, _, ok, err := r.TryDequeueResponseInto(nil); ok || err != nil {
		t.Fatalf("drained ring: ok=%v err=%v", ok, err)
	}
}

// TestCloseUnblocksWaiters closes a ring under an enqueue blocked on a full
// ring: the waiter and every later call see ErrClosed.
func TestCloseUnblocksWaiters(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 32})
	for i := 0; i < 2; i++ {
		if _, err := r.EnqueueRequest([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 1)
	go func() { _, err := r.EnqueueRequest([]byte("blocked")); errs <- err }()
	r.Close()
	if err := <-errs; !errors.Is(err, ErrClosed) {
		t.Fatalf("waiter err = %v, want ErrClosed", err)
	}
	if _, err := r.EnqueueRequest([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close enqueue err = %v, want ErrClosed", err)
	}
	if _, _, _, err := r.TryDequeueRequestInto(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close request dequeue err = %v, want ErrClosed", err)
	}
	if err := r.EnqueueResponse(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close response enqueue err = %v, want ErrClosed", err)
	}
	if _, _, _, err := r.TryDequeueResponseInto(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close response dequeue err = %v, want ErrClosed", err)
	}
	if !r.Closed() {
		t.Fatal("Closed() = false after Close")
	}
}

func TestTryDequeueRequest(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 32})
	if _, _, ok, err := r.TryDequeueRequestInto(nil); ok || err != nil {
		t.Fatalf("empty ring: ok=%v err=%v", ok, err)
	}
	id, _ := r.EnqueueRequest([]byte("q"))
	scratch := make([]byte, 0, 32)
	gid, p, ok, err := r.TryDequeueRequestInto(scratch)
	if err != nil || !ok || gid != id || string(p) != "q" {
		t.Fatalf("got (%d,%q,%v,%v)", gid, p, ok, err)
	}
	if &p[0] != &scratch[:1][0] {
		t.Fatal("payload not appended into the caller's buffer")
	}
}

// TestTryDequeueResponseAndPending checks a response is pending for the
// frontend only once the backend has answered: not on an empty ring, not
// while the request alone is in flight.
func TestTryDequeueResponseAndPending(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 32})
	if _, _, ok, err := r.TryDequeueResponseInto(nil); ok || err != nil {
		t.Fatalf("empty: ok=%v err=%v", ok, err)
	}
	id, _ := r.EnqueueRequest([]byte("q"))
	if _, _, ok, err := r.TryDequeueResponseInto(nil); ok || err != nil {
		t.Fatalf("request only: ok=%v err=%v", ok, err)
	}
	takeRequest(t, r)
	if err := r.EnqueueResponse(id, []byte("a")); err != nil {
		t.Fatal(err)
	}
	gid, p, ok, err := r.TryDequeueResponseInto(nil)
	if err != nil || !ok || gid != id || string(p) != "a" {
		t.Fatalf("got (%d,%q,%v,%v)", gid, p, ok, err)
	}
}

func TestSlotZeroizedAfterResponseConsumed(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 2, SlotSize: 64})
	secret := []byte("super-secret-auth-value")
	id, _ := r.EnqueueRequest(secret)
	region := r.region
	if !bytes.Contains(region, secret) {
		t.Fatal("request bytes should be visible in shared memory while in flight")
	}
	takeRequest(t, r)
	r.EnqueueResponse(id, []byte("fine"))
	takeResponse(t, r)
	if bytes.Contains(region, secret) {
		t.Fatal("request bytes still present in shared memory after exchange completed")
	}
	if bytes.Contains(region, []byte("fine")) {
		t.Fatal("response bytes still present in shared memory after exchange completed")
	}
}

// TestBatchZeroizesDrainedResponseSlots answers a batch of requests and
// checks no response survives in shared memory once all are drained.
func TestBatchZeroizesDrainedResponseSlots(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 64})
	secrets := [][]byte{[]byte("super-secret-response-0"), []byte("super-secret-response-1")}
	for range secrets {
		if _, err := r.EnqueueRequest([]byte("q")); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range secrets {
		id, _ := takeRequest(t, r)
		if err := r.EnqueueResponse(id, s); err != nil {
			t.Fatal(err)
		}
	}
	for range secrets {
		takeResponse(t, r)
	}
	for _, s := range secrets {
		if bytes.Contains(r.region, s) {
			t.Fatalf("drained response %q still present in shared memory", s)
		}
	}
}

func TestNotifyFlagsDefaultOnAndToggle(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 64})
	// A fresh ring wants doorbells in both directions: a peer that never
	// touches the flags gets a notify for every frame.
	if !r.RequestNotifyWanted() || !r.ResponseNotifyWanted() {
		t.Fatal("fresh ring must want notifies in both directions")
	}
	r.SetRequestNotify(false)
	if r.RequestNotifyWanted() {
		t.Fatal("request notify still wanted after clear")
	}
	if !r.ResponseNotifyWanted() {
		t.Fatal("clearing request notify must not touch the response flag")
	}
	r.SetRequestNotify(true)
	r.SetResponseNotify(false)
	if !r.RequestNotifyWanted() || r.ResponseNotifyWanted() {
		t.Fatal("flags did not toggle independently")
	}
}

func TestManyExchangesWrapIndices(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 16})
	for i := 0; i < 1000; i++ {
		want := []byte(fmt.Sprintf("m%04d", i))
		id, err := r.EnqueueRequest(want)
		if err != nil {
			t.Fatal(err)
		}
		gid, p := takeRequest(t, r)
		if gid != id || !bytes.Equal(p, want) {
			t.Fatalf("i=%d: (%d,%q)", i, gid, p)
		}
		if err := r.EnqueueResponse(id, p); err != nil {
			t.Fatal(err)
		}
		rid, rp := takeResponse(t, r)
		if rid != id || !bytes.Equal(rp, want) {
			t.Fatalf("i=%d: response (%d,%q)", i, rid, rp)
		}
	}
}

// TestProducerIndicesWrapAt32Bits starts both ends just below the 32-bit
// wrap of the shared producer indices and keeps a full ring of frames in
// flight across it: the overflow checks must do their arithmetic modulo
// 2^32, like Xen's.
func TestProducerIndicesWrapAt32Bits(t *testing.T) {
	g := Geometry{NumSlots: 4, SlotSize: 16}
	r := newTestRing(t, g)
	const start = ^uint32(0) - 5
	r.reqPvt, r.rspCons, r.reqCons, r.rspPvt = start, start, start, start
	r.setReqProd(start)
	r.setRspProd(start)
	for i := 0; i < 5; i++ {
		var ids []uint64
		for j := 0; j < int(g.NumSlots); j++ {
			id, err := r.EnqueueRequest([]byte{byte(i), byte(j)})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for range ids {
			id, p := takeRequest(t, r)
			if err := r.EnqueueResponse(id, p); err != nil {
				t.Fatal(err)
			}
		}
		for _, want := range ids {
			if id, _ := takeResponse(t, r); id != want {
				t.Fatalf("round %d: response id %d, want %d", i, id, want)
			}
		}
	}
}

// TestRequestProducerOverflowRefused plays a guest that marks every slot as
// a request and then publishes request producer indices no honest frontend
// could: far more requests than the ring holds, and an index behind what
// the backend already consumed. The backend must refuse both rather than
// read that many frames.
func TestRequestProducerOverflowRefused(t *testing.T) {
	g := Geometry{NumSlots: 8, SlotSize: 64}
	r := newTestRing(t, g)
	for i := uint32(0); i < g.NumSlots; i++ {
		r.slot(i)[0] = slotRequest
	}
	r.setReqProd(100000)
	if _, _, ok, err := r.TryDequeueRequestInto(nil); !errors.Is(err, ErrBadProducer) || ok {
		t.Fatalf("reqProd 100000 on an empty 8-slot ring: ok=%v err=%v, want ErrBadProducer", ok, err)
	}
	// One past the ring is refused too; exactly a full ring is not.
	r.setReqProd(g.NumSlots + 1)
	if _, _, _, err := r.TryDequeueRequestInto(nil); !errors.Is(err, ErrBadProducer) {
		t.Fatalf("reqProd one past the ring: err = %v, want ErrBadProducer", err)
	}
	r.setReqProd(g.NumSlots)
	for i := uint32(0); i < g.NumSlots; i++ {
		if _, _, ok, err := r.TryDequeueRequestInto(nil); !ok || err != nil {
			t.Fatalf("full ring, frame %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Running the index backwards, behind the backend's own consumer, is
	// as impossible as running it ahead.
	r.setReqProd(2)
	if _, _, _, err := r.TryDequeueRequestInto(nil); !errors.Is(err, ErrBadProducer) {
		t.Fatalf("reqProd behind the consumer: err = %v, want ErrBadProducer", err)
	}
}

// TestResponseProducerOverflowRefused plays a dom0 that publishes responses
// to requests the frontend never sent: with none in flight, and one past
// the single request in flight.
func TestResponseProducerOverflowRefused(t *testing.T) {
	g := Geometry{NumSlots: 8, SlotSize: 64}
	r := newTestRing(t, g)
	for i := uint32(0); i < g.NumSlots; i++ {
		r.slot(i)[0] = slotResponse
	}
	r.setRspProd(1000)
	if _, _, ok, err := r.TryDequeueResponseInto(nil); !errors.Is(err, ErrBadProducer) || ok {
		t.Fatalf("rspProd 1000 with no request published: ok=%v err=%v, want ErrBadProducer", ok, err)
	}
	r.setRspProd(1)
	if _, _, _, err := r.TryDequeueResponseInto(nil); !errors.Is(err, ErrBadProducer) {
		t.Fatalf("one response for zero requests: err = %v, want ErrBadProducer", err)
	}
	r.setRspProd(0)
	id, err := r.EnqueueRequest([]byte("q"))
	if err != nil {
		t.Fatal(err)
	}
	takeRequest(t, r)
	if err := r.EnqueueResponse(id, []byte("a")); err != nil {
		t.Fatal(err)
	}
	r.setRspProd(2)
	if _, _, _, err := r.TryDequeueResponseInto(nil); !errors.Is(err, ErrBadProducer) {
		t.Fatalf("two responses for one request: err = %v, want ErrBadProducer", err)
	}
	r.setRspProd(1)
	if gid, p := takeResponse(t, r); gid != id || string(p) != "a" {
		t.Fatalf("honest response after the refusal = (%d, %q)", gid, p)
	}
}

// TestConcurrentFrontBack runs an echoing backend and a response consumer
// on their own goroutines, each polling its single-frame call, against a
// producer publishing as fast as the ring admits.
func TestConcurrentFrontBack(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 8, SlotSize: 32})
	const n = 500
	var wg sync.WaitGroup
	wg.Add(2)
	// Backend: echo every request.
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			id, p, ok, err := r.TryDequeueRequestInto(nil)
			if err != nil {
				t.Errorf("backend: %v", err)
				return
			}
			if !ok {
				runtime.Gosched()
				continue
			}
			if err := r.EnqueueResponse(id, p); err != nil {
				t.Errorf("backend: %v", err)
				return
			}
			i++
		}
	}()
	// Frontend consumer.
	got := make(map[uint64][]byte, n)
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			id, p, ok, err := r.TryDequeueResponseInto(nil)
			if err != nil {
				t.Errorf("frontend: %v", err)
				return
			}
			if !ok {
				runtime.Gosched()
				continue
			}
			got[id] = p
			i++
		}
	}()
	sent := make(map[uint64][]byte, n)
	for i := 0; i < n; i++ {
		msg := []byte(fmt.Sprintf("msg-%d", i))
		id, err := r.EnqueueRequest(msg)
		if err != nil {
			t.Fatal(err)
		}
		sent[id] = msg
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("got %d responses, want %d", len(got), n)
	}
	for id, p := range sent {
		if !bytes.Equal(got[id], p) {
			t.Fatalf("id %d: got %q want %q", id, got[id], p)
		}
	}
}

// TestPropertyEchoPreservesPayloads is a property-based check: any sequence of
// payloads within slot size echoes back intact and in order.
func TestPropertyEchoPreservesPayloads(t *testing.T) {
	g := Geometry{NumSlots: 8, SlotSize: 128}
	f := func(msgs [][]byte) bool {
		r, err := Init(make([]byte, g.RegionSize()), g, nil)
		if err != nil {
			return false
		}
		for _, m := range msgs {
			if len(m) > int(g.SlotSize) {
				m = m[:g.SlotSize]
			}
			id, err := r.EnqueueRequest(m)
			if err != nil {
				return false
			}
			gid, p, ok, err := r.TryDequeueRequestInto(nil)
			if err != nil || !ok || gid != id || !bytes.Equal(p, m) {
				return false
			}
			if err := r.EnqueueResponse(id, p); err != nil {
				return false
			}
			rid, rp, ok, err := r.TryDequeueResponseInto(nil)
			if err != nil || !ok || rid != id || !bytes.Equal(rp, m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAttachResolvesSameRing(t *testing.T) {
	g := Geometry{NumSlots: 4, SlotSize: 64}
	region := make([]byte, g.RegionSize())
	r, err := Init(region, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Any view sharing the first byte resolves to the same Ring.
	attached, err := Attach(region[:1])
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if attached != r {
		t.Fatal("Attach returned a different Ring")
	}
	if attached.Geometry() != g {
		t.Fatalf("geometry = %+v", attached.Geometry())
	}
	// Foreign regions are refused.
	if _, err := Attach(make([]byte, 64)); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("foreign attach err = %v", err)
	}
	if _, err := Attach(nil); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("nil attach err = %v", err)
	}
	// Closing deregisters.
	r.Close()
	if _, err := Attach(region); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("attach after close err = %v", err)
	}
}

// FuzzRingSharedRegion treats the ring's shared region — header and slots —
// as the hostile peer's to write: between single-frame enqueue and dequeue
// steps on both ends, fuzz bytes overwrite any part of it. Whatever lands
// there, no call may panic or block, every dequeue must yield an error or a
// payload that fits a slot, the frontend may never take more responses than
// it published requests, and the backend may never hold more unanswered
// requests than the ring has slots.
//
// The input is a program of one-byte opcodes (mod 4): 0 enqueues a request
// whose length is the next byte, 1 takes a request and answers it, 2 takes
// a response, 3 writes the next byte's count of bytes at the offset named
// by the two bytes after it.
func FuzzRingSharedRegion(f *testing.F) {
	g := Geometry{NumSlots: 8, SlotSize: 64}
	reqProd := func(v uint32) []byte {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		return append([]byte{3, 4, offReqProd, 0}, b[:]...)
	}
	f.Add([]byte{0, 5, 1, 2})                                            // clean exchange
	f.Add(append(reqProd(100000), 1, 1, 1))                              // request index far ahead
	f.Add([]byte{3, 4, offRspProd, 0, 0xE8, 0x03, 0, 0, 2, 2})           // responses never asked for
	f.Add([]byte{0, 3, 3, 4, headerSize + 12, 0, 0xFF, 0xFF, 0, 0, 1})   // slot length past the slot
	f.Add([]byte{0, 1, 1, 3, 1, headerSize + 4, 0, 9, 2})                // response id rewritten
	f.Add([]byte{0, 1, 0, 1, 3, 2, offNumSlots, 0, 0xFF, 0xFF, 1, 1, 2}) // geometry fields rewritten
	f.Fuzz(func(t *testing.T, prog []byte) {
		region := make([]byte, g.RegionSize())
		r, err := Init(region, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		next := func(i *int) int {
			if *i >= len(prog) {
				return 0
			}
			*i++
			return int(prog[*i-1])
		}
		var published, answeredBack int // frontend: requests out, responses in
		var taken, answered int         // backend: requests in, responses out
		payload := make([]byte, g.SlotSize)
		for i := 0; i < len(prog); {
			switch next(&i) % 4 {
			case 0:
				n := next(&i) % (int(g.SlotSize) + 1)
				if published-answeredBack >= int(g.NumSlots) {
					continue // a full ring blocks the frontend; skip
				}
				if _, err := r.EnqueueRequest(payload[:n]); err != nil {
					t.Fatalf("EnqueueRequest: %v", err)
				}
				published++
			case 1:
				id, p, ok, err := r.TryDequeueRequestInto(nil)
				if err != nil || !ok {
					continue
				}
				if len(p) > int(g.SlotSize) {
					t.Fatalf("request payload of %d bytes from %d-byte slots", len(p), g.SlotSize)
				}
				taken++
				if taken-answered > int(g.NumSlots) {
					t.Fatalf("backend holds %d unanswered requests on a %d-slot ring", taken-answered, g.NumSlots)
				}
				if r.EnqueueResponse(id, p) == nil {
					answered++
				}
			case 2:
				_, p, ok, err := r.TryDequeueResponseInto(nil)
				if err != nil || !ok {
					continue
				}
				if len(p) > int(g.SlotSize) {
					t.Fatalf("response payload of %d bytes from %d-byte slots", len(p), g.SlotSize)
				}
				answeredBack++
				if answeredBack > published {
					t.Fatalf("frontend took %d responses for %d requests", answeredBack, published)
				}
			case 3:
				n := next(&i)
				off := (next(&i) | next(&i)<<8) % len(region)
				for ; n > 0 && i < len(prog); n-- {
					region[off] = byte(next(&i))
					off = (off + 1) % len(region)
				}
			}
		}
	})
}

func BenchmarkRingRoundTrip(b *testing.B) {
	g := Geometry{NumSlots: 8, SlotSize: 4096}
	r, err := Init(make([]byte, g.RegionSize()), g, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	var req, rsp []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := r.EnqueueRequest(payload)
		if err != nil {
			b.Fatal(err)
		}
		_, req, _, err = r.TryDequeueRequestInto(req[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := r.EnqueueResponse(id, req); err != nil {
			b.Fatal(err)
		}
		if _, rsp, _, err = r.TryDequeueResponseInto(rsp[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
