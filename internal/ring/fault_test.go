package ring

import (
	"bytes"
	"testing"
)

func TestDequeueFaultTruncatesRequest(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 256})
	r.SetDequeueFault(func(p []byte) []byte { return p[:len(p)/2] })
	want := []byte("0123456789abcdef")
	if _, err := r.EnqueueRequest(want); err != nil {
		t.Fatal(err)
	}
	_, payload := takeRequest(t, r)
	if !bytes.Equal(payload, want[:len(want)/2]) {
		t.Fatalf("payload = %q, want truncated %q", payload, want[:len(want)/2])
	}
	if got := r.FaultedFrames(); got != 1 {
		t.Fatalf("FaultedFrames = %d, want 1", got)
	}
	// The shared slot still holds the full request; only the dequeued view
	// was torn, so the response path is unaffected.
	r.SetDequeueFault(nil)
}

func TestDequeueFaultTruncatesResponse(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 256})
	id, err := r.EnqueueRequest([]byte("req"))
	if err != nil {
		t.Fatal(err)
	}
	takeRequest(t, r)
	if err := r.EnqueueResponse(id, []byte("full response")); err != nil {
		t.Fatal(err)
	}
	r.SetDequeueFault(func(p []byte) []byte { return p[:4] })
	_, payload := takeResponse(t, r)
	if string(payload) != "full" {
		t.Fatalf("payload = %q, want %q", payload, "full")
	}
	if got := r.FaultedFrames(); got != 1 {
		t.Fatalf("FaultedFrames = %d, want 1", got)
	}
}

func TestDequeueFaultPassThroughNotCounted(t *testing.T) {
	r := newTestRing(t, Geometry{NumSlots: 4, SlotSize: 256})
	r.SetDequeueFault(func(p []byte) []byte { return p })
	if _, err := r.EnqueueRequest([]byte("intact")); err != nil {
		t.Fatal(err)
	}
	_, payload := takeRequest(t, r)
	if string(payload) != "intact" {
		t.Fatalf("payload = %q", payload)
	}
	if got := r.FaultedFrames(); got != 0 {
		t.Fatalf("FaultedFrames = %d, want 0", got)
	}
}
