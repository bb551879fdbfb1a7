package vtpm

import "xvtpm/internal/metrics"

// TransportMetrics instruments the guest transport path: end-to-end guest
// round-trip latency (recorded by frontends) and the request frames per
// backend drain (recorded by backends). One instance serves a whole host;
// both histograms are atomic and zero-alloc to record.
type TransportMetrics struct {
	// GuestRTT is the guest-observed command round trip: encode, ring,
	// dispatch, ring back, decode.
	GuestRTT *metrics.Histogram
	// RingBatch distributes the number of request frames each backend drain
	// pulled off the ring (recorded as a Duration whose integer value is the
	// frame count). The ring moves one frame per call, so every drain
	// records 1.
	RingBatch *metrics.Histogram
}

// ringBatchBounds bucket frames per drain 1..N for the 8-slot device ring,
// with headroom for larger geometries.
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
		"Request frames per backend ring drain (one frame per drain).", t.RingBatch)
}
