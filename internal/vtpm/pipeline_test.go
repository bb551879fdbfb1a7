package vtpm

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"xvtpm/internal/metrics"
	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
)

// connectPipelined is connectDevice with an explicit frontend configuration.
func connectPipelined(t *testing.T, guard Guard, cfg FrontendConfig) (*xen.Hypervisor, *Backend, *xen.Domain, *Frontend, *tpm.Client) {
	t.Helper()
	hv, xs, mgr, be := newTestRig(t, guard)
	dom := mkGuestDom(t, hv, xs, "g")
	id, err := mgr.CreateInstance()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.BindInstance(id, dom); err != nil {
		t.Fatal(err)
	}
	fe := NewFrontendCfg(hv, xs, dom, PlainCodec{}, cfg)
	if err := fe.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := be.AttachDevice(dom.ID()); err != nil {
		t.Fatal(err)
	}
	if err := fe.WaitConnected(); err != nil {
		t.Fatal(err)
	}
	return hv, be, dom, fe, tpm.NewClient(fe, nil)
}

func TestPipelinedConcurrentTransmit(t *testing.T) {
	tm := NewTransportMetrics()
	_, _, _, fe, cli := connectPipelined(t, &passGuard{},
		FrontendConfig{PipelineDepth: 8, Metrics: tm})
	if err := cli.SelfTestFull(); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				if _, err := cli.GetRandom(16); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := fe.StaleResponses(); got != 0 {
		t.Fatalf("stale responses = %d, want 0", got)
	}
	// Every command round trip must have been timed.
	if s := tm.GuestRTT.Summarize(); s.Count < uint64(workers*perWorker) {
		t.Fatalf("GuestRTT count = %d, want >= %d", s.Count, workers*perWorker)
	}
}

func TestPipelineDepthClampedToRingSlots(t *testing.T) {
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 64})
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: "g", Kernel: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	fe := NewFrontendCfg(hv, nil, dom, PlainCodec{}, FrontendConfig{PipelineDepth: 1024})
	if got, want := fe.cfg.PipelineDepth, int(deviceRingGeometry.NumSlots); got != want {
		t.Fatalf("depth = %d, want clamp to %d", got, want)
	}
	if fe.pipe == nil || len(fe.pipe.slots) != int(deviceRingGeometry.NumSlots) {
		t.Fatal("pending table not sized to the clamped depth")
	}
}

func TestPipelineDepthOneStaysLockstep(t *testing.T) {
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 64})
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: "g", Kernel: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{0, 1} {
		fe := NewFrontendCfg(hv, nil, dom, PlainCodec{}, FrontendConfig{PipelineDepth: depth})
		if fe.pipe != nil {
			t.Fatalf("depth %d built a pending table; want lockstep", depth)
		}
	}
}

// TestPipelineSurvivesDroppedNotifies drops every event-channel notification
// in both directions, for a lockstep and a pipelined frontend: doorbells are
// gone entirely, so the only thing keeping the device alive is the
// WaitTimeout re-poll in awaitRing. Traffic must still complete.
func TestPipelineSurvivesDroppedNotifies(t *testing.T) {
	for _, depth := range []int{0, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			hv, _, _, _, cli := connectPipelined(t, &passGuard{}, FrontendConfig{PipelineDepth: depth})
			if err := cli.SelfTestFull(); err != nil {
				t.Fatal(err)
			}
			ec := hv.EventChannels()
			ec.SetNotifyFault(func(xen.DomID, xen.EvtchnPort) bool { return true })
			defer ec.SetNotifyFault(nil)
			// Let the device go fully idle between commands: an idle
			// backend sleeps with its doorbell flag raised, so each command
			// sends a real notify — which the hook swallows — and completes
			// only because WaitTimeout re-polls the ring.
			for i := 0; i < 5; i++ {
				time.Sleep(5 * driverWaitPoll)
				if _, err := cli.GetRandom(8); err != nil {
					t.Fatalf("command %d: %v", i, err)
				}
			}
			if ec.DroppedNotifies() == 0 {
				t.Fatal("fault hook never fired; test exercised nothing")
			}
		})
	}
}

// TestPipelinedTrafficSuppressesDoorbells runs enough overlapping traffic
// that the RING_FINAL_CHECK handshake coalesces at least some doorbells, and
// checks the suppressed-notify counter moved. Lockstep single-command
// round trips would make this flaky; sustained 8-deep traffic makes a
// drain-phase overlap all but certain.
func TestPipelinedTrafficSuppressesDoorbells(t *testing.T) {
	hv, _, _, _, cli := connectPipelined(t, &passGuard{}, FrontendConfig{PipelineDepth: 8})
	if err := cli.SelfTestFull(); err != nil {
		t.Fatal(err)
	}
	ec := hv.EventChannels()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := cli.GetRandom(8); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if ec.SuppressedNotifies() == 0 {
		t.Skip("no doorbell overlap this run (timing); counter plumbing is covered in xen tests")
	}
}

func TestPipelineStaleResponseCounted(t *testing.T) {
	p := newPipeline(4)
	p.slots[0].used = true
	p.slots[0].id = 7
	// Tag 9 matches nothing in flight; tag 7 deposits.
	p.mu.Lock()
	p.depositLocked(9, []byte("stale"))
	p.depositLocked(7, []byte("good"))
	// A duplicate for an already-completed slot is stale too.
	p.depositLocked(7, []byte("dup"))
	p.mu.Unlock()
	if p.stale != 2 {
		t.Fatalf("stale = %d, want 2", p.stale)
	}
	if !p.slots[0].done || string(p.slots[0].rsp) != "good" {
		t.Fatalf("slot state = %+v", p.slots[0])
	}
}

func TestTransportMetricsRegister(t *testing.T) {
	tm := NewTransportMetrics()
	reg := metrics.NewRegistry()
	if err := tm.Register(reg); err != nil {
		t.Fatal(err)
	}
	if err := tm.Register(metrics.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	tm.GuestRTT.Record(1000)
	tm.RingBatch.Record(3)
	if s := tm.RingBatch.Summarize(); s.Count != 1 {
		t.Fatalf("ring batch count = %d", s.Count)
	}
}
