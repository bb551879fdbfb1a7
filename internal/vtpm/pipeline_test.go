package vtpm

import (
	"fmt"
	"sync"
	"sync/atomic"
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

// holdGuard is passGuard with a gate on one admission: once armed, the
// next admission signals holding and waits inside the backend's dispatch
// until the event channels have counted a suppressed doorbell, or gives up
// at a deadline.
type holdGuard struct {
	passGuard
	ec       *xen.EventChannels
	armed    atomic.Bool
	holding  chan struct{}
	timedOut atomic.Bool
}

func (g *holdGuard) AdmitCommand(inst InstanceInfo, from xen.DomID, launch xen.LaunchDigest, payload []byte) ([]byte, ResponseFinisher, error) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.holding)
		deadline := time.Now().Add(10 * time.Second)
		for g.ec.SuppressedNotifies() == 0 {
			if time.Now().After(deadline) {
				g.timedOut.Store(true)
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return g.passGuard.AdmitCommand(inst, from, launch, payload)
}

// TestPipelinedTrafficSuppressesDoorbells checks that overlapping traffic
// coalesces doorbells. One submitter's first command is held inside the
// backend's dispatch; only then do seven more submitters start. While the
// backend is inside a dispatch it is awake with its request-notify flag
// cleared, so their enqueues must skip their doorbells — the overlap is
// certain, not left to timing.
func TestPipelinedTrafficSuppressesDoorbells(t *testing.T) {
	guard := &holdGuard{holding: make(chan struct{})}
	hv, _, _, _, cli := connectPipelined(t, guard, FrontendConfig{PipelineDepth: 8})
	if err := cli.SelfTestFull(); err != nil {
		t.Fatal(err)
	}
	ec := hv.EventChannels()
	guard.ec = ec
	guard.armed.Store(true)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := cli.GetRandom(8); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	submit()
	select {
	case <-guard.holding:
	case <-time.After(10 * time.Second):
		t.Fatal("first command never reached admission")
	}
	for i := 1; i < 8; i++ {
		submit()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if guard.timedOut.Load() {
		t.Fatal("no doorbell suppressed while the backend was held inside a dispatch")
	}
	if ec.SuppressedNotifies() == 0 {
		t.Fatal("suppressed-notify counter never moved")
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
