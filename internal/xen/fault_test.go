package xen

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// newBoundPair binds one guest↔dom0 channel and returns the guest's port and
// dom0's.
func newBoundPair(t *testing.T, h *Hypervisor, g *Domain) (EvtchnPort, EvtchnPort) {
	t.Helper()
	ec := h.EventChannels()
	gPort := ec.AllocUnbound(g.ID(), Dom0)
	d0Port, err := ec.BindInterdomain(Dom0, g.ID(), gPort)
	if err != nil {
		t.Fatal(err)
	}
	return gPort, d0Port
}

// TestNotifyFaultDropsEvents checks the lost-notification fault: the sender
// cannot tell, the event is dropped from immediate delivery — nothing is
// pending on the peer at once — and lands notifyFaultDelay later, waking a
// peer blocked in Wait.
func TestNotifyFaultDropsEvents(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	ec := h.EventChannels()
	gPort, d0Port := newBoundPair(t, h, g)
	var delay atomic.Bool
	delay.Store(true)
	ec.SetNotifyFault(func(DomID, EvtchnPort) bool { return delay.Load() })
	defer ec.SetNotifyFault(nil)
	start := time.Now()
	if err := ec.Notify(Dom0, d0Port); err != nil {
		t.Fatalf("delayed notify err = %v", err)
	}
	if n, _ := ec.Pending(g.ID(), gPort); n != 0 && time.Since(start) < notifyFaultDelay {
		t.Fatalf("pending right after a delayed notify = %d, want 0", n)
	}
	if got := ec.DroppedNotifies(); got != 1 {
		t.Fatalf("DroppedNotifies = %d, want 1", got)
	}
	if err := ec.Wait(g.ID(), gPort); err != nil {
		t.Fatalf("wait for the delayed event: %v", err)
	}
	if el := time.Since(start); el < notifyFaultDelay {
		t.Fatalf("delayed event landed after %v, before the %v delay", el, notifyFaultDelay)
	}
	// A second delayed event is pending only once the delay has passed.
	if err := ec.Notify(Dom0, d0Port); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * notifyFaultDelay)
	if n, _ := ec.Pending(g.ID(), gPort); n != 1 {
		t.Fatalf("pending after the delay = %d, want 1", n)
	}
	// Delivery is immediate again once the hook stops delaying.
	delay.Store(false)
	if err := ec.Notify(Dom0, d0Port); err != nil {
		t.Fatal(err)
	}
	if n, _ := ec.Pending(g.ID(), gPort); n != 2 {
		t.Fatalf("pending after clean notify = %d, want 2", n)
	}
}

// TestNotifyFaultEventSkipsClosedPort closes a channel while one of its
// events is held back: the late event lands nowhere and harms nothing.
func TestNotifyFaultEventSkipsClosedPort(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	ec := h.EventChannels()
	gPort, d0Port := newBoundPair(t, h, g)
	ec.SetNotifyFault(func(DomID, EvtchnPort) bool { return true })
	defer ec.SetNotifyFault(nil)
	if err := ec.Notify(Dom0, d0Port); err != nil {
		t.Fatal(err)
	}
	if err := ec.Close(g.ID(), gPort); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * notifyFaultDelay)
	if _, err := ec.Pending(g.ID(), gPort); !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("pending on the closed port err = %v, want ErrChannelClosed", err)
	}
}

func TestSuppressedNotifyStats(t *testing.T) {
	h := newHost(t)
	ec := h.EventChannels()
	if got := ec.SuppressedNotifies(); got != 0 {
		t.Fatalf("fresh suppressed count = %d", got)
	}
	for i := 0; i < 3; i++ {
		ec.NoteSuppressed()
	}
	if got := ec.SuppressedNotifies(); got != 3 {
		t.Fatalf("suppressed = %d, want 3", got)
	}
}

// TestDroppedAndSuppressedDoorbellStillDrains models the driver worst case:
// the producer coalesces one doorbell away (NoteSuppressed, no Notify) AND
// the one notify it does send is caught by the fault hook. A consumer
// blocked in Wait must still come back, on the late event, so it can
// re-check shared state — a lost doorbell costs a stall, never a deadlock.
func TestDroppedAndSuppressedDoorbellStillDrains(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	ec := h.EventChannels()
	gPort, d0Port := newBoundPair(t, h, g)
	ec.SetNotifyFault(func(DomID, EvtchnPort) bool { return true })
	defer ec.SetNotifyFault(nil)

	// Producer: skips one doorbell entirely, sends one that gets dropped.
	ec.NoteSuppressed()
	if err := ec.Notify(Dom0, d0Port); err != nil {
		t.Fatal(err)
	}
	if ec.DroppedNotifies() == 0 {
		t.Fatal("notify was not dropped")
	}
	// Consumer: the one event arrives late; the wait must return on it,
	// not hang.
	done := make(chan error, 1)
	go func() { done <- ec.Wait(g.ID(), gPort) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wait err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung with every doorbell lost or suppressed")
	}
	if ec.SuppressedNotifies() != 1 {
		t.Fatalf("suppressed = %d, want 1", ec.SuppressedNotifies())
	}
}

// TestClosedPortsAreFreed churns channels the way guest create/destroy does
// and checks the port table does not keep the departed endpoints: closing
// either end frees the pair, domain destruction frees whatever the domain
// still had open, and a closed port answers later calls as both bad and
// closed.
func TestClosedPortsAreFreed(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	ec := h.EventChannels()
	base := len(ec.ports)
	for i := 0; i < 1000; i++ {
		gPort := ec.AllocUnbound(g.ID(), Dom0)
		d0Port, err := ec.BindInterdomain(Dom0, g.ID(), gPort)
		if err != nil {
			t.Fatal(err)
		}
		closer, port := g.ID(), gPort
		if i%2 == 1 {
			closer, port = Dom0, d0Port
		}
		if err := ec.Close(closer, port); err != nil {
			t.Fatal(err)
		}
		if err := ec.Notify(Dom0, d0Port); !errors.Is(err, ErrBadPort) || !errors.Is(err, ErrChannelClosed) {
			t.Fatalf("notify on closed port err = %v, want ErrBadPort and ErrChannelClosed", err)
		}
	}
	if got := len(ec.ports); got != base {
		t.Fatalf("port table holds %d endpoints after close churn, want %d", got, base)
	}
	// Ports still open when the domain dies are freed with it.
	ec.AllocUnbound(g.ID(), Dom0)
	gPort := ec.AllocUnbound(g.ID(), Dom0)
	if _, err := ec.BindInterdomain(Dom0, g.ID(), gPort); err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyDomain(Dom0, g.ID()); err != nil {
		t.Fatal(err)
	}
	if got := len(ec.ports); got != base {
		t.Fatalf("port table holds %d endpoints after destroy, want %d", got, base)
	}
	if err := ec.Close(g.ID(), gPort); !errors.Is(err, ErrBadPort) {
		t.Fatalf("close of freed port err = %v, want ErrBadPort", err)
	}
	if _, err := ec.Pending(g.ID(), EvtchnPort(1<<30)); !errors.Is(err, ErrBadPort) || errors.Is(err, ErrChannelClosed) {
		t.Fatalf("never-allocated port err = %v, want ErrBadPort only", err)
	}
}
