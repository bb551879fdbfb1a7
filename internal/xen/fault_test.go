package xen

import (
	"errors"
	"testing"
	"time"
)

func TestWaitTimeoutExpiresWithoutConsuming(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	ec := h.EventChannels()
	gPort := ec.AllocUnbound(g.ID(), Dom0)
	d0Port, err := ec.BindInterdomain(Dom0, g.ID(), gPort)
	if err != nil {
		t.Fatal(err)
	}
	if err := ec.WaitTimeout(g.ID(), gPort, time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("wait err = %v, want ErrWaitTimeout", err)
	}
	// A pending event still satisfies a later timed wait in full.
	if err := ec.Notify(Dom0, d0Port); err != nil {
		t.Fatal(err)
	}
	if err := ec.WaitTimeout(g.ID(), gPort, time.Second); err != nil {
		t.Fatalf("wait after notify: %v", err)
	}
	n, err := ec.Pending(g.ID(), gPort)
	if err != nil || n != 0 {
		t.Fatalf("pending = %d, %v, want 0", n, err)
	}
}

func TestWaitTimeoutWokenByNotify(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	ec := h.EventChannels()
	gPort := ec.AllocUnbound(g.ID(), Dom0)
	d0Port, err := ec.BindInterdomain(Dom0, g.ID(), gPort)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ec.WaitTimeout(g.ID(), gPort, 30*time.Second) }()
	if err := ec.Notify(Dom0, d0Port); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("wait err = %v", err)
	}
}

func TestWaitTimeoutSeesClose(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	ec := h.EventChannels()
	gPort := ec.AllocUnbound(g.ID(), Dom0)
	if _, err := ec.BindInterdomain(Dom0, g.ID(), gPort); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ec.WaitTimeout(g.ID(), gPort, 30*time.Second) }()
	if err := ec.Close(g.ID(), gPort); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("wait err = %v, want ErrChannelClosed", err)
	}
}

func TestNotifyFaultDropsEvents(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	ec := h.EventChannels()
	gPort := ec.AllocUnbound(g.ID(), Dom0)
	d0Port, err := ec.BindInterdomain(Dom0, g.ID(), gPort)
	if err != nil {
		t.Fatal(err)
	}
	drop := true
	ec.SetNotifyFault(func(DomID, EvtchnPort) bool { return drop })
	// Dropped: Notify reports success (the sender cannot tell) but nothing
	// becomes pending on the peer.
	if err := ec.Notify(Dom0, d0Port); err != nil {
		t.Fatalf("dropped notify err = %v", err)
	}
	if n, _ := ec.Pending(g.ID(), gPort); n != 0 {
		t.Fatalf("pending after dropped notify = %d, want 0", n)
	}
	if got := ec.DroppedNotifies(); got != 1 {
		t.Fatalf("DroppedNotifies = %d, want 1", got)
	}
	// Delivery resumes once the hook stops dropping.
	drop = false
	if err := ec.Notify(Dom0, d0Port); err != nil {
		t.Fatal(err)
	}
	if n, _ := ec.Pending(g.ID(), gPort); n != 1 {
		t.Fatalf("pending after clean notify = %d, want 1", n)
	}
	ec.SetNotifyFault(nil)
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

// TestDroppedAndSuppressedDoorbellStillDrains models the batched-driver worst
// case: the producer coalesces its doorbell away (NoteSuppressed, no Notify)
// AND the one notify it does send is dropped by the fault hook. A consumer
// blocked in WaitTimeout must still come back via the timeout so it can
// re-check shared state — no event may be required for forward progress.
func TestDroppedAndSuppressedDoorbellStillDrains(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	ec := h.EventChannels()
	gPort := ec.AllocUnbound(g.ID(), Dom0)
	d0Port, err := ec.BindInterdomain(Dom0, g.ID(), gPort)
	if err != nil {
		t.Fatal(err)
	}
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
	// Consumer: no event will ever arrive; the wait must return ErrWaitTimeout
	// within the polling interval, not hang.
	done := make(chan error, 1)
	go func() { done <- ec.WaitTimeout(g.ID(), gPort, 5*time.Millisecond) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrWaitTimeout) {
			t.Fatalf("wait err = %v, want ErrWaitTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitTimeout hung with all doorbells lost")
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
		// Arm the port's reusable timer, as a polling driver does.
		if err := ec.WaitTimeout(g.ID(), gPort, time.Microsecond); !errors.Is(err, ErrWaitTimeout) {
			t.Fatalf("wait err = %v, want ErrWaitTimeout", err)
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
