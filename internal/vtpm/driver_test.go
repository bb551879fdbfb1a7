package vtpm

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
	"xvtpm/internal/xenstore"
)

// connectDevice wires one guest end to end and returns its parts.
func connectDevice(t *testing.T, guard Guard) (*xen.Hypervisor, *Manager, *Backend, *xen.Domain, *Frontend, *tpm.Client) {
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
	fe := NewFrontend(hv, xs, dom, PlainCodec{})
	if err := fe.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := be.AttachDevice(dom.ID()); err != nil {
		t.Fatal(err)
	}
	if err := fe.WaitConnected(); err != nil {
		t.Fatal(err)
	}
	return hv, mgr, be, dom, fe, tpm.NewClient(fe, nil)
}

func TestDetachWhileFrontendActive(t *testing.T) {
	_, _, be, dom, fe, cli := connectDevice(t, &passGuard{})
	if err := cli.SelfTestFull(); err != nil {
		t.Fatal(err)
	}
	// Detach concurrently with a stream of commands: the frontend must get
	// errors, never hang, never panic.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := cli.GetRandom(8); err != nil {
				return // expected once detach lands
			}
		}
	}()
	if err := be.DetachDevice(dom.ID()); err != nil {
		t.Fatalf("DetachDevice: %v", err)
	}
	wg.Wait()
	if _, err := cli.GetRandom(8); err == nil {
		t.Fatal("detached device answered")
	}
	_ = fe
}

func TestFrontendCloseStopsBackendLoop(t *testing.T) {
	_, _, be, dom, fe, cli := connectDevice(t, &passGuard{})
	if err := cli.SelfTestFull(); err != nil {
		t.Fatal(err)
	}
	fe.Close()
	// Backend's serve loop exits (ring closed); detach completes cleanly.
	if err := be.DetachDevice(dom.ID()); err != nil {
		t.Fatalf("DetachDevice after frontend close: %v", err)
	}
}

func TestDoubleAttachRejected(t *testing.T) {
	hv, xs, mgr, be := newTestRig(t, &passGuard{})
	dom := mkGuestDom(t, hv, xs, "g")
	id, _ := mgr.CreateInstance()
	mgr.BindInstance(id, dom)
	fe := NewFrontend(hv, xs, dom, PlainCodec{})
	if err := fe.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := be.AttachDevice(dom.ID()); err != nil {
		t.Fatal(err)
	}
	// A second attach re-reads the handshake but cannot bind the already-
	// bound event channel.
	if err := be.AttachDevice(dom.ID()); err == nil {
		t.Fatal("double attach accepted")
	}
}

func TestAttachRejectsCorruptHandshake(t *testing.T) {
	hv, xs, mgr, be := newTestRig(t, &passGuard{})
	dom := mkGuestDom(t, hv, xs, "g")
	id, _ := mgr.CreateInstance()
	mgr.BindInstance(id, dom)
	dir := frontPath(dom.ID())
	// State says Initialised but the keys are garbage.
	xs.Write(dom.ID(), xenstore.NoTxn, dir+"/state", []byte(strconv.Itoa(XenbusInitialised)))
	xs.Write(dom.ID(), xenstore.NoTxn, dir+"/ring-ref-count", []byte(strconv.Itoa(deviceRingPages)))
	for i := 0; i < deviceRingPages; i++ {
		xs.Write(dom.ID(), xenstore.NoTxn, fmt.Sprintf("%s/ring-ref-%d", dir, i), []byte(strconv.Itoa(999+i)))
	}
	xs.Write(dom.ID(), xenstore.NoTxn, dir+"/event-channel", []byte("77"))
	if err := be.AttachDevice(dom.ID()); !errors.Is(err, ErrHandshake) {
		t.Fatalf("err = %v, want ErrHandshake", err)
	}
	// Non-numeric values are also refused, and so is any count other than
	// the ring's page count — without sizing an allocation from the
	// guest's claim.
	for _, count := range []string{
		"lots", "18446744073709551615", "4611686018427387904", "100000000",
		"0", strconv.Itoa(deviceRingPages + 1),
	} {
		xs.Write(dom.ID(), xenstore.NoTxn, dir+"/ring-ref-count", []byte(count))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := be.AttachDevice(dom.ID())
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrHandshake) {
			t.Fatalf("ring-ref-count %s: err = %v, want ErrHandshake", count, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("ring-ref-count %s: refusal allocated %d bytes", count, d)
		}
	}
}

func TestAttachRequiresInitialisedState(t *testing.T) {
	hv, xs, mgr, be := newTestRig(t, &passGuard{})
	dom := mkGuestDom(t, hv, xs, "g")
	id, _ := mgr.CreateInstance()
	mgr.BindInstance(id, dom)
	// No frontend setup at all.
	if err := be.AttachDevice(dom.ID()); !errors.Is(err, ErrHandshake) {
		t.Fatalf("err = %v", err)
	}
}

func TestGuestDestroyedWhileConnected(t *testing.T) {
	hv, _, be, dom, _, cli := connectDevice(t, &passGuard{})
	if err := cli.SelfTestFull(); err != nil {
		t.Fatal(err)
	}
	// The hypervisor tears the domain down (crash): event channels close,
	// the backend loop exits, and detach still cleans up without hanging.
	if err := hv.DestroyDomain(xen.Dom0, dom.ID()); err != nil {
		t.Fatal(err)
	}
	if err := be.DetachDevice(dom.ID()); err != nil {
		t.Fatalf("DetachDevice after domain destroy: %v", err)
	}
	if _, err := cli.GetRandom(4); err == nil {
		t.Fatal("TPM of a destroyed domain answered")
	}
}

func TestConcurrentTransmitSerialized(t *testing.T) {
	_, _, _, _, _, cli := connectDevice(t, &passGuard{})
	// The frontend serializes commands; concurrent users must all succeed.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := cli.GetRandom(8); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWatchAndServeAutoAttaches(t *testing.T) {
	hv, xs, mgr, be := newTestRig(t, &passGuard{})
	stop := make(chan struct{})
	defer close(stop)
	watchErr := make(chan error, 1)
	go func() { watchErr <- be.WatchAndServe(stop, nil) }()

	// Bring up two guests AFTER the watcher started: each frontend setup
	// must be picked up without an explicit AttachDevice call.
	for i, name := range []string{"auto-a", "auto-b"} {
		dom := mkGuestDom(t, hv, xs, name)
		id, err := mgr.CreateInstance()
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.BindInstance(id, dom); err != nil {
			t.Fatal(err)
		}
		fe := NewFrontend(hv, xs, dom, PlainCodec{})
		if err := fe.Setup(); err != nil {
			t.Fatal(err)
		}
		if err := fe.WaitConnected(); err != nil {
			t.Fatalf("guest %d not auto-attached: %v", i, err)
		}
		cli := tpm.NewClient(fe, nil)
		if _, err := cli.GetRandom(8); err != nil {
			t.Fatalf("guest %d traffic: %v", i, err)
		}
	}
	select {
	case err := <-watchErr:
		t.Fatalf("watcher exited early: %v", err)
	default:
	}
}

func TestSetupFailsWhenGuestOutOfMemory(t *testing.T) {
	hv, xs, mgr, _ := newTestRig(t, &passGuard{})
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: "tiny", Kernel: []byte("k"), Pages: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := "/local/domain/" + itoa(dom.ID())
	xs.Write(xen.Dom0, xenstore.NoTxn, base+"/name", []byte("tiny"))
	xs.SetPerms(xen.Dom0, xenstore.NoTxn, base, xenstore.Perms{Owner: dom.ID()})
	id, _ := mgr.CreateInstance()
	mgr.BindInstance(id, dom)
	fe := NewFrontend(hv, xs, dom, PlainCodec{})
	if err := fe.Setup(); !errors.Is(err, ErrHandshake) {
		t.Fatalf("err = %v, want ErrHandshake (ring larger than guest memory)", err)
	}
}

// TestLockstepLeavesNoStaleEvents runs a long lockstep stream and checks the
// frontend's response-notify flag is kept cleared while it is awake: the
// backend then rings only for responses the frontend sleeps on, and each such
// event is consumed by the wait it wakes, so events cannot pile up unread on
// the frontend's port.
func TestLockstepLeavesNoStaleEvents(t *testing.T) {
	hv, _, _, dom, fe, cli := connectDevice(t, &passGuard{})
	for i := 0; i < 2000; i++ {
		if _, err := cli.GetRandom(8); err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
	}
	n, err := hv.EventChannels().Pending(dom.ID(), fe.port)
	if err != nil {
		t.Fatal(err)
	}
	if n > 1 {
		t.Fatalf("frontend port holds %d unconsumed events after 2000 commands, want <= 1", n)
	}
}
