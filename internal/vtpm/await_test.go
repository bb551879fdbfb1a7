package vtpm

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xvtpm/internal/xen"
)

// awaitRig is one bound event channel whose guest end a test consumer waits
// on in awaitRing, with a scripted poll and notify flag recording what the
// helper does to them: 'p' per poll, '+' per raise, '-' per clear.
type awaitRig struct {
	ec          *xen.EventChannels
	guest       xen.DomID
	port, dPort xen.EvtchnPort

	mu     sync.Mutex
	trace  strings.Builder
	flagOn bool
}

func newAwaitRig(t *testing.T) *awaitRig {
	t.Helper()
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 64})
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: "g", Kernel: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	ec := hv.EventChannels()
	port := ec.AllocUnbound(dom.ID(), xen.Dom0)
	dPort, err := ec.BindInterdomain(xen.Dom0, dom.ID(), port)
	if err != nil {
		t.Fatal(err)
	}
	return &awaitRig{ec: ec, guest: dom.ID(), port: port, dPort: dPort}
}

// flag reads the notify flag, as a producer deciding on its doorbell does.
func (r *awaitRig) flag() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flagOn
}

func (r *awaitRig) setNotify(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flagOn = on
	if on {
		r.trace.WriteByte('+')
	} else {
		r.trace.WriteByte('-')
	}
}

// await runs awaitRing with a poll that reports a frame once ready says
// so, calling onPoll (if non-nil) with each poll's number and the flag it
// saw. It fails the test if awaitRing has not returned within 10 s — a
// consumer that slept through its doorbell would never return.
func (r *awaitRig) await(t *testing.T, ready func(n int) bool, onPoll func(n int, flag bool)) string {
	t.Helper()
	n := 0
	done := make(chan error, 1)
	go func() {
		done <- awaitRing(r.ec, r.guest, r.port, r.setNotify, func() (bool, error) {
			r.mu.Lock()
			n++
			r.trace.WriteByte('p')
			flag, polls := r.flagOn, n
			r.mu.Unlock()
			if onPoll != nil {
				onPoll(polls, flag)
			}
			return ready(polls), nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("awaitRing still asleep 10s after the frame was published")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flagOn {
		t.Fatal("notify flag left raised on return")
	}
	return r.trace.String()
}

// TestAwaitRingBlocksAtOnceWhenDoorbellsAreFree checks the one wait shape:
// a poll, raise, the final-check poll, then a sleep on the event channel
// with no re-polling until the doorbell, clear — and the flag is raised
// only across the final check and the sleep.
func TestAwaitRingBlocksAtOnceWhenDoorbellsAreFree(t *testing.T) {
	r := newAwaitRig(t)
	const hold = 20 * time.Millisecond
	var published atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	got := r.await(t, func(int) bool { return published.Load() }, func(n int, _ bool) {
		if n != 2 {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(hold)
			published.Store(true)
			if err := r.ec.Notify(xen.Dom0, r.dPort); err != nil {
				t.Error(err)
			}
		}()
	})
	wg.Wait()
	// One sleep, no timer: a consumer that re-polled while waiting would
	// show more polls than the three here.
	if want := "p+p-p"; got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
	if el := time.Since(start); el < hold {
		t.Fatalf("returned after %v, before the doorbell rang at %v", el, hold)
	}
	// A frame found by the final check returns without sleeping.
	r = newAwaitRig(t)
	if got, want := r.await(t, func(n int) bool { return n >= 2 }, nil), "p+p-"; got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}

// TestAwaitRingWokenByFrameInTheGap publishes a frame just after the
// consumer's final check, as a producer racing the consumer's sleep does:
// the producer sees the raised flag and rings, so the consumer wakes on the
// event. A consumer that missed it would sleep forever; await fails the
// test on a deadline instead.
func TestAwaitRingWokenByFrameInTheGap(t *testing.T) {
	for attempt := 0; attempt < 5; attempt++ {
		r := newAwaitRig(t)
		var published atomic.Bool
		var wg sync.WaitGroup
		got := r.await(t, func(int) bool { return published.Load() }, func(n int, flag bool) {
			if n != 2 {
				return
			}
			if !flag {
				t.Error("final check ran with the notify flag lowered")
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				published.Store(true)
				if r.flag() {
					if err := r.ec.Notify(xen.Dom0, r.dPort); err != nil {
						t.Error(err)
					}
				}
			}()
		})
		wg.Wait()
		if want := "p+p-p"; got != want && got != "p+p-" {
			t.Fatalf("trace = %q, want %q", got, want)
		}
	}
}
