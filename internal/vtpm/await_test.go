package vtpm

import (
	"strings"
	"sync"
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

	mu    sync.Mutex
	trace strings.Builder
	flag  bool
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

func (r *awaitRig) setNotify(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flag = on
	if on {
		r.trace.WriteByte('+')
	} else {
		r.trace.WriteByte('-')
	}
}

// await runs awaitRing with a poll that reports a frame on poll number
// ready (1-based), calling onPoll (if non-nil) with each poll's number and
// the flag it saw.
func (r *awaitRig) await(t *testing.T, ready int, onPoll func(n int, flag bool)) string {
	t.Helper()
	n := 0
	err := awaitRing(r.ec, r.guest, r.port, r.setNotify, func() (bool, error) {
		r.mu.Lock()
		n++
		r.trace.WriteByte('p')
		flag := r.flag
		r.mu.Unlock()
		if onPoll != nil {
			onPoll(n, flag)
		}
		return n >= ready, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flag {
		t.Fatal("notify flag left raised on return")
	}
	return r.trace.String()
}

// TestAwaitRingBlocksAtOnceWhenDoorbellsAreFree checks the zero-latency
// shape: one poll, raise, the final-check poll, sleep, clear — no yielding
// re-polls — and the flag is raised only across the final check and the
// sleep.
func TestAwaitRingBlocksAtOnceWhenDoorbellsAreFree(t *testing.T) {
	r := newAwaitRig(t)
	start := time.Now()
	if got, want := r.await(t, 3, nil), "p+p-p"; got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
	// Nobody rang, so the one sleep lasted the whole poll interval.
	if el := time.Since(start); el < driverWaitPoll {
		t.Fatalf("returned after %v, before the %v wait could expire", el, driverWaitPoll)
	}
	// A frame found by the final check returns without sleeping.
	r = newAwaitRig(t)
	if got, want := r.await(t, 2, nil), "p+p-"; got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}

// TestAwaitRingYieldsOnlyWhenDoorbellsCost checks that with a modelled
// doorbell cost the consumer re-polls pipeSpinPolls times before raising
// its flag, and re-arms that budget after every wake.
func TestAwaitRingYieldsOnlyWhenDoorbellsCost(t *testing.T) {
	r := newAwaitRig(t)
	r.ec.SetNotifyLatency(25 * time.Microsecond)
	cycle := strings.Repeat("p", pipeSpinPolls+1) + "+p-"
	got := r.await(t, 2*(pipeSpinPolls+2)+1, nil)
	if want := cycle + cycle + "p"; got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}

// TestAwaitRingWokenByFrameInTheGap publishes a frame just after the
// consumer's final check, as a producer racing the consumer's sleep does:
// the producer sees the raised flag and rings, so the consumer wakes on the
// event instead of waiting out driverWaitPoll. A consumer that missed the
// event could not return before its wait expired, so the best of a few
// attempts must land well inside it.
func TestAwaitRingWokenByFrameInTheGap(t *testing.T) {
	best := time.Hour
	for attempt := 0; attempt < 5; attempt++ {
		r := newAwaitRig(t)
		var checked time.Time
		var wg sync.WaitGroup
		got := r.await(t, 3, func(n int, flag bool) {
			if n != 2 {
				return
			}
			if !flag {
				t.Error("final check ran with the notify flag lowered")
			}
			checked = time.Now()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := r.ec.Notify(xen.Dom0, r.dPort); err != nil {
					t.Error(err)
				}
			}()
		})
		if el := time.Since(checked); el < best {
			best = el
		}
		wg.Wait()
		if want := "p+p-p"; got != want {
			t.Fatalf("trace = %q, want %q", got, want)
		}
	}
	if best >= driverWaitPoll/2 {
		t.Fatalf("fastest wake took %v, want well inside %v", best, driverWaitPoll)
	}
}
