package xen

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Event-channel errors.
var (
	ErrBadPort       = errors.New("xen: bad event channel port")
	ErrPortNotBound  = errors.New("xen: event channel not bound")
	ErrPortMismatch  = errors.New("xen: event channel does not belong to caller")
	ErrChannelClosed = errors.New("xen: event channel closed")
)

// notifyFaultDelay is how late an event lands when the notify fault hook
// (SetNotifyFault) catches it: the model of a lost interrupt that a later
// re-check recovers. A consumer blocked on such an event stalls this long
// instead of forever, and no wait needs a timer of its own.
const notifyFaultDelay = 2 * time.Millisecond

// errPortClosed is what calls on a port get once it has closed and its
// endpoint has been freed: the number no longer names a port (ErrBadPort)
// because the channel closed (ErrChannelClosed), so a waiter that loses the
// race with Close sees the same closure as one already blocked.
var errPortClosed = fmt.Errorf("%w: %w", ErrBadPort, ErrChannelClosed)

// channelState is the lifecycle of one event-channel endpoint. A closed
// endpoint is already out of the port table; only waiters that were blocked
// on it still hold it.
type channelState int

const (
	chanUnbound channelState = iota
	chanBound
	chanClosed
)

// evtchn is one endpoint. Endpoints come in bound pairs; Notify on one sets
// the pending flag on the other and wakes its waiters, like Xen's
// EVTCHNOP_send.
type evtchn struct {
	owner   DomID
	remote  DomID
	peer    EvtchnPort
	state   channelState
	pending int
	cond    *sync.Cond
}

// EventChannels is a host-wide port table shared by all domains, guarded by a
// single lock (port operations are control-plane, not data-plane). It holds
// only open endpoints: closing one frees it, and port numbers are never
// reused, so a number below next that is missing from the table was closed.
type EventChannels struct {
	mu    sync.Mutex
	ports map[EvtchnPort]*evtchn
	next  EvtchnPort
	// notifyFault, when set, is consulted on every Notify; returning true
	// holds the event back for notifyFaultDelay before it lands on the
	// peer. Fault injection only — the hook runs under ec.mu and must not
	// reenter EventChannels.
	notifyFault func(caller DomID, port EvtchnPort) bool
	dropped     uint64
	// suppressed counts doorbells a driver skipped because the peer's ring
	// notify flag said none was wanted (batched-drain coalescing).
	suppressed uint64
	// sent counts doorbells actually delivered; with suppressed it shows how
	// well a workload coalesces notifications.
	sent uint64
}

// SentNotifies returns how many doorbells were actually delivered.
func (ec *EventChannels) SentNotifies() uint64 {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.sent
}

// NoteSuppressed records one doorbell a driver coalesced away. Drivers call
// it instead of Notify when the ring's notify flag shows the peer is already
// draining, so the stats still account for every would-be notification.
func (ec *EventChannels) NoteSuppressed() {
	ec.mu.Lock()
	ec.suppressed++
	ec.mu.Unlock()
}

// SuppressedNotifies returns how many doorbells drivers coalesced away.
func (ec *EventChannels) SuppressedNotifies() uint64 {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.suppressed
}

// SetNotifyFault installs (or, with nil, removes) a lost-notification hook:
// a Notify the hook returns true for reports success to the sender, but its
// event lands on the peer only notifyFaultDelay later — and not at all if
// the channel closes first. The hook is called under the port-table lock
// and must not call back into EventChannels.
func (ec *EventChannels) SetNotifyFault(fn func(caller DomID, port EvtchnPort) bool) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	ec.notifyFault = fn
}

// DroppedNotifies returns how many notifications the fault hook has held
// back for late delivery.
func (ec *EventChannels) DroppedNotifies() uint64 {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.dropped
}

// newEventChannels creates an empty port table.
func newEventChannels() *EventChannels {
	return &EventChannels{ports: make(map[EvtchnPort]*evtchn), next: 1}
}

// ownedLocked returns caller's open endpoint for port. Called with ec.mu
// held.
func (ec *EventChannels) ownedLocked(caller DomID, port EvtchnPort) (*evtchn, error) {
	ch, ok := ec.ports[port]
	if !ok {
		if port > 0 && port < ec.next {
			return nil, errPortClosed
		}
		return nil, ErrBadPort
	}
	if ch.owner != caller {
		return nil, ErrPortMismatch
	}
	return ch, nil
}

// AllocUnbound allocates a port owned by owner awaiting a bind from remote,
// like EVTCHNOP_alloc_unbound.
func (ec *EventChannels) AllocUnbound(owner, remote DomID) EvtchnPort {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	port := ec.next
	ec.next++
	ch := &evtchn{owner: owner, remote: remote, state: chanUnbound}
	ch.cond = sync.NewCond(&ec.mu)
	ec.ports[port] = ch
	return port
}

// BindInterdomain binds caller's new port to remotePort, which remoteDom must
// have allocated for caller. Returns the caller's port.
func (ec *EventChannels) BindInterdomain(caller DomID, remoteDom DomID, remotePort EvtchnPort) (EvtchnPort, error) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	rch, ok := ec.ports[remotePort]
	if !ok {
		return 0, ErrBadPort
	}
	if rch.state != chanUnbound || rch.owner != remoteDom || rch.remote != caller {
		return 0, fmt.Errorf("%w: port %d owner dom%d remote dom%d state %d",
			ErrPortMismatch, remotePort, rch.owner, rch.remote, rch.state)
	}
	port := ec.next
	ec.next++
	lch := &evtchn{owner: caller, remote: remoteDom, peer: remotePort, state: chanBound}
	lch.cond = sync.NewCond(&ec.mu)
	ec.ports[port] = lch
	rch.peer = port
	rch.state = chanBound
	return port, nil
}

// Notify sends an event on caller's port, waking waiters on the peer end.
func (ec *EventChannels) Notify(caller DomID, port EvtchnPort) error {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	ch, err := ec.ownedLocked(caller, port)
	if err != nil {
		return err
	}
	if ch.state != chanBound {
		return ErrPortNotBound
	}
	peer := ec.ports[ch.peer] // bound endpoints close in pairs
	if ec.notifyFault != nil && ec.notifyFault(caller, port) {
		ec.dropped++
		time.AfterFunc(notifyFaultDelay, func() {
			ec.mu.Lock()
			defer ec.mu.Unlock()
			// Ports are never reused, so a peer still bound is the one the
			// event was meant for; a closed one takes nothing.
			if peer.state == chanBound {
				peer.pending++
				peer.cond.Broadcast()
			}
		})
		return nil
	}
	peer.pending++
	peer.cond.Broadcast()
	ec.sent++
	return nil
}

// Wait blocks until an event is pending on caller's port (or the channel is
// closed) and consumes one pending event.
func (ec *EventChannels) Wait(caller DomID, port EvtchnPort) error {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	ch, err := ec.ownedLocked(caller, port)
	if err != nil {
		return err
	}
	for ch.pending == 0 && ch.state == chanBound {
		ch.cond.Wait()
	}
	if ch.state == chanClosed {
		return ErrChannelClosed
	}
	ch.pending--
	return nil
}

// Pending returns the number of unconsumed events on a port.
func (ec *EventChannels) Pending(caller DomID, port EvtchnPort) (int, error) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	ch, err := ec.ownedLocked(caller, port)
	if err != nil {
		return 0, err
	}
	return ch.pending, nil
}

// Close tears down a port and its bound peer, freeing both endpoints and
// waking any waiters on them.
func (ec *EventChannels) Close(caller DomID, port EvtchnPort) error {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	ch, err := ec.ownedLocked(caller, port)
	if err != nil {
		return err
	}
	if ch.state == chanBound {
		ec.freeLocked(ch.peer, ec.ports[ch.peer])
	}
	ec.freeLocked(port, ch)
	return nil
}

// freeLocked closes an endpoint and removes it from the port table; its
// waiters wake to ErrChannelClosed. Called with ec.mu held.
func (ec *EventChannels) freeLocked(port EvtchnPort, ch *evtchn) {
	delete(ec.ports, port)
	ch.state = chanClosed
	ch.cond.Broadcast()
}

// closeAllFor tears down every port owned by or remoted to dom; used on
// domain destruction.
func (ec *EventChannels) closeAllFor(dom DomID) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	for port, ch := range ec.ports {
		if ch.owner == dom || ch.remote == dom {
			ec.freeLocked(port, ch)
		}
	}
}
