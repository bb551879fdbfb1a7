// Package ring implements the shared-memory request/response ring used by the
// vTPM split driver, modeled after Xen's tpmif ring protocol.
//
// The ring lives inside a caller-supplied byte region, which in this codebase
// is a run of guest memory pages shared with the backend through the grant
// table. Keeping the actual request and response bytes inside that region is
// deliberate: it is what makes the ring contents visible to the memory-dump
// attacker model, exactly as they would be on real hardware.
//
// The layout mirrors the single-ring in-place scheme used by Xen's TPM
// front/backend: a request is written into slot (reqProd mod numSlots) and the
// backend later overwrites the same slot with the response. Each end keeps
// its indices private and publishes only its producer index in the shared
// header, as in the real protocol. One call per role and direction moves one
// frame: the frontend enqueues requests and dequeues responses, the backend
// dequeues requests and enqueues responses. A consumer checks the peer's
// published producer index before trusting it (ErrBadProducer).
package ring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"xvtpm/internal/xen"
)

// Shared-header field offsets within the region. All fields are little-endian,
// matching the x86 guests the original system ran on. The two notify flags
// implement the classic Xen RING_FINAL_CHECK doorbell-suppression handshake:
// each consumer publishes whether it wants an event-channel notify for new
// frames in its direction, and clears the flag while it is actively draining.
const (
	offReqProd   = 0
	offRspProd   = 4
	offNumSlots  = 8
	offSlotSize  = 12
	offReqNotify = 16 // backend wants a doorbell for new requests
	offRspNotify = 17 // frontend wants a doorbell for new responses
	headerSize   = 24
)

// Per-slot header: status(1) pad(3) id(8) length(4).
const slotHeaderSize = 16

// Slot status values stored in shared memory.
const (
	slotFree     = 0
	slotRequest  = 1
	slotResponse = 2
)

// Errors returned by ring operations.
var (
	ErrClosed      = errors.New("ring: closed")
	ErrTooLarge    = errors.New("ring: payload exceeds slot size")
	ErrOutOfOrder  = errors.New("ring: response enqueued out of order")
	ErrUnknownID   = errors.New("ring: response id does not match pending request")
	ErrBadRegion   = errors.New("ring: region too small for requested geometry")
	ErrBadGeometry = errors.New("ring: slot count must be a power of two")
	// ErrBadProducer reports a producer index, read from the shared header,
	// that no honest peer could have written: more frames than the ring
	// holds, or responses to requests this end never published. Like Xen's
	// RING_REQUEST_PROD_OVERFLOW, it means the peer is broken or hostile.
	ErrBadProducer = errors.New("ring: impossible producer index")
)

// Ring is one shared request/response ring connecting a frontend (guest) and a
// backend (driver domain). Both ends hold the same *Ring; the role split is
// purely in which methods each end calls.
type Ring struct {
	mu       sync.Mutex
	notFull  sync.Cond // frontend waits here for a free slot
	region   []byte
	bus      *xen.MemBus // memory bus of the domain owning the region
	numSlots uint32
	slotSize uint32

	// Private indices (not in shared memory, per the Xen protocol). Each end
	// keeps its own producer index and publishes a copy in the header, so
	// the peer can rewrite the published copy but never the one in use.
	reqPvt  uint32 // frontend: requests published
	rspCons uint32 // frontend: responses consumed
	reqCons uint32 // backend: requests consumed
	rspPvt  uint32 // backend: responses published

	nextID uint64
	closed bool

	// dequeueFault, when non-nil, rewrites every dequeued payload before it
	// reaches the consumer — fault injection for torn/truncated frames. It
	// runs under r.mu and must not reenter the ring. Returning the payload
	// unchanged is a no-op; returning a prefix models a truncated frame.
	dequeueFault func(payload []byte) []byte
	faulted      uint64
}

// SetDequeueFault installs (or, with nil, removes) a payload-rewrite hook
// applied to every dequeued request and response. The hook runs under the
// ring lock and must not call back into the Ring.
func (r *Ring) SetDequeueFault(fn func(payload []byte) []byte) {
	r.mu.Lock()
	r.dequeueFault = fn
	r.mu.Unlock()
}

// FaultedFrames returns how many dequeued payloads the fault hook rewrote.
func (r *Ring) FaultedFrames() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.faulted
}

// applyDequeueFault runs the fault hook over a just-dequeued payload.
// Called with r.mu held.
func (r *Ring) applyDequeueFault(payload []byte) []byte {
	if r.dequeueFault == nil {
		return payload
	}
	out := r.dequeueFault(payload)
	if len(out) != len(payload) || (len(payload) > 0 && &out[0] != &payload[0]) {
		r.faulted++
	}
	return out
}

// Geometry describes a ring's slot layout.
type Geometry struct {
	NumSlots uint32 // must be a power of two
	SlotSize uint32 // max payload bytes per slot
}

// RegionSize returns the number of bytes of shared memory the geometry needs.
func (g Geometry) RegionSize() int {
	return headerSize + int(g.NumSlots)*(slotHeaderSize+int(g.SlotSize))
}

// registry maps initialized ring regions (by the identity of their first
// byte) to their Ring. On real hardware the two ends of a ring coordinate
// through memory barriers on the shared page; in Go, separate Ring structs
// over the same bytes would be a data race, so Attach resolves a mapped
// region back to the one Ring that owns its synchronization state. Only a
// party holding the mapped bytes — i.e. one that passed the grant-table
// check — can attach.
var (
	registryMu sync.Mutex
	registry   = make(map[*byte]*Ring)
)

// Init formats region for the given geometry and returns a Ring over it.
// The region is typically a run of grant-mapped guest pages; bus is the
// memory bus of the domain owning those pages (nil for private regions that
// no dump can observe).
func Init(region []byte, g Geometry, bus *xen.MemBus) (*Ring, error) {
	if g.NumSlots == 0 || g.NumSlots&(g.NumSlots-1) != 0 {
		return nil, ErrBadGeometry
	}
	if len(region) < g.RegionSize() {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrBadRegion, len(region), g.RegionSize())
	}
	bus.BeginWrite()
	for i := range region[:g.RegionSize()] {
		region[i] = 0
	}
	binary.LittleEndian.PutUint32(region[offNumSlots:], g.NumSlots)
	binary.LittleEndian.PutUint32(region[offSlotSize:], g.SlotSize)
	// Both ends start out wanting doorbells; a consumer clears its flag
	// while it is awake and draining, so producers skip their notifies.
	region[offReqNotify] = 1
	region[offRspNotify] = 1
	bus.EndWrite()
	r := &Ring{region: region, bus: bus, numSlots: g.NumSlots, slotSize: g.SlotSize}
	r.notFull.L = &r.mu
	registryMu.Lock()
	registry[&region[0]] = r
	registryMu.Unlock()
	return r, nil
}

// Attach resolves a mapped ring region to its live Ring. The region must
// alias memory previously passed to Init (any view with the same first
// byte).
func Attach(region []byte) (*Ring, error) {
	if len(region) == 0 {
		return nil, ErrBadRegion
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	r, ok := registry[&region[0]]
	if !ok {
		return nil, fmt.Errorf("%w: region not an initialized ring", ErrBadRegion)
	}
	return r, nil
}

// Close shuts the ring down. Blocked and future operations fail with ErrClosed.
func (r *Ring) Close() {
	registryMu.Lock()
	delete(registry, &r.region[0])
	registryMu.Unlock()
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.notFull.Broadcast()
}

// Closed reports whether Close has been called.
func (r *Ring) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

func (r *Ring) reqProd() uint32 { return binary.LittleEndian.Uint32(r.region[offReqProd:]) }
func (r *Ring) rspProd() uint32 { return binary.LittleEndian.Uint32(r.region[offRspProd:]) }
func (r *Ring) setReqProd(v uint32) {
	binary.LittleEndian.PutUint32(r.region[offReqProd:], v)
}
func (r *Ring) setRspProd(v uint32) {
	binary.LittleEndian.PutUint32(r.region[offRspProd:], v)
}

func (r *Ring) slot(idx uint32) []byte {
	stride := slotHeaderSize + int(r.slotSize)
	off := headerSize + int(idx&(r.numSlots-1))*stride
	return r.region[off : off+stride]
}

func writeSlot(s []byte, status byte, id uint64, payload []byte) {
	// Zeroize the slot tail so stale bytes from a previous, possibly larger,
	// message never linger in shared memory. The previous occupant's length
	// field bounds how far stale bytes can reach, so only that span is
	// cleared — not the whole slot. The field lives in shared memory, so it
	// is clamped rather than trusted.
	old := slotHeaderSize + int(binary.LittleEndian.Uint32(s[12:]))
	if old > len(s) {
		old = len(s)
	}
	s[0] = status
	binary.LittleEndian.PutUint64(s[4:], id)
	binary.LittleEndian.PutUint32(s[12:], uint32(len(payload)))
	n := slotHeaderSize + copy(s[slotHeaderSize:], payload)
	if n < old {
		clear(s[n:old])
	}
}

// slotHeader reads a slot's status and id without copying the payload — the
// response-enqueue id check uses it so matching a response to its request
// slot costs no allocation.
func slotHeader(s []byte) (status byte, id uint64) {
	return s[0], binary.LittleEndian.Uint64(s[4:])
}

// zeroizeSlot frees a slot, clearing its header plus the payload span the
// length field records rather than the whole slot — past occupants were
// already scrubbed when the slot was rewritten. The length field lives in
// shared memory, so it is clamped rather than trusted.
func zeroizeSlot(s []byte) {
	end := slotHeaderSize + int(binary.LittleEndian.Uint32(s[12:]))
	if end > len(s) {
		end = len(s)
	}
	clear(s[:end])
}

// readSlotInto reads a slot's status and id and appends its payload to buf.
// The length field lives in shared memory, so it is clamped to the slot.
func readSlotInto(s, buf []byte) (status byte, id uint64, payload []byte) {
	status = s[0]
	id = binary.LittleEndian.Uint64(s[4:])
	n := binary.LittleEndian.Uint32(s[12:])
	if int(n) > len(s)-slotHeaderSize {
		n = uint32(len(s) - slotHeaderSize)
	}
	payload = append(buf, s[slotHeaderSize:slotHeaderSize+int(n)]...)
	return status, id, payload
}

// EnqueueRequest publishes a request on the ring, blocking while the ring is
// full. It returns the request ID the response will carry. The frontend
// calls this.
func (r *Ring) EnqueueRequest(payload []byte) (uint64, error) {
	if uint32(len(payload)) > r.slotSize {
		return 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), r.slotSize)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.closed && r.reqPvt-r.rspCons >= r.numSlots {
		r.notFull.Wait()
	}
	if r.closed {
		return 0, ErrClosed
	}
	r.nextID++
	id := r.nextID
	r.bus.BeginWrite()
	writeSlot(r.slot(r.reqPvt), slotRequest, id, payload)
	r.reqPvt++
	r.setReqProd(r.reqPvt)
	r.bus.EndWrite()
	return id, nil
}

// TryDequeueRequestInto removes the oldest unconsumed request, appending its
// payload to buf — typically buf[:0] of a scratch slice the caller reuses
// across pops, so a steady service loop dequeues without allocating. The
// returned payload aliases buf's array when capacity sufficed. ok is false
// when no request is pending. The backend calls this.
//
// The request producer index comes from shared memory the guest can write,
// so it is checked before it is used: at most NumSlots requests can await a
// response, and the index never runs behind what was already consumed.
func (r *Ring) TryDequeueRequestInto(buf []byte) (id uint64, payload []byte, ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, nil, false, ErrClosed
	}
	prod := r.reqProd()
	if inFlight := prod - r.rspPvt; inFlight > r.numSlots || inFlight < r.reqCons-r.rspPvt {
		return 0, nil, false, fmt.Errorf("%w: request producer %d, consumer %d, %d slots",
			ErrBadProducer, prod, r.reqCons, r.numSlots)
	}
	if r.reqCons == prod {
		return 0, nil, false, nil
	}
	status, id, payload := readSlotInto(r.slot(r.reqCons), buf)
	if status != slotRequest {
		return 0, nil, false, fmt.Errorf("ring: slot %d has status %d, want request", r.reqCons, status)
	}
	r.reqCons++
	return id, r.applyDequeueFault(payload), true, nil
}

// EnqueueResponse publishes the response for request id, overwriting the slot
// the request occupied. Responses must be produced in request order, which the
// serial TPM command model guarantees. The backend calls this.
func (r *Ring) EnqueueResponse(id uint64, payload []byte) error {
	if uint32(len(payload)) > r.slotSize {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), r.slotSize)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.rspPvt == r.reqCons {
		return ErrOutOfOrder
	}
	s := r.slot(r.rspPvt)
	if _, slotID := slotHeader(s); slotID != id {
		return fmt.Errorf("%w: slot holds %d, got %d", ErrUnknownID, slotID, id)
	}
	r.bus.BeginWrite()
	writeSlot(s, slotResponse, id, payload)
	r.rspPvt++
	r.setRspProd(r.rspPvt)
	r.bus.EndWrite()
	return nil
}

// TryDequeueResponseInto removes the oldest unconsumed response, appending
// its payload to buf, and zeroizes the slot it occupied. ok is false when no
// response is pending. The frontend calls this.
//
// The response producer index comes from shared memory dom0 can write; a
// response to a request this end never published is refused.
func (r *Ring) TryDequeueResponseInto(buf []byte) (id uint64, payload []byte, ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, nil, false, ErrClosed
	}
	prod := r.rspProd()
	if prod-r.rspCons > r.reqPvt-r.rspCons {
		return 0, nil, false, fmt.Errorf("%w: response producer %d, consumer %d, %d requests published",
			ErrBadProducer, prod, r.rspCons, r.reqPvt)
	}
	if r.rspCons == prod {
		return 0, nil, false, nil
	}
	s := r.slot(r.rspCons)
	status, id, payload := readSlotInto(s, buf)
	if status != slotResponse {
		return 0, nil, false, fmt.Errorf("ring: slot %d has status %d, want response", r.rspCons, status)
	}
	// Free the slot: zeroize so completed exchanges do not linger in shared
	// memory for a dump to harvest.
	r.bus.BeginWrite()
	zeroizeSlot(s)
	r.bus.EndWrite()
	r.rspCons++
	r.notFull.Signal()
	return id, r.applyDequeueFault(payload), true, nil
}

// Geometry reports the ring's slot layout.
func (r *Ring) Geometry() Geometry {
	return Geometry{NumSlots: r.numSlots, SlotSize: r.slotSize}
}

// setNotifyFlag publishes a notify-wanted flag in the shared header.
func (r *Ring) setNotifyFlag(off int, on bool) {
	var v byte
	if on {
		v = 1
	}
	r.mu.Lock()
	r.bus.BeginWrite()
	r.region[off] = v
	r.bus.EndWrite()
	r.mu.Unlock()
}

func (r *Ring) notifyFlag(off int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.region[off] != 0
}

// SetRequestNotify publishes whether the backend wants a doorbell for newly
// enqueued requests. The backend keeps it cleared while awake and raises it
// just before sleeping, then re-checks the ring once more (the
// RING_FINAL_CHECK pattern) so a request published in the gap is never lost.
func (r *Ring) SetRequestNotify(on bool) { r.setNotifyFlag(offReqNotify, on) }

// RequestNotifyWanted reports whether the backend currently wants a doorbell
// for new requests; frontends may skip the event-channel notify when false.
func (r *Ring) RequestNotifyWanted() bool { return r.notifyFlag(offReqNotify) }

// SetResponseNotify publishes whether the frontend wants a doorbell for newly
// enqueued responses (the response-direction twin of SetRequestNotify).
func (r *Ring) SetResponseNotify(on bool) { r.setNotifyFlag(offRspNotify, on) }

// ResponseNotifyWanted reports whether the frontend currently wants a doorbell
// for new responses; backends may skip the notify when false.
func (r *Ring) ResponseNotifyWanted() bool { return r.notifyFlag(offRspNotify) }
