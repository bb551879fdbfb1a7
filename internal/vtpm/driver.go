package vtpm

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"xvtpm/internal/ring"
	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
	"xvtpm/internal/xenstore"
)

// XenBus device states, as on real Xen.
const (
	XenbusInitialising = 1
	XenbusInitWait     = 2
	XenbusInitialised  = 3
	XenbusConnected    = 4
	XenbusClosing      = 5
	XenbusClosed       = 6
)

// Guard-refusal return codes delivered to the guest as TPM error responses.
const (
	RCGuardDenied    uint32 = 0x00000F01 // policy refused the ordinal
	RCGuardChannel   uint32 = 0x00000F02 // channel authentication/replay failure
	RCGuardThrottled uint32 = 0x00000F03 // instance over its command rate limit
	RCInstanceFailed uint32 = 0x00000F04 // instance quarantined after persistence failure
	RCInstanceMoved  uint32 = 0x00000F05 // instance fenced: ownership moved, retry at the new owner
)

// driverWaitPoll is how long a ring consumer blocks on the event channel
// before re-polling the ring. On real hardware a lost interrupt stalls the
// device until the next one; here a bounded wait turns a dropped
// notification (see xen.EventChannels.SetNotifyFault) into a short delay
// instead of a deadlock.
const driverWaitPoll = 2 * time.Millisecond

// pipeSpinPolls bounds how many times a ring consumer yields the processor
// and re-polls before it sleeps, when doorbells have a modelled cost: the
// producer usually answers within microseconds, and a response caught by
// polling is one the producer need not pay a doorbell for.
const pipeSpinPolls = 64

// awaitRing is the consumer side of every ring direction — the backend
// waiting for requests, frontends waiting for responses — in the Xen
// RING_FINAL_CHECK shape. It polls until poll reports frames or fails. The
// direction's notify flag stays cleared while the consumer is awake, so
// producers skip their doorbells; it is raised only right before sleeping,
// followed by one more poll so a frame published into the gap is never
// announced into silence, and cleared again after every wake. Yielding
// between polls only pays when a doorbell costs something
// (NotifyLatency > 0); at zero cost the consumer blocks at once.
func awaitRing(ec *xen.EventChannels, self xen.DomID, port xen.EvtchnPort, setNotify func(on bool), poll func() (bool, error)) error {
	spins := 0
	if ec.NotifyLatency() > 0 {
		spins = pipeSpinPolls
	}
	for {
		for spin := 0; ; spin++ {
			if ok, err := poll(); ok || err != nil {
				return err
			}
			if spin >= spins {
				break
			}
			runtime.Gosched()
		}
		setNotify(true)
		ok, err := poll()
		if ok || err != nil {
			setNotify(false)
			return err
		}
		werr := ec.WaitTimeout(self, port, driverWaitPoll)
		setNotify(false)
		if werr != nil && !errors.Is(werr, xen.ErrWaitTimeout) {
			return werr
		}
	}
}

// ringDoorbell is the producer side of every ring direction: after
// publishing frames it notifies the consumer only if the consumer's notify
// flag asks for it (wanted), and otherwise counts the doorbell as
// suppressed — the consumer is awake and will find the frames itself.
func ringDoorbell(ec *xen.EventChannels, self xen.DomID, port xen.EvtchnPort, wanted bool) error {
	if !wanted {
		ec.NoteSuppressed()
		return nil
	}
	return ec.Notify(self, port)
}

// Ring geometry of the vTPM device: 8 in-flight slots of 4 KiB, sized for
// the largest key blobs the engine emits. deviceRingPages is the number of
// guest pages (and so grant references) the ring occupies.
var (
	deviceRingGeometry = ring.Geometry{NumSlots: 8, SlotSize: 4096}
	deviceRingPages    = (deviceRingGeometry.RegionSize() + xen.PageSize - 1) / xen.PageSize
)

// Payload framing on the ring: one tag byte ahead of the body.
const (
	payloadRaw     byte = 0 // unencoded TPM response (guard refusals)
	payloadEncoded byte = 1 // codec-encoded command or response
)

// Driver errors.
var (
	ErrNotConnected = errors.New("vtpm: device not connected")
	ErrHandshake    = errors.New("vtpm: device handshake failed")
)

// frontPath is the frontend's XenStore directory.
func frontPath(dom xen.DomID) string {
	return fmt.Sprintf("/local/domain/%d/device/vtpm/0", dom)
}

// backPath is the backend's XenStore directory for one frontend.
func backPath(dom xen.DomID) string {
	return fmt.Sprintf("/local/domain/0/backend/vtpm/%d/0", dom)
}

// Frontend is the guest half of the vTPM split driver. It implements
// tpm.Transport, so a tpm.Client can sit directly on top of it.
type Frontend struct {
	hv    *xen.Hypervisor
	xs    *xenstore.Store
	dom   *xen.Domain
	codec GuestCodec
	cfg   FrontendConfig
	pipe  *pipeline // non-nil when cfg.PipelineDepth > 1

	mu     sync.Mutex
	r      *ring.Ring
	port   xen.EvtchnPort
	closed bool
	txBuf  []byte // reusable framed-request buffer (guarded by mu)
	rxBuf  []byte // reusable response-dequeue buffer (guarded by mu)
}

// NewFrontend prepares a lockstep frontend for a guest. codec is the channel
// codec installed by the domain builder.
func NewFrontend(hv *xen.Hypervisor, xs *xenstore.Store, dom *xen.Domain, codec GuestCodec) *Frontend {
	return NewFrontendCfg(hv, xs, dom, codec, FrontendConfig{})
}

// NewFrontendCfg is NewFrontend with explicit transport configuration.
func NewFrontendCfg(hv *xen.Hypervisor, xs *xenstore.Store, dom *xen.Domain, codec GuestCodec, cfg FrontendConfig) *Frontend {
	if cfg.PipelineDepth > int(deviceRingGeometry.NumSlots) {
		cfg.PipelineDepth = int(deviceRingGeometry.NumSlots)
	}
	f := &Frontend{hv: hv, xs: xs, dom: dom, codec: codec, cfg: cfg}
	if cfg.PipelineDepth > 1 {
		f.pipe = newPipeline(cfg.PipelineDepth)
	}
	return f
}

// Setup allocates the ring in guest memory, grants it to dom0, allocates the
// event channel and publishes the connection parameters in XenStore, leaving
// the device in state Initialised for the backend to pick up.
func (f *Frontend) Setup() error {
	first, err := f.dom.AllocPages(deviceRingPages)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	region, err := f.dom.PageRun(first, deviceRingPages)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	r, err := ring.Init(region, deviceRingGeometry, f.dom.MemBus())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	refs, err := f.dom.GrantRun(xen.Dom0, first, deviceRingPages, false)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	port := f.hv.EventChannels().AllocUnbound(f.dom.ID(), xen.Dom0)
	f.mu.Lock()
	f.r = r
	f.port = port
	f.mu.Unlock()

	dir := frontPath(f.dom.ID())
	err = f.xs.WithTxn(f.dom.ID(), 8, func(id xenstore.TxnID) error {
		if err := f.xs.Write(f.dom.ID(), id, dir+"/ring-ref-count", []byte(strconv.Itoa(len(refs)))); err != nil {
			return err
		}
		for i, ref := range refs {
			key := fmt.Sprintf("%s/ring-ref-%d", dir, i)
			if err := f.xs.Write(f.dom.ID(), id, key, []byte(strconv.FormatUint(uint64(ref), 10))); err != nil {
				return err
			}
		}
		if err := f.xs.Write(f.dom.ID(), id, dir+"/event-channel", []byte(strconv.FormatUint(uint64(port), 10))); err != nil {
			return err
		}
		return f.xs.Write(f.dom.ID(), id, dir+"/state", []byte(strconv.Itoa(XenbusInitialised)))
	})
	if err != nil {
		return fmt.Errorf("%w: publishing device keys: %v", ErrHandshake, err)
	}
	return nil
}

// WaitConnected blocks until the backend reports state Connected.
func (f *Frontend) WaitConnected() error {
	statePath := backPath(f.dom.ID()) + "/state"
	w, err := f.xs.Watch(f.dom.ID(), statePath)
	if err != nil {
		return err
	}
	defer f.xs.Unwatch(w)
	for range w.Events() {
		v, err := f.xs.Read(f.dom.ID(), xenstore.NoTxn, statePath)
		if err != nil {
			continue // backend directory not written yet
		}
		st, _ := strconv.Atoi(string(v))
		switch st {
		case XenbusConnected:
			return nil
		case XenbusClosing, XenbusClosed:
			return ErrHandshake
		}
	}
	return ErrHandshake
}

// Transmit implements tpm.Transport: encode, enqueue, kick the backend, and
// block for the response. With PipelineDepth <= 1 one command is in flight at
// a time per frontend, matching the /dev/tpm0 semantics guests see; larger
// depths route through the pipelined pending table. The returned slice is
// caller-owned: concurrent users of one client keep reading their response
// while the next command is already overwriting the frontend's scratch
// buffers, so the decode step lands in a fresh allocation.
func (f *Frontend) Transmit(cmd []byte) ([]byte, error) {
	if f.pipe != nil {
		return f.transmitPipelined(cmd)
	}
	var start time.Time
	tm := f.cfg.Metrics
	if tm != nil {
		start = time.Now()
	}
	f.mu.Lock()
	resp, err := f.transmitLocked(cmd)
	f.mu.Unlock()
	if err == nil && tm != nil {
		tm.GuestRTT.Record(time.Since(start))
	}
	return resp, err
}

// transmitLocked is the lockstep transmit path, under f.mu.
func (f *Frontend) transmitLocked(cmd []byte) ([]byte, error) {
	if f.r == nil || f.closed {
		return nil, ErrNotConnected
	}
	// Build the framed request in the reusable transmit buffer with the tag
	// byte reserved up front, so the encoder writes straight behind it and
	// no prefix copy is needed. EnqueueRequest copies the payload into the
	// ring slot, so reusing the buffer on the next command is safe.
	buf, seq, err := f.codec.EncodeRequest(append(f.txBuf[:0], payloadEncoded), cmd)
	if err != nil {
		return nil, err
	}
	f.txBuf = buf
	id, err := f.r.EnqueueRequest(f.txBuf)
	if err != nil {
		return nil, err
	}
	ec := f.hv.EventChannels()
	if err := ringDoorbell(ec, f.dom.ID(), f.port, f.r.RequestNotifyWanted()); err != nil {
		return nil, err
	}
	var rid uint64
	var rp []byte
	err = awaitRing(ec, f.dom.ID(), f.port, f.r.SetResponseNotify, func() (ok bool, err error) {
		rid, rp, ok, err = f.r.TryDequeueResponseInto(f.rxBuf[:0])
		return ok, err
	})
	if err != nil {
		return nil, err
	}
	f.rxBuf = rp
	if rid != id {
		return nil, fmt.Errorf("vtpm: response id %d for request %d", rid, id)
	}
	return f.decodeFrame(rp, seq)
}

// Close tears the frontend down.
func (f *Frontend) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	if f.r != nil {
		f.r.Close()
	}
	f.hv.EventChannels().Close(f.dom.ID(), f.port) //nolint:errcheck // teardown
}

// backendDevice is the dom0 half of one connected vTPM device.
type backendDevice struct {
	front   xen.DomID
	launch  xen.LaunchDigest
	mapping *xen.GrantMapping
	r       *ring.Ring
	port    xen.EvtchnPort
	done    chan struct{}
}

// Backend runs the dom0 side of every vTPM device on one host, dispatching
// ring commands into the Manager (and therefore through the Guard).
type Backend struct {
	hv  *xen.Hypervisor
	xs  *xenstore.Store
	mgr *Manager

	// transport, when non-nil, receives per-drain batch sizes. Set it with
	// SetTransportMetrics before the first AttachDevice.
	transport *TransportMetrics

	mu      sync.Mutex
	devices map[xen.DomID]*backendDevice
}

// NewBackend creates the host's vTPM backend.
func NewBackend(hv *xen.Hypervisor, xs *xenstore.Store, mgr *Manager) *Backend {
	return &Backend{hv: hv, xs: xs, mgr: mgr, devices: make(map[xen.DomID]*backendDevice)}
}

// SetTransportMetrics installs the host's transport instruments (ring batch
// sizes per backend drain). Call before the first AttachDevice — service
// loops read the pointer without locking.
func (b *Backend) SetTransportMetrics(tm *TransportMetrics) { b.transport = tm }

// readInt reads a decimal XenStore value.
func (b *Backend) readInt(path string) (uint64, error) {
	v, err := b.xs.Read(xen.Dom0, xenstore.NoTxn, path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(string(v), 10, 64)
}

// AttachDevice completes the handshake with a frontend that has reached
// state Initialised: map the ring, bind the event channel, start the service
// loop and report Connected.
func (b *Backend) AttachDevice(front xen.DomID) error {
	dom, err := b.hv.Domain(front)
	if err != nil {
		return err
	}
	if _, ok := b.mgr.InstanceForDomain(front); !ok {
		return fmt.Errorf("%w: dom%d has no bound vTPM instance", ErrNoInstance, front)
	}
	dir := frontPath(front)
	st, err := b.readInt(dir + "/state")
	if err != nil || st != XenbusInitialised {
		return fmt.Errorf("%w: frontend state %d (%v)", ErrHandshake, st, err)
	}
	nRefs, err := b.readInt(dir + "/ring-ref-count")
	if err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	// The guest wrote this count: accept only the page count the device
	// ring needs, before it sizes anything.
	if nRefs != uint64(deviceRingPages) {
		return fmt.Errorf("%w: ring-ref-count %d, device ring needs %d", ErrHandshake, nRefs, deviceRingPages)
	}
	refs := make([]xen.GrantRef, 0, nRefs)
	for i := uint64(0); i < nRefs; i++ {
		v, err := b.readInt(fmt.Sprintf("%s/ring-ref-%d", dir, i))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrHandshake, err)
		}
		refs = append(refs, xen.GrantRef(v))
	}
	frontPort, err := b.readInt(dir + "/event-channel")
	if err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	mapping, err := b.hv.MapGrantRun(xen.Dom0, front, refs)
	if err != nil {
		return fmt.Errorf("%w: mapping ring: %v", ErrHandshake, err)
	}
	r, err := ring.Attach(mapping.Bytes())
	if err != nil {
		mapping.Unmap()
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	port, err := b.hv.EventChannels().BindInterdomain(xen.Dom0, front, xen.EvtchnPort(frontPort))
	if err != nil {
		mapping.Unmap()
		return fmt.Errorf("%w: binding event channel: %v", ErrHandshake, err)
	}
	dev := &backendDevice{
		front:   front,
		launch:  dom.Launch(),
		mapping: mapping,
		r:       r,
		port:    port,
		done:    make(chan struct{}),
	}
	b.mu.Lock()
	b.devices[front] = dev
	b.mu.Unlock()
	go b.serve(dev)
	if err := b.xs.Write(xen.Dom0, xenstore.NoTxn, backPath(front)+"/state",
		[]byte(strconv.Itoa(XenbusConnected))); err != nil {
		return err
	}
	return nil
}

// serve is the per-device service loop, batched: each wakeup drains every
// pending request off the ring in one pass, dispatches them in order, and
// publishes the responses as one batch with (at most) one doorbell. Between
// batches it waits in awaitRing, so frontends skip their doorbells while it
// is draining. Both batches reuse per-device scratch buffers, so a steady
// stream serves without allocating beyond dispatch itself.
func (b *Backend) serve(dev *backendDevice) {
	defer close(dev.done)
	ec := b.hv.EventChannels()
	var req, rsp ring.Batch
	n := 0
	poll := func() (bool, error) {
		var err error
		n, err = dev.r.DequeueRequestBatchInto(&req, 0)
		return n > 0, err
	}
	for {
		if awaitRing(ec, xen.Dom0, dev.port, dev.r.SetRequestNotify, poll) != nil {
			return // ring or channel closed
		}
		if b.serveBatch(dev, &req, &rsp, n) != nil {
			return
		}
	}
}

// serveBatch dispatches one drained request batch and publishes the response
// batch, kicking the frontend once — and only if its notify flag asks for it.
func (b *Backend) serveBatch(dev *backendDevice, req, rsp *ring.Batch, n int) error {
	if tm := b.transport; tm != nil {
		tm.RingBatch.Record(time.Duration(n))
	}
	rsp.Reset()
	for i := 0; i < n; i++ {
		id, payload := req.Frame(i)
		rsp.Commit(id, b.handleAppend(dev, rsp.Take(), payload))
	}
	if err := dev.r.EnqueueResponseBatch(rsp); err != nil {
		return err
	}
	ringDoorbell(b.hv.EventChannels(), xen.Dom0, dev.port, dev.r.ResponseNotifyWanted()) //nolint:errcheck // frontend may be tearing down
	return nil
}

// handleAppend runs one ring payload through the manager and appends the
// framed response to dst (a batch scratch buffer), returning the extension.
func (b *Backend) handleAppend(dev *backendDevice, dst, payload []byte) []byte {
	if len(payload) < 1 || payload[0] != payloadEncoded {
		return append(append(dst, payloadRaw), tpm.ErrorResponse(RCGuardChannel)...)
	}
	out, err := b.mgr.Dispatch(dev.front, dev.launch, payload[1:])
	if err != nil {
		code := RCGuardDenied
		switch {
		case errors.Is(err, ErrBadChannel), errors.Is(err, ErrReplay):
			code = RCGuardChannel
		case errors.Is(err, ErrThrottled):
			code = RCGuardThrottled
		case errors.Is(err, ErrQuarantined), errors.Is(err, ErrInstancePanic):
			code = RCInstanceFailed
		case errors.Is(err, ErrFenced):
			// Fence rejections happen before guard and engine run, so the
			// guest may safely re-issue the command at the new owner.
			code = RCInstanceMoved
		}
		return append(append(dst, payloadRaw), tpm.ErrorResponse(code)...)
	}
	return append(append(dst, payloadEncoded), out...)
}

// WatchAndServe runs the backend event-driven, as real backend drivers do:
// it watches the XenStore frontend area and attaches any device that
// reaches state Initialised with a bound instance. It returns when stop is
// closed. Attach failures for individual devices are reported through
// onError (nil to ignore) and do not stop the loop.
func (b *Backend) WatchAndServe(stop <-chan struct{}, onError func(front xen.DomID, err error)) error {
	w, err := b.xs.Watch(xen.Dom0, "/local/domain")
	if err != nil {
		return err
	}
	defer b.xs.Unwatch(w)
	tryAttach := func(front xen.DomID) {
		if b.Connected(front) {
			return
		}
		st, err := b.readInt(frontPath(front) + "/state")
		if err != nil || st != XenbusInitialised {
			return
		}
		if _, ok := b.mgr.InstanceForDomain(front); !ok {
			return
		}
		if err := b.AttachDevice(front); err != nil && onError != nil {
			onError(front, err)
		}
	}
	scanAll := func() {
		doms, err := b.xs.List(xen.Dom0, xenstore.NoTxn, "/local/domain")
		if err != nil {
			return
		}
		for _, name := range doms {
			id, err := strconv.ParseUint(name, 10, 32)
			if err != nil || xen.DomID(id) == xen.Dom0 {
				continue
			}
			tryAttach(xen.DomID(id))
		}
	}
	for {
		select {
		case <-stop:
			return nil
		case _, ok := <-w.Events():
			if !ok {
				return nil
			}
			// Coalescing watches carry no reliable payload mapping; rescan.
			scanAll()
		}
	}
}

// DetachDevice tears down one device: close the ring (stopping the service
// loop), unmap the grant, close the channel and mark the backend Closed.
func (b *Backend) DetachDevice(front xen.DomID) error {
	b.mu.Lock()
	dev, ok := b.devices[front]
	if ok {
		delete(b.devices, front)
	}
	b.mu.Unlock()
	if !ok {
		return ErrNotConnected
	}
	dev.r.Close()
	b.hv.EventChannels().Close(xen.Dom0, dev.port) //nolint:errcheck // teardown
	<-dev.done
	dev.mapping.Unmap()
	return b.xs.Write(xen.Dom0, xenstore.NoTxn, backPath(front)+"/state",
		[]byte(strconv.Itoa(XenbusClosed)))
}

// Connected reports whether a frontend domain has a live backend device.
func (b *Backend) Connected(front xen.DomID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.devices[front]
	return ok
}

// DeviceStats is one connected device's ring-traffic digest.
type DeviceStats struct {
	Front xen.DomID
	Ring  ring.Stats
}

// DeviceStatsAll snapshots the ring counters of every connected device,
// sorted by frontend domain (for /debug introspection and vtpmctl top).
func (b *Backend) DeviceStatsAll() []DeviceStats {
	b.mu.Lock()
	out := make([]DeviceStats, 0, len(b.devices))
	for front, dev := range b.devices {
		out = append(out, DeviceStats{Front: front, Ring: dev.r.Stats()})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Front < out[j].Front })
	return out
}
