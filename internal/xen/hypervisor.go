package xen

import (
	"fmt"
	"sort"
	"sync"
)

// Hypervisor is one simulated Xen host: its domains, grant tables, event
// channels and privileged control operations.
type Hypervisor struct {
	mu      sync.Mutex
	domains map[DomID]*Domain
	nextID  DomID
	nextGen uint64
	evtchn  *EventChannels

	// dumpHooks run on every DumpCore with the dump contents; the exposure
	// window experiment (E7) uses this to sample what an attacker would see.
	dumpHooks []func(target DomID, image []byte)
}

// NewHypervisor boots a simulated host with a privileged dom0 of the given
// configuration.
func NewHypervisor(dom0 DomainConfig) *Hypervisor {
	h := &Hypervisor{
		domains: make(map[DomID]*Domain),
		nextID:  1,
		evtchn:  newEventChannels(),
	}
	if dom0.Name == "" {
		dom0.Name = "Domain-0"
	}
	if dom0.Pages == 0 {
		dom0.Pages = 4 * DefaultPages // dom0 hosts the manager's working memory
	}
	h.nextGen++
	h.domains[Dom0] = newDomain(Dom0, dom0, h.nextGen)
	return h
}

// EventChannels returns the host's event-channel port table.
func (h *Hypervisor) EventChannels() *EventChannels { return h.evtchn }

// CreateDomain builds and starts a new unprivileged domain.
func (h *Hypervisor) CreateDomain(cfg DomainConfig) (*Domain, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("xen: domain must be named")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.nextID
	h.nextID++
	h.nextGen++
	d := newDomain(id, cfg, h.nextGen)
	h.domains[id] = d
	return d, nil
}

// Domain looks up a live domain by ID.
func (h *Hypervisor) Domain(id DomID) (*Domain, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.domains[id]
	if !ok {
		return nil, fmt.Errorf("%w: dom%d", ErrNoSuchDomain, id)
	}
	return d, nil
}

// Domains returns all live domains in ID order.
func (h *Hypervisor) Domains() []*Domain {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Domain, 0, len(h.domains))
	for _, d := range h.domains {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// requirePrivileged validates that caller may perform domctl operations.
func (h *Hypervisor) requirePrivileged(caller DomID) error {
	if caller != Dom0 {
		return fmt.Errorf("%w: dom%d attempted a domctl", ErrNotPrivileged, caller)
	}
	return nil
}

// Pause moves a running domain to the paused state.
func (h *Hypervisor) Pause(caller, target DomID) error {
	return h.setState(caller, target, StateRunning, StatePaused)
}

// Unpause resumes a paused domain.
func (h *Hypervisor) Unpause(caller, target DomID) error {
	return h.setState(caller, target, StatePaused, StateRunning)
}

// Shutdown marks a domain cleanly shut down. A domain may shut itself down;
// anything else requires privilege.
func (h *Hypervisor) Shutdown(caller, target DomID) error {
	if caller != target {
		if err := h.requirePrivileged(caller); err != nil {
			return err
		}
	}
	d, err := h.Domain(target)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == StateDestroyed {
		return ErrBadState
	}
	d.state = StateShutdown
	return nil
}

func (h *Hypervisor) setState(caller, target DomID, from, to DomainState) error {
	if err := h.requirePrivileged(caller); err != nil {
		return err
	}
	d, err := h.Domain(target)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != from {
		return fmt.Errorf("%w: dom%d is %v, want %v", ErrBadState, target, d.state, from)
	}
	d.state = to
	return nil
}

// DestroyDomain tears a domain down: it closes the domain's event channels
// and scrubs its memory, as Xen does before freeing pages. A page another
// domain still maps through a grant stays intact until that mapping's last
// Unmap scrubs it, so a backend still reading the guest's ring never has it
// zeroed underneath it. Dom0 cannot be destroyed.
func (h *Hypervisor) DestroyDomain(caller, target DomID) error {
	if err := h.requirePrivileged(caller); err != nil {
		return err
	}
	if target == Dom0 {
		return fmt.Errorf("%w: cannot destroy dom0", ErrBadState)
	}
	h.mu.Lock()
	d, ok := h.domains[target]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("%w: dom%d", ErrNoSuchDomain, target)
	}
	delete(h.domains, target)
	h.mu.Unlock()
	h.evtchn.closeAllFor(target)
	d.mu.Lock()
	d.state = StateDestroyed
	mapped := d.grants.retire()
	d.bus.beginSnapshot()
	for i, p := range d.pages {
		if !mapped[i] {
			clear(p)
		}
	}
	d.bus.endSnapshot()
	d.mu.Unlock()
	return nil
}

// OnDumpCore registers a hook observing every core dump taken on this host.
func (h *Hypervisor) OnDumpCore(fn func(target DomID, image []byte)) {
	h.mu.Lock()
	h.dumpHooks = append(h.dumpHooks, fn)
	h.mu.Unlock()
}

// DumpCore returns a full memory image of the target domain, modeling
// `xm dump-core` — the host-side attack capability the paper's abstract
// names. Only the privileged domain may invoke it; the point of the paper is
// that on a consolidated server this privilege is exactly what an attacker or
// rogue administrator holds.
func (h *Hypervisor) DumpCore(caller, target DomID) ([]byte, error) {
	if err := h.requirePrivileged(caller); err != nil {
		return nil, err
	}
	d, err := h.Domain(target)
	if err != nil {
		return nil, err
	}
	img := d.snapshotMemory()
	h.mu.Lock()
	hooks := append([]func(DomID, []byte){}, h.dumpHooks...)
	h.mu.Unlock()
	for _, fn := range hooks {
		fn(target, img)
	}
	return img, nil
}

// DomainImage is a saved domain: configuration identity plus a full memory
// snapshot, the unit `xm save` / live migration moves between hosts.
type DomainImage struct {
	Name    string
	Launch  LaunchDigest
	VCPUs   int
	PagesN  int
	Memory  []byte
	SrcHost string
}

// SaveDomain suspends the target and returns its migration image.
func (h *Hypervisor) SaveDomain(caller, target DomID) (*DomainImage, error) {
	if err := h.requirePrivileged(caller); err != nil {
		return nil, err
	}
	d, err := h.Domain(target)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if d.state != StateRunning && d.state != StatePaused {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: dom%d is %v", ErrBadState, target, d.state)
	}
	d.state = StateSuspended
	d.mu.Unlock()
	return &DomainImage{
		Name:   d.name,
		Launch: d.launch,
		VCPUs:  d.vcpus,
		PagesN: len(d.pages),
		Memory: d.snapshotMemory(),
	}, nil
}

// RestoreDomain creates a new domain on this host from a migration image.
// The restored domain keeps its launch measurement — identity travels with
// the image, not with the (host-local) domain ID.
func (h *Hypervisor) RestoreDomain(caller DomID, img *DomainImage) (*Domain, error) {
	if err := h.requirePrivileged(caller); err != nil {
		return nil, err
	}
	h.mu.Lock()
	id := h.nextID
	h.nextID++
	h.nextGen++
	d := newDomain(id, DomainConfig{Name: img.Name, Pages: img.PagesN, VCPUs: img.VCPUs}, h.nextGen)
	d.launch = img.Launch
	h.domains[id] = d
	h.mu.Unlock()
	if err := d.restoreMemory(img.Memory); err != nil {
		h.mu.Lock()
		delete(h.domains, id)
		h.mu.Unlock()
		return nil, err
	}
	return d, nil
}
