package xen

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by domain and hypervisor operations.
var (
	ErrNoSuchDomain  = errors.New("xen: no such domain")
	ErrBadState      = errors.New("xen: operation invalid in current domain state")
	ErrNotPrivileged = errors.New("xen: caller is not privileged")
	ErrOutOfMemory   = errors.New("xen: domain out of memory pages")
	ErrBadPage       = errors.New("xen: page index out of range")
)

// Domain is one virtual machine instance. All mutable state is guarded by mu;
// memory page contents are raw shared byte slices and follow the grant-table
// discipline instead (concurrent mapped access is exactly what shared rings
// do on real hardware).
type Domain struct {
	id     DomID
	name   string
	launch LaunchDigest
	vcpus  int

	mu        sync.Mutex
	state     DomainState
	slab      []byte // one contiguous arena; pages view into it
	pages     [][]byte
	nextAlloc int // next never-allocated page (bump allocator)
	grants    *grantTable
	cpuNanos  int64 // accumulated simulated CPU time
	genID     uint64

	// bus serializes raw writes into this domain's pages against
	// whole-memory observers of this domain only (see MemBus).
	bus MemBus
}

// MemBus returns the domain's memory bus. Writers into the domain's pages
// (rings, arena buffer holders) bracket their mutations with it so dumps of
// this domain — and only this domain — see untorn writes.
func (d *Domain) MemBus() *MemBus { return &d.bus }

// ID returns the domain's ID on its host.
func (d *Domain) ID() DomID { return d.id }

// Name returns the domain's configured name.
func (d *Domain) Name() string { return d.name }

// Launch returns the domain's boot measurement.
func (d *Domain) Launch() LaunchDigest { return d.launch }

// VCPUs returns the domain's virtual CPU count.
func (d *Domain) VCPUs() int { return d.vcpus }

// State returns the domain's lifecycle state.
func (d *Domain) State() DomainState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Pages returns the number of memory pages the domain owns.
func (d *Domain) Pages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// AllocPages reserves n contiguous never-before-allocated pages and returns
// the index of the first one. Components running "inside" the domain use this
// to place rings and working buffers in dumpable memory.
func (d *Domain) AllocPages(n int) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == StateDestroyed {
		return 0, ErrBadState
	}
	if d.nextAlloc+n > len(d.pages) {
		return 0, fmt.Errorf("%w: want %d pages, %d free", ErrOutOfMemory, n, len(d.pages)-d.nextAlloc)
	}
	first := d.nextAlloc
	d.nextAlloc += n
	return first, nil
}

// Page returns the backing bytes of one page. The slice aliases domain
// memory: writes through it are visible to dumps and to grant mappings.
func (d *Domain) Page(idx int) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if idx < 0 || idx >= len(d.pages) {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadPage, idx, len(d.pages))
	}
	return d.pages[idx], nil
}

// PageRun returns a single contiguous byte slice spanning pages
// [first, first+n). The underlying pages were allocated contiguously by the
// simulator, so the run aliases domain memory just like Page does.
func (d *Domain) PageRun(first, n int) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if first < 0 || n <= 0 || first+n > len(d.pages) {
		return nil, fmt.Errorf("%w: run [%d,%d) of %d", ErrBadPage, first, first+n, len(d.pages))
	}
	// Pages are carved from one arena slab at creation, so adjacent pages
	// are adjacent in memory and a run is just a wider view of the slab.
	return d.slab[first*PageSize : (first+n)*PageSize : (first+n)*PageSize], nil
}

// CPUNanos returns the accumulated simulated CPU time.
func (d *Domain) CPUNanos() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cpuNanos
}

// ChargeCPU accounts simulated CPU time to the domain.
func (d *Domain) ChargeCPU(nanos int64) {
	d.mu.Lock()
	d.cpuNanos += nanos
	d.mu.Unlock()
}

// newDomain creates a domain with a contiguous page arena so PageRun can hand
// out multi-page spans.
func newDomain(id DomID, cfg DomainConfig, genID uint64) *Domain {
	pagesN := cfg.Pages
	if pagesN <= 0 {
		pagesN = DefaultPages
	}
	vcpus := cfg.VCPUs
	if vcpus <= 0 {
		vcpus = 1
	}
	slab := make([]byte, pagesN*PageSize)
	pages := make([][]byte, pagesN)
	for i := range pages {
		pages[i] = slab[i*PageSize : (i+1)*PageSize : (i+1)*PageSize]
	}
	d := &Domain{
		id:     id,
		name:   cfg.Name,
		launch: MeasureLaunch(cfg.Kernel, cfg.Initrd, cfg.Cmdline),
		vcpus:  vcpus,
		state:  StateRunning,
		slab:   slab,
		pages:  pages,
		genID:  genID,
	}
	d.grants = newGrantTable(d)
	return d
}

// snapshotMemory copies all page contents (used by dump-core and
// save/restore). It holds the domain's memory bus exclusively so concurrent
// ring and manager writes into this domain cannot race the copy; writes into
// other domains proceed untouched.
func (d *Domain) snapshotMemory() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bus.beginSnapshot()
	defer d.bus.endSnapshot()
	out := make([]byte, len(d.pages)*PageSize)
	for i, p := range d.pages {
		copy(out[i*PageSize:], p)
	}
	return out
}

// scrubPages zeroes the given pages of a destroyed domain once no peer maps
// them any more. The page table is fixed at creation, so no domain lock is
// needed; the bus keeps the scrub whole for concurrent observers.
func (d *Domain) scrubPages(pages []int) {
	if len(pages) == 0 {
		return
	}
	d.bus.beginSnapshot()
	for _, i := range pages {
		clear(d.pages[i])
	}
	d.bus.endSnapshot()
}

// restoreMemory overwrites page contents from a snapshot.
func (d *Domain) restoreMemory(img []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(img) != len(d.pages)*PageSize {
		return fmt.Errorf("xen: memory image is %d bytes, domain has %d", len(img), len(d.pages)*PageSize)
	}
	d.bus.beginSnapshot()
	defer d.bus.endSnapshot()
	for i, p := range d.pages {
		copy(p, img[i*PageSize:(i+1)*PageSize])
	}
	return nil
}
