package xen

import (
	"errors"
	"fmt"
	"sync"
)

// Grant-table errors.
var (
	ErrBadGrant     = errors.New("xen: bad grant reference")
	ErrGrantDenied  = errors.New("xen: grant does not permit this domain")
	ErrGrantInUse   = errors.New("xen: grant is still mapped")
	ErrGrantRevoked = errors.New("xen: grant has been revoked")
)

// grantEntry is one row of a domain's grant table.
type grantEntry struct {
	peer     DomID
	page     int
	readonly bool
	active   bool
	mapCount int
}

// grantTable tracks the pages a domain has shared with peers, like Xen's
// per-domain grant table.
type grantTable struct {
	owner *Domain
	mu    sync.Mutex
	ents  []grantEntry
	// dead is set once the owner is destroyed. A page a peer still maps
	// then outlives the domain, as a grant-pinned page does on Xen: the
	// last Unmap of it scrubs it.
	dead bool
}

// mappedLocked reports whether any grant of page is mapped. Called with
// gt.mu held.
func (gt *grantTable) mappedLocked(page int) bool {
	for _, e := range gt.ents {
		if e.page == page && e.mapCount > 0 {
			return true
		}
	}
	return false
}

// retire marks the owner destroyed and returns the pages peers still map,
// which stay intact until their last Unmap. Taking the mapped set and
// marking the table dead under one lock hand every page to exactly one
// scrubber: destroy, or the Unmap that drops its last mapping.
func (gt *grantTable) retire() map[int]bool {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	gt.dead = true
	mapped := make(map[int]bool)
	for _, e := range gt.ents {
		if e.mapCount > 0 {
			mapped[e.page] = true
		}
	}
	return mapped
}

func newGrantTable(owner *Domain) *grantTable {
	return &grantTable{owner: owner}
}

// Grant shares one page of the owner's memory with peer and returns the
// grant reference the peer uses to map it.
func (d *Domain) Grant(peer DomID, page int, readonly bool) (GrantRef, error) {
	if _, err := d.Page(page); err != nil {
		return 0, err
	}
	gt := d.grants
	gt.mu.Lock()
	defer gt.mu.Unlock()
	// Reuse a dead slot if one exists, else append.
	for i := range gt.ents {
		if !gt.ents[i].active && gt.ents[i].mapCount == 0 {
			gt.ents[i] = grantEntry{peer: peer, page: page, readonly: readonly, active: true}
			return GrantRef(i), nil
		}
	}
	gt.ents = append(gt.ents, grantEntry{peer: peer, page: page, readonly: readonly, active: true})
	return GrantRef(len(gt.ents) - 1), nil
}

// GrantRun grants n contiguous pages starting at first to peer and returns
// the grant references in page order. Used for multi-page rings.
func (d *Domain) GrantRun(peer DomID, first, n int, readonly bool) ([]GrantRef, error) {
	refs := make([]GrantRef, 0, n)
	for i := 0; i < n; i++ {
		ref, err := d.Grant(peer, first+i, readonly)
		if err != nil {
			for _, r := range refs {
				d.Revoke(r) //nolint:errcheck // best-effort rollback
			}
			return nil, err
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// Revoke deactivates a grant. It fails while the grant is mapped, matching
// the real hypervisor's refusal to yank pages from under a peer.
func (d *Domain) Revoke(ref GrantRef) error {
	gt := d.grants
	gt.mu.Lock()
	defer gt.mu.Unlock()
	if int(ref) >= len(gt.ents) || !gt.ents[ref].active {
		return ErrBadGrant
	}
	if gt.ents[ref].mapCount > 0 {
		return ErrGrantInUse
	}
	gt.ents[ref].active = false
	return nil
}

// GrantMapping is a peer's live mapping of one or more granted pages.
type GrantMapping struct {
	bytes   []byte
	ro      bool
	once    sync.Once
	release func()
}

// Bytes returns the mapped page contents. The slice aliases the granter's
// memory. For read-only grants a defensive copy would defeat the simulation,
// so callers of read-only mappings are trusted not to write, as mapped
// hardware would fault them.
func (m *GrantMapping) Bytes() []byte { return m.bytes }

// ReadOnly reports whether the grant was read-only.
func (m *GrantMapping) ReadOnly() bool { return m.ro }

// Unmap releases the mapping. Safe to call more than once.
func (m *GrantMapping) Unmap() { m.once.Do(m.release) }

// MapGrant maps granter's grant ref into the caller domain. The hypervisor
// validates that the caller is the peer the grant names.
func (h *Hypervisor) MapGrant(caller DomID, granter DomID, ref GrantRef) (*GrantMapping, error) {
	return h.MapGrantRun(caller, granter, []GrantRef{ref})
}

// MapGrantRun maps a run of grants for contiguous pages as one byte slice.
// All refs must target consecutive pages of the granter; this is how the
// multi-page vTPM ring is mapped by the backend.
func (h *Hypervisor) MapGrantRun(caller DomID, granter DomID, refs []GrantRef) (*GrantMapping, error) {
	if len(refs) == 0 {
		return nil, ErrBadGrant
	}
	gd, err := h.Domain(granter)
	if err != nil {
		return nil, err
	}
	gt := gd.grants
	gt.mu.Lock()
	if gt.dead {
		gt.mu.Unlock()
		return nil, fmt.Errorf("%w: dom%d", ErrNoSuchDomain, granter)
	}
	first := -1
	ro := false
	for i, ref := range refs {
		if int(ref) >= len(gt.ents) {
			gt.mu.Unlock()
			return nil, ErrBadGrant
		}
		e := gt.ents[ref]
		if !e.active {
			gt.mu.Unlock()
			return nil, ErrGrantRevoked
		}
		if e.peer != caller {
			gt.mu.Unlock()
			return nil, fmt.Errorf("%w: grant for dom%d, caller dom%d", ErrGrantDenied, e.peer, caller)
		}
		if i == 0 {
			first = e.page
			ro = e.readonly
		} else if e.page != first+i {
			gt.mu.Unlock()
			return nil, fmt.Errorf("%w: refs not contiguous", ErrBadGrant)
		}
	}
	for _, ref := range refs {
		gt.ents[ref].mapCount++
	}
	gt.mu.Unlock()
	run, err := gd.PageRun(first, len(refs))
	if err != nil {
		gt.mu.Lock()
		for _, ref := range refs {
			gt.ents[ref].mapCount--
		}
		gt.mu.Unlock()
		return nil, err
	}
	held := append([]GrantRef(nil), refs...)
	return &GrantMapping{
		bytes: run,
		ro:    ro,
		release: func() {
			var scrub []int
			gt.mu.Lock()
			for _, ref := range held {
				gt.ents[ref].mapCount--
			}
			if gt.dead {
				for _, ref := range held {
					if page := gt.ents[ref].page; !gt.mappedLocked(page) {
						scrub = append(scrub, page)
					}
				}
			}
			gt.mu.Unlock()
			gd.scrubPages(scrub)
		},
	}, nil
}
