// Package xenstore implements the XenStore hierarchical key-value store: the
// control-plane registry Xen's split drivers use to find each other and
// exchange connection parameters (ring grant references, event-channel
// ports, device state).
//
// The implementation follows the real store's semantics where they matter to
// the vTPM subsystem and its attackers:
//
//   - per-node permissions with an owner and per-domain ACL entries, with
//     dom0 always privileged;
//   - copy-on-write transactions with optimistic concurrency (commit fails
//     with ErrConflict if a touched node changed underneath, like EAGAIN);
//   - watches that fire on any mutation at or below a path, including the
//     initial synthetic event on registration.
package xenstore

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"

	"xvtpm/internal/xen"
)

// Store errors.
var (
	ErrNoEnt     = errors.New("xenstore: no such node")
	ErrPerm      = errors.New("xenstore: permission denied")
	ErrConflict  = errors.New("xenstore: transaction conflict")
	ErrBadTxn    = errors.New("xenstore: no such transaction")
	ErrBadPath   = errors.New("xenstore: malformed path")
	ErrNotEmpty  = errors.New("xenstore: node has children")
	ErrWatchGone = errors.New("xenstore: watch cancelled")
	ErrQuota     = errors.New("xenstore: domain over its node quota")
	ErrTooLong   = errors.New("xenstore: value exceeds the size limit")
)

// Limits enforced on unprivileged domains, as real xenstored enforces them
// (a guest that can grow the store without bound can take down the whole
// host's control plane). Dom0 is exempt.
const (
	// DefaultNodeQuota is the number of nodes one unprivileged domain may
	// own.
	DefaultNodeQuota = 256
	// MaxValueSize is the largest value one node may hold.
	MaxValueSize = 2048
)

// PermBits is a node access mask.
type PermBits uint8

// Permission bits.
const (
	PermNone  PermBits = 0
	PermRead  PermBits = 1 << 0
	PermWrite PermBits = 1 << 1
	PermBoth           = PermRead | PermWrite
)

// Perms is a node's access policy: the owning domain (full access), the
// default for everyone else, and per-domain overrides.
type Perms struct {
	Owner   xen.DomID
	Default PermBits
	ACL     map[xen.DomID]PermBits
}

func (p Perms) clone() Perms {
	q := Perms{Owner: p.Owner, Default: p.Default}
	if len(p.ACL) > 0 {
		q.ACL = make(map[xen.DomID]PermBits, len(p.ACL))
		for k, v := range p.ACL {
			q.ACL[k] = v
		}
	}
	return q
}

// allows reports whether dom holds all bits in want.
func (p Perms) allows(dom xen.DomID, want PermBits) bool {
	if dom == xen.Dom0 || dom == p.Owner {
		return true
	}
	bits := p.Default
	if b, ok := p.ACL[dom]; ok {
		bits = b
	}
	return bits&want == want
}

// node is one tree entry.
type node struct {
	value    []byte
	children map[string]*node
	perms    Perms
	gen      uint64 // store generation of last mutation
	// txn is the transaction this node is a private copy in, or NoTxn for a
	// live node. Only that transaction mutates it, and it is never reachable
	// from the live root.
	txn TxnID
}

// copyFor returns n's private copy for transaction id. The copy shares n's
// value and perms, which every mutation replaces wholesale and never edits
// in place, and n's children; it gets its own child map, so the transaction
// can add, replace and drop names without the live tree seeing it.
func (n *node) copyFor(id TxnID) *node {
	return &node{value: n.value, children: maps.Clone(n.children), perms: n.perms, gen: n.gen, txn: id}
}

// Store is one host's XenStore.
type Store struct {
	mu      sync.Mutex
	root    *node
	gen     uint64
	txns    map[TxnID]*txn
	nextTxn TxnID
	watches map[*Watch]struct{}
	// owned tracks live nodes per owning domain incrementally, so quota
	// checks stay O(1) instead of walking the whole tree on every write —
	// at fleet scale (thousands of guest domains, each with its own
	// handshake nodes) the walk was quadratic across a mass creation.
	owned     map[xen.DomID]int
	nodeQuota int
}

// TxnID names an open transaction.
type TxnID uint32

// NoTxn is the TxnID meaning "operate directly on the store".
const NoTxn TxnID = 0

// txn is an open transaction: a copy-on-write view of the live tree, the
// set of paths it touched (reads and writes alike, for conflict detection at
// commit), and the ordered log of its mutations.
//
// The view starts as the live root itself. The first Write, Remove or
// SetPerms on a path copies only the nodes along that path, and later
// operations reuse those copies; a copied node's child set is the
// transaction's own from then on. Below any node the transaction has not
// copied, the view is the live tree, so a read can return a value written
// after TxnStart. Such a read cannot commit: every read path is in touched,
// and commit refuses a touched node whose generation moved past baseGen.
//
// Commit replays the log onto the live tree rather than swapping trees, so
// nodes created concurrently on paths the transaction never touched
// survive — the real store's semantics, and the property mass guest
// creation depends on. The copies die with the transaction; none is ever
// reachable from the live root.
type txn struct {
	id      TxnID
	owner   xen.DomID
	root    *node // the live root until the first mutation copies it
	baseGen uint64
	touched map[string]struct{}
	ops     []txnOp
	// ownedSeen carries per-domain owned-node counts as this transaction's
	// view evolves, seeded lazily from the store's live counters; it keeps
	// in-transaction quota checks O(1).
	ownedSeen map[xen.DomID]int
}

// txnOp is one recorded mutation, validated against the transaction's view
// when it was issued. caller is the domain that issued it (node creations
// replay under its ownership).
type txnOp struct {
	kind   opKind
	caller xen.DomID
	path   string
	parts  []string
	value  []byte
	perms  Perms
}

type opKind int

const (
	opWrite opKind = iota
	opRemove
	opSetPerms
)

// New creates an empty store whose root is owned by dom0 and world-readable,
// as on a real host.
func New() *Store {
	return &Store{
		root: &node{
			children: make(map[string]*node),
			perms:    Perms{Owner: xen.Dom0, Default: PermRead},
		},
		txns:      make(map[TxnID]*txn),
		watches:   make(map[*Watch]struct{}),
		owned:     map[xen.DomID]int{xen.Dom0: 1}, // the root
		nodeQuota: DefaultNodeQuota,
	}
}

// SetNodeQuota adjusts the per-domain node quota (0 disables enforcement).
func (s *Store) SetNodeQuota(n int) {
	s.mu.Lock()
	s.nodeQuota = n
	s.mu.Unlock()
}

// adjustOwned walks a subtree adding delta to each node's owner counter in
// the given counter map.
func adjustOwned(counts map[xen.DomID]int, n *node, delta int) {
	counts[n.perms.Owner] += delta
	for _, c := range n.children {
		adjustOwned(counts, c, delta)
	}
}

// txnOwnedAdjust mirrors adjustOwned onto a transaction's lazily-seeded
// view of the counters.
func (s *Store) txnOwnedAdjust(t *txn, n *node, delta int) {
	o := n.perms.Owner
	if _, ok := t.ownedSeen[o]; !ok {
		t.ownedSeen[o] = s.owned[o]
	}
	t.ownedSeen[o] += delta
	for _, c := range n.children {
		s.txnOwnedAdjust(t, c, delta)
	}
}

// OwnedNodes reports how many nodes a domain currently owns (live tree).
func (s *Store) OwnedNodes(dom xen.DomID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.owned[dom]
}

// split validates a path and returns its components. The root is "/".
func split(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	if path == "/" {
		return nil, nil
	}
	parts := strings.Split(strings.Trim(path, "/"), "/")
	for _, p := range parts {
		if p == "" || p == "." || p == ".." {
			return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
		}
	}
	return parts, nil
}

// lookup walks to a node, returning also its parent for removal.
func lookup(root *node, parts []string) (parent, n *node, err error) {
	n = root
	for _, p := range parts {
		parent = n
		child, ok := n.children[p]
		if !ok {
			return nil, nil, ErrNoEnt
		}
		n = child
	}
	return parent, n, nil
}

func (s *Store) treeFor(id TxnID) (*node, *txn, error) {
	if id == NoTxn {
		return s.root, nil, nil
	}
	t, ok := s.txns[id]
	if !ok {
		return nil, nil, ErrBadTxn
	}
	return t.root, t, nil
}

// privatePath returns t's own copy of the node at parts, copying each node
// along the path that t does not own yet. Every node on the path must exist.
func (t *txn) privatePath(parts []string) *node {
	n := t.privateRoot()
	for _, p := range parts {
		n = t.private(n, p)
	}
	return n
}

// privateRoot returns t's own copy of the root, copying the live root on
// the transaction's first mutation.
func (t *txn) privateRoot() *node {
	if t.root.txn != t.id {
		t.root = t.root.copyFor(t.id)
	}
	return t.root
}

// private returns t's own copy of parent's existing child name, where
// parent is t's own already: a child still shared with the live tree is
// copied and the copy takes its place in parent.
func (t *txn) private(parent *node, name string) *node {
	c := parent.children[name]
	if c.txn != t.id {
		c = c.copyFor(t.id)
		parent.children[name] = c
	}
	return c
}

// Read returns a node's value.
func (s *Store) Read(caller xen.DomID, id TxnID, path string) ([]byte, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	root, t, err := s.treeFor(id)
	if err != nil {
		return nil, err
	}
	_, n, err := lookup(root, parts)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, path)
	}
	if !n.perms.allows(caller, PermRead) {
		return nil, fmt.Errorf("%w: dom%d read %s", ErrPerm, caller, path)
	}
	if t != nil {
		t.touched[path] = struct{}{}
	}
	return append([]byte(nil), n.value...), nil
}

// List returns a node's child names, sorted.
func (s *Store) List(caller xen.DomID, id TxnID, path string) ([]string, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	root, t, err := s.treeFor(id)
	if err != nil {
		return nil, err
	}
	_, n, err := lookup(root, parts)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, path)
	}
	if !n.perms.allows(caller, PermRead) {
		return nil, fmt.Errorf("%w: dom%d list %s", ErrPerm, caller, path)
	}
	if t != nil {
		t.touched[path] = struct{}{}
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Write sets a node's value, creating the node (and intermediate nodes) if
// absent. Created nodes inherit the parent's permissions with the caller as
// owner, like the real store.
func (s *Store) Write(caller xen.DomID, id TxnID, path string, value []byte) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot write root", ErrBadPath)
	}
	if caller != xen.Dom0 && len(value) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLong, len(value))
	}
	s.mu.Lock()
	root, t, err := s.treeFor(id)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	// Walk the part of the path that exists; the rest gets created.
	n, have := root, 0
	for ; have < len(parts); have++ {
		child, ok := n.children[parts[have]]
		if !ok {
			break
		}
		n = child
	}
	missing := len(parts) - have
	if !n.perms.allows(caller, PermWrite) {
		s.mu.Unlock()
		if missing == 0 {
			return fmt.Errorf("%w: dom%d write %s", ErrPerm, caller, path)
		}
		return fmt.Errorf("%w: dom%d create under %s", ErrPerm, caller, "/"+strings.Join(parts[:have], "/"))
	}
	// Quota check for unprivileged creators, O(1) against the incremental
	// counters (the transaction's lazily-seeded view when inside one). It
	// covers every node the write creates before it creates any, so a
	// refused write leaves no partial path behind.
	if missing > 0 && caller != xen.Dom0 && s.nodeQuota > 0 {
		cnt := s.owned[caller]
		if t != nil {
			if seen, ok := t.ownedSeen[caller]; ok {
				cnt = seen
			}
		}
		if cnt+missing > s.nodeQuota {
			s.mu.Unlock()
			return fmt.Errorf("%w: dom%d at %d nodes", ErrQuota, caller, cnt)
		}
	}
	var tag TxnID
	if t != nil {
		n, tag = t.privatePath(parts[:have]), t.id
	} else {
		s.gen++
	}
	// Each created node carries the write's generation, intermediate ones
	// included: a transaction that reads one through the live tree must
	// conflict at commit.
	createdParent := n
	for _, p := range parts[have:] {
		child := &node{
			children: make(map[string]*node),
			perms:    Perms{Owner: caller, Default: n.perms.Default},
			gen:      s.gen,
			txn:      tag,
		}
		if n.children == nil {
			n.children = make(map[string]*node)
		}
		n.children[p] = child
		n = child
	}
	// Values are replaced wholesale and never edited in place, so the node
	// and a transaction's op log can share one copy.
	n.value = append([]byte(nil), value...)
	if t != nil {
		if missing > 0 {
			if _, ok := t.ownedSeen[caller]; !ok {
				t.ownedSeen[caller] = s.owned[caller]
			}
			t.ownedSeen[caller] += missing
		}
		t.touched[path] = struct{}{}
		t.ops = append(t.ops, txnOp{kind: opWrite, caller: caller, path: path, parts: parts, value: n.value})
		s.mu.Unlock()
		return nil
	}
	if missing > 0 {
		s.owned[caller] += missing
	}
	// A write modifies the written node; creating it also modifies the
	// deepest pre-existing ancestor (its child set changed) — per-node
	// granularity, like real xenstored, so unrelated subtrees never
	// conflict with each other's transactions.
	n.gen = s.gen
	if missing > 0 {
		createdParent.gen = s.gen
	}
	s.fireLocked(path)
	s.mu.Unlock()
	return nil
}

// Remove deletes a node and its subtree. Only the owner or dom0 may remove.
func (s *Store) Remove(caller xen.DomID, id TxnID, path string) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot remove root", ErrBadPath)
	}
	s.mu.Lock()
	root, t, err := s.treeFor(id)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	parent, n, err := lookup(root, parts)
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", err, path)
	}
	if caller != xen.Dom0 && caller != n.perms.Owner {
		s.mu.Unlock()
		return fmt.Errorf("%w: dom%d remove %s", ErrPerm, caller, path)
	}
	if t != nil {
		parent = t.privatePath(parts[:len(parts)-1])
	}
	delete(parent.children, parts[len(parts)-1])
	if t != nil {
		s.txnOwnedAdjust(t, n, -1)
		t.touched[path] = struct{}{}
		t.ops = append(t.ops, txnOp{kind: opRemove, caller: caller, path: path, parts: parts})
		s.mu.Unlock()
		return nil
	}
	adjustOwned(s.owned, n, -1)
	s.gen++
	parent.gen = s.gen // the parent's child set changed
	s.fireLocked(path)
	s.mu.Unlock()
	return nil
}

// GetPerms returns a node's access policy.
func (s *Store) GetPerms(caller xen.DomID, id TxnID, path string) (Perms, error) {
	parts, err := split(path)
	if err != nil {
		return Perms{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	root, t, err := s.treeFor(id)
	if err != nil {
		return Perms{}, err
	}
	_, n, err := lookup(root, parts)
	if err != nil {
		return Perms{}, fmt.Errorf("%w: %s", err, path)
	}
	if !n.perms.allows(caller, PermRead) {
		return Perms{}, fmt.Errorf("%w: dom%d getperms %s", ErrPerm, caller, path)
	}
	if t != nil {
		t.touched[path] = struct{}{}
	}
	return n.perms.clone(), nil
}

// SetPerms replaces a node's access policy. Only the owner or dom0 may.
func (s *Store) SetPerms(caller xen.DomID, id TxnID, path string, perms Perms) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	root, t, err := s.treeFor(id)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	_, n, err := lookup(root, parts)
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", err, path)
	}
	if caller != xen.Dom0 && caller != n.perms.Owner {
		s.mu.Unlock()
		return fmt.Errorf("%w: dom%d setperms %s", ErrPerm, caller, path)
	}
	if t != nil {
		n = t.privatePath(parts)
	}
	prevOwner := n.perms.Owner
	n.perms = perms.clone()
	if t != nil {
		if prevOwner != perms.Owner {
			if _, ok := t.ownedSeen[prevOwner]; !ok {
				t.ownedSeen[prevOwner] = s.owned[prevOwner]
			}
			if _, ok := t.ownedSeen[perms.Owner]; !ok {
				t.ownedSeen[perms.Owner] = s.owned[perms.Owner]
			}
			t.ownedSeen[prevOwner]--
			t.ownedSeen[perms.Owner]++
		}
		t.touched[path] = struct{}{}
		t.ops = append(t.ops, txnOp{kind: opSetPerms, caller: caller, path: path, parts: parts, perms: perms.clone()})
		s.mu.Unlock()
		return nil
	}
	if prevOwner != perms.Owner {
		s.owned[prevOwner]--
		s.owned[perms.Owner]++
	}
	s.gen++
	n.gen = s.gen
	s.fireLocked(path)
	s.mu.Unlock()
	return nil
}

// Exists reports whether a node exists and is visible to the caller.
func (s *Store) Exists(caller xen.DomID, id TxnID, path string) bool {
	_, err := s.Read(caller, id, path)
	return err == nil || errors.Is(err, ErrPerm)
}
