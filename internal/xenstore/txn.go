package xenstore

import (
	"errors"
	"fmt"

	"xvtpm/internal/xen"
)

// TxnStart opens a transaction in O(1): a copy-on-write view of the live
// tree, not a private snapshot. The transaction's own mutations stay
// invisible outside it until commit, and each copies only the nodes on its
// path. Reads in the transaction walk that view; below any node it has not
// copied, they read the live tree, values written after TxnStart included.
// The commit guarantee is unchanged: every path a transaction reads or
// writes is checked at commit, and a commit succeeds only if none of those
// nodes changed since TxnStart, so a committed transaction read only values
// that were current when it began.
func (s *Store) TxnStart(caller xen.DomID) TxnID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextTxn++
	id := s.nextTxn
	s.txns[id] = &txn{
		id:        id,
		owner:     caller,
		root:      s.root,
		baseGen:   s.gen,
		touched:   make(map[string]struct{}),
		ownedSeen: make(map[xen.DomID]int),
	}
	return id
}

// TxnAbort discards a transaction.
func (s *Store) TxnAbort(caller xen.DomID, id TxnID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[id]
	if !ok {
		return ErrBadTxn
	}
	if t.owner != caller && caller != xen.Dom0 {
		return fmt.Errorf("%w: dom%d abort txn of dom%d", ErrPerm, caller, t.owner)
	}
	delete(s.txns, id)
	return nil
}

// TxnCommit atomically applies a transaction. It fails with ErrConflict if
// any node the transaction read or wrote was modified in the store since the
// transaction began — the caller then retries, as with EAGAIN on real
// XenStore.
func (s *Store) TxnCommit(caller xen.DomID, id TxnID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[id]
	if !ok {
		return ErrBadTxn
	}
	if t.owner != caller && caller != xen.Dom0 {
		return fmt.Errorf("%w: dom%d commit txn of dom%d", ErrPerm, caller, t.owner)
	}
	delete(s.txns, id)
	// Conflict check: every touched path must be unchanged in the live tree
	// since baseGen, at per-node granularity — a node counts as changed when
	// its value, perms, or direct child set changed (creations and removals
	// stamp the parent). Writes in unrelated subtrees never conflict.
	for path := range t.touched {
		if s.pathChanged(path, t.baseGen) {
			return fmt.Errorf("%w: %s", ErrConflict, path)
		}
	}
	// Replay the transaction's mutations onto the live tree. Grafting the
	// transaction's view in wholesale would silently drop every node created
	// concurrently on paths this transaction never looked at — a lost update
	// the conflict check above cannot see. The ops were permission-checked
	// against the view when issued, and the conflict check just proved
	// the paths they touch are unchanged, so replay applies them directly;
	// quota is re-validated in a dry pass first so a failure leaves the live
	// tree untouched.
	if err := s.replayQuotaLocked(t); err != nil {
		return err
	}
	s.gen++
	for _, op := range t.ops {
		s.replayLocked(op)
	}
	for _, op := range t.ops {
		s.fireLocked(op.path)
	}
	return nil
}

// replayQuotaLocked dry-runs a transaction's writes against the live tree,
// counting the nodes each unprivileged domain would create, and rejects the
// commit if any would exceed the quota.
func (s *Store) replayQuotaLocked(t *txn) error {
	if s.nodeQuota <= 0 {
		return nil
	}
	needed := make(map[xen.DomID]int)
	virtual := make(map[string]struct{})
	for _, op := range t.ops {
		if op.kind != opWrite || op.caller == xen.Dom0 {
			continue
		}
		n := s.root
		missing := false
		prefix := ""
		for _, p := range op.parts {
			prefix += "/" + p
			if !missing {
				if child, ok := n.children[p]; ok {
					n = child
					continue
				}
				missing = true
			}
			if _, ok := virtual[prefix]; !ok {
				virtual[prefix] = struct{}{}
				needed[op.caller]++
			}
		}
	}
	for dom, k := range needed {
		if s.owned[dom]+k > s.nodeQuota {
			return fmt.Errorf("%w: dom%d at %d nodes", ErrQuota, dom, s.owned[dom])
		}
	}
	return nil
}

// replayLocked applies one recorded transaction op to the live tree,
// stamping the current store generation and the owned-node counters like the
// non-transactional paths do. Permission and quota checks already happened —
// at record time against the transaction's view, and in the commit's dry
// quota pass against the live tree — so replay cannot fail.
func (s *Store) replayLocked(op txnOp) {
	switch op.kind {
	case opWrite:
		n := s.root
		var createdParent *node
		for _, p := range op.parts {
			child, ok := n.children[p]
			if !ok {
				child = &node{
					children: make(map[string]*node),
					perms:    Perms{Owner: op.caller, Default: n.perms.Default},
					gen:      s.gen,
				}
				if n.children == nil {
					n.children = make(map[string]*node)
				}
				n.children[p] = child
				s.owned[op.caller]++
				if createdParent == nil {
					createdParent = n
				}
			}
			n = child
		}
		n.value = append([]byte(nil), op.value...)
		n.gen = s.gen
		if createdParent != nil {
			createdParent.gen = s.gen
		}
	case opRemove:
		parent, n, err := lookup(s.root, op.parts)
		if err == nil {
			adjustOwned(s.owned, n, -1)
			delete(parent.children, op.parts[len(op.parts)-1])
			parent.gen = s.gen
		}
	case opSetPerms:
		if _, n, err := lookup(s.root, op.parts); err == nil {
			if n.perms.Owner != op.perms.Owner {
				s.owned[n.perms.Owner]--
				s.owned[op.perms.Owner]++
			}
			n.perms = op.perms.clone()
			n.gen = s.gen
		}
	}
}

// pathChanged reports whether the node a path names changed in the live
// tree since baseGen. If the path walks off the tree, the verdict is the
// deepest existing node's: its child-set generation covers the name having
// been created or removed underneath it since; siblings deeper down, and
// every unrelated subtree, stay invisible.
func (s *Store) pathChanged(path string, baseGen uint64) bool {
	parts, err := split(path)
	if err != nil {
		return true
	}
	n := s.root
	for _, p := range parts {
		child, ok := n.children[p]
		if !ok {
			return n.gen > baseGen
		}
		n = child
	}
	return n.gen > baseGen
}

// WithTxn runs fn inside a transaction, retrying on ErrConflict up to
// maxRetries times. It is the idiom drivers use for multi-key handshakes.
func (s *Store) WithTxn(caller xen.DomID, maxRetries int, fn func(id TxnID) error) error {
	for attempt := 0; ; attempt++ {
		id := s.TxnStart(caller)
		if err := fn(id); err != nil {
			s.TxnAbort(caller, id) //nolint:errcheck // best-effort cleanup
			return err
		}
		err := s.TxnCommit(caller, id)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrConflict) || attempt >= maxRetries {
			return err
		}
	}
}
