package xenstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"xvtpm/internal/xen"
)

// guestShapedStore builds a host's store holding the given number of guest
// directories shaped like the split-driver handshake leaves them: 17 nodes
// under /local/domain/<d> (name and a frontend directory with nine ring
// references) and 3 under the backend's /local/domain/0/backend/vtpm/<d>, so
// 20 per guest.
func guestShapedStore(tb testing.TB, guests int) *Store {
	tb.Helper()
	s := New()
	write := func(caller xen.DomID, path, value string) {
		if err := s.Write(caller, NoTxn, path, []byte(value)); err != nil {
			tb.Fatal(err)
		}
	}
	for g := 1; g <= guests; g++ {
		dom := xen.DomID(g)
		base := fmt.Sprintf("/local/domain/%d", g)
		write(xen.Dom0, base+"/name", "guest")
		if err := s.SetPerms(xen.Dom0, NoTxn, base, Perms{Owner: dom}); err != nil {
			tb.Fatal(err)
		}
		front := base + "/device/vtpm/0"
		write(dom, front+"/ring-ref-count", "9")
		for i := 0; i < 9; i++ {
			write(dom, fmt.Sprintf("%s/ring-ref-%d", front, i), "8")
		}
		write(dom, front+"/event-channel", "3")
		write(dom, front+"/state", "3")
		write(xen.Dom0, fmt.Sprintf("/local/domain/0/backend/vtpm/%d/0/state", g), "4")
	}
	return s
}

// Opening a transaction shares the live root, so its cost does not depend
// on what the store holds.
func TestTxnStartAllocsIndependentOfTreeSize(t *testing.T) {
	allocs := func(guests int) float64 {
		s := guestShapedStore(t, guests)
		return testing.AllocsPerRun(100, func() {
			id := s.TxnStart(dom0)
			if err := s.TxnAbort(dom0, id); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(5000)
	t.Logf("TxnStart+TxnAbort allocs: %v on 64 guests, %v on 5000", small, large)
	if large != small {
		t.Fatalf("TxnStart+TxnAbort: %v allocs on 5000 guests, %v on 64", large, small)
	}
}

// A one-key transaction copies only the nodes on its path. The 5,000-guest
// tree pays more only where a copied node has more children — the copy of
// /local/domain's child map — never per node of the tree.
func TestOneKeyTxnCopiesOnlyItsPath(t *testing.T) {
	const key = "/local/domain/1/device/vtpm/0/state"
	allocs := func(guests int) float64 {
		s := guestShapedStore(t, guests)
		return testing.AllocsPerRun(50, func() {
			err := s.WithTxn(1, 0, func(id TxnID) error {
				return s.Write(1, id, key, []byte("4"))
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	// Copying a 5,001-entry child map instead of a 65-entry one costs a few
	// dozen allocations; a whole-tree copy would cost about 3 per node.
	const perPathSlack = 32
	small, large := allocs(64), allocs(5000)
	t.Logf("one-key transaction allocs: %v on 64 guests, %v on 5000", small, large)
	if large > small+perPathSlack {
		t.Fatalf("one-key transaction: %v allocs on 5000 guests, %v on 64 (slack %d)", large, small, perPathSlack)
	}
}

// Below the nodes it has copied, a transaction reads the live tree, so it can
// see a value written after TxnStart — and such a transaction cannot commit.
func TestTxnReadSeesLiveWriteAndConflicts(t *testing.T) {
	s := New()
	if err := s.Write(dom0, noTxn, "/dev/state", []byte("1")); err != nil {
		t.Fatal(err)
	}
	tx := s.TxnStart(dom0)
	if err := s.Write(dom0, noTxn, "/dev/state", []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read(dom0, tx, "/dev/state")
	if err != nil || string(v) != "2" {
		t.Fatalf("read in transaction = %q, %v; want the live value %q", v, err, "2")
	}
	if err := s.Write(dom0, tx, "/dev/other", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.TxnCommit(dom0, tx); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit err = %v, want ErrConflict", err)
	}
	if s.Exists(dom0, noTxn, "/dev/other") {
		t.Fatal("conflicted commit applied its write")
	}
}

// A node created after TxnStart carries a generation past the transaction's
// base — an intermediate node too, whether a direct write or another
// transaction's commit created it — so reading it through the live tree
// fails the commit.
func TestTxnReadOfNodeCreatedAfterStartConflicts(t *testing.T) {
	for _, viaTxn := range []bool{false, true} {
		s := New()
		for _, p := range []string{"/base", "/mine"} {
			if err := s.Write(dom0, noTxn, p, nil); err != nil {
				t.Fatal(err)
			}
		}
		tx := s.TxnStart(dom0)
		create := func(id TxnID) error { return s.Write(dom0, id, "/base/new/dir/key", []byte("v")) }
		var err error
		if viaTxn {
			err = s.WithTxn(dom0, 0, create)
		} else {
			err = create(noTxn)
		}
		if err != nil {
			t.Fatal(err)
		}
		if names, err := s.List(dom0, tx, "/base/new/dir"); err != nil || len(names) != 1 {
			t.Fatalf("list in transaction = %v, %v", names, err)
		}
		if err := s.Write(dom0, tx, "/mine", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := s.TxnCommit(dom0, tx); !errors.Is(err, ErrConflict) {
			t.Fatalf("created by a transaction %v: commit err = %v, want ErrConflict", viaTxn, err)
		}
	}
}

// A write the quota refuses creates nothing: a leftover intermediate node
// would carry no generation stamp, so a transaction could read it without
// conflicting at commit.
func TestQuotaRefusedWriteLeavesNoPartialPath(t *testing.T) {
	s := New()
	s.SetNodeQuota(3)
	base := guestRoot(t, s, domA) // domA owns 1 node
	if err := s.Write(domA, noTxn, base+"/x/y/z", []byte("v")); !errors.Is(err, ErrQuota) {
		t.Fatalf("three-node write with room for two: err = %v, want ErrQuota", err)
	}
	if s.Exists(dom0, noTxn, base+"/x") {
		t.Fatal("refused write left a partial path")
	}
	if got := s.OwnedNodes(domA); got != 1 {
		t.Fatalf("domA owns %d nodes after a refused write, want 1", got)
	}
	if err := s.Write(domA, noTxn, base+"/x/y", []byte("v")); err != nil {
		t.Fatalf("two-node write with room for two: %v", err)
	}
}

// txnPaths is the path alphabet of the randomized transaction tests: every
// path over {a, b} up to three levels deep, so operations keep landing on
// each other's parents and children.
var txnPaths = func() []string {
	var out []string
	var walk func(prefix string, depth int)
	walk = func(prefix string, depth int) {
		for _, c := range []string{"a", "b"} {
			p := prefix + "/" + c
			out = append(out, p)
			if depth < 3 {
				walk(p, depth+1)
			}
		}
	}
	walk("", 1)
	return out
}()

var txnCallers = []xen.DomID{dom0, domA, domB}

func txnPerms(b byte) Perms {
	p := Perms{Owner: txnCallers[int(b)%len(txnCallers)], Default: PermBits(b>>2) & PermBoth}
	if b&0x10 != 0 {
		p.ACL = map[xen.DomID]PermBits{domA: PermBoth}
	}
	return p
}

// applyTxnOp issues one decoded operation and returns what it read.
func applyTxnOp(s *Store, id TxnID, kind byte, caller xen.DomID, path string, arg byte) (string, error) {
	switch kind {
	case 0:
		return "", s.Write(caller, id, path, bytes.Repeat([]byte{arg}, int(arg%3)))
	case 1:
		return "", s.Remove(caller, id, path)
	case 2:
		return "", s.SetPerms(caller, id, path, txnPerms(arg))
	case 3:
		if arg&1 == 0 {
			v, err := s.Read(caller, id, path)
			return string(v), err
		}
		p, err := s.GetPerms(caller, id, path)
		return fmt.Sprint(p), err
	default:
		names, err := s.List(caller, id, path)
		return strings.Join(names, ","), err
	}
}

// deepCopy copies a tree exactly, generations included.
func deepCopy(n *node) *node {
	c := *n
	if n.children != nil {
		c.children = make(map[string]*node, len(n.children))
		for name, ch := range n.children {
			c.children[name] = deepCopy(ch)
		}
	}
	return &c
}

// sameContent compares what two trees hold — names, values, perms — and
// ignores generations and copy tags.
func sameContent(a, b *node) bool {
	if !bytes.Equal(a.value, b.value) || !reflect.DeepEqual(a.perms, b.perms) || len(a.children) != len(b.children) {
		return false
	}
	for name, ca := range a.children {
		cb, ok := b.children[name]
		if !ok || !sameContent(ca, cb) {
			return false
		}
	}
	return true
}

func nonZero(m map[xen.DomID]int) map[xen.DomID]int {
	out := make(map[xen.DomID]int)
	for k, v := range m {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

// storeAt wraps a copy of a tree in a store of its own, with the owner counts
// recounted, so operations can run against it directly.
func storeAt(root *node, quota int) *Store {
	s := New()
	s.root = deepCopy(root)
	s.owned = make(map[xen.DomID]int)
	adjustOwned(s.owned, s.root, 1)
	s.nodeQuota = quota
	return s
}

// txnSlot is one open transaction of the randomized driver.
type txnSlot struct {
	id    TxnID
	owner xen.DomID
	start *node // the live tree at TxnStart
	// shadow is start plus this transaction's operations, issued directly:
	// what a private snapshot would show. The copy-on-write view must match
	// it until the live tree changes after TxnStart, which sets diverged.
	shadow   *Store
	diverged bool
	// reads are the reads issued before the transaction's first mutation,
	// replayed against start if it commits.
	reads []txnRead
}

type txnRead struct {
	kind, arg byte
	caller    xen.DomID
	path      string
	got       string
}

// runTxnOps decodes an operation sequence from data, three bytes a step, and
// interleaves live Write/Remove/SetPerms/Read/List calls with the same
// calls inside up to three open transactions, each committed or aborted at
// random. After every step it checks that
//   - the live tree deep-equals a reference store that sees only the live
//     operations and the op logs of committed transactions, and carries no
//     transaction's copy;
//   - the store's owned-node counters equal a recount of the tree;
//   - an abort leaves the live tree exactly as it was;
//   - while the live tree is unchanged since a transaction began, the
//     transaction's view and every result it returns match a private
//     snapshot's;
//   - a committed transaction's reads before its first mutation return
//     what the tree held at TxnStart.
func runTxnOps(t *testing.T, data []byte) {
	const quota = 6
	s, ref := New(), New()
	for _, st := range []*Store{s, ref} {
		st.SetNodeQuota(quota)
		// Homes the guests may create in: /a is domA's, /b is domB's with
		// domA granted write.
		for _, err := range []error{
			st.Write(dom0, noTxn, "/a", nil),
			st.SetPerms(dom0, noTxn, "/a", Perms{Owner: domA, Default: PermRead}),
			st.Write(dom0, noTxn, "/b", nil),
			st.SetPerms(dom0, noTxn, "/b", Perms{Owner: domB, Default: PermRead, ACL: map[xen.DomID]PermBits{domA: PermBoth}}),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	var slots [3]*txnSlot
	begin := func(k int, caller xen.DomID) {
		slots[k] = &txnSlot{
			id:     s.TxnStart(caller),
			owner:  caller,
			start:  deepCopy(s.root),
			shadow: storeAt(s.root, quota),
		}
	}
	for step := 0; step+2 < len(data); step += 3 {
		op, a, arg := data[step], data[step+1], data[step+2]
		kind, target := op%8, int(op/8)%4 // target 0 is the live tree, 1..3 a slot
		path := txnPaths[int(a)%len(txnPaths)]
		caller := txnCallers[int(a/16)%len(txnCallers)]
		where := fmt.Sprintf("step %d (kind %d, target %d, dom%d, %s, arg %#x)", step/3, kind, target, caller, path, arg)
		switch {
		case kind == 5: // begin
			if k := max(target, 1) - 1; slots[k] == nil {
				begin(k, caller)
			}
		case kind == 6 || kind == 7: // commit or abort
			k := max(target, 1) - 1
			sl := slots[k]
			if sl == nil {
				continue
			}
			slots[k] = nil
			ops := s.txns[sl.id].ops
			before, gen := deepCopy(s.root), s.gen
			if kind == 7 {
				if err := s.TxnAbort(sl.owner, sl.id); err != nil {
					t.Fatalf("%s: abort: %v", where, err)
				}
				if !reflect.DeepEqual(s.root, before) || s.gen != gen {
					t.Fatalf("%s: abort changed the live tree", where)
				}
				break
			}
			err := s.TxnCommit(sl.owner, sl.id)
			switch {
			case err == nil:
				ref.mu.Lock()
				ref.gen++
				for _, o := range ops {
					ref.replayLocked(o)
				}
				ref.mu.Unlock()
				startStore := storeAt(sl.start, quota)
				for _, r := range sl.reads {
					got, err := applyTxnOp(startStore, NoTxn, r.kind, r.caller, r.path, r.arg)
					if err != nil || got != r.got {
						t.Fatalf("%s: committed transaction read %s = %q; it held %q, %v at TxnStart", where, r.path, r.got, got, err)
					}
				}
			case errors.Is(err, ErrConflict) || errors.Is(err, ErrQuota):
				if !reflect.DeepEqual(s.root, before) || s.gen != gen {
					t.Fatalf("%s: refused commit (%v) changed the live tree", where, err)
				}
			default:
				t.Fatalf("%s: commit: %v", where, err)
			}
		case target == 0:
			got, err := applyTxnOp(s, NoTxn, kind, caller, path, arg)
			want, wantErr := applyTxnOp(ref, NoTxn, kind, caller, path, arg)
			if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: live op = %q, %v; reference %q, %v", where, got, err, want, wantErr)
			}
		default:
			k := target - 1
			if slots[k] == nil {
				begin(k, caller)
			}
			sl := slots[k]
			mutated := len(s.txns[sl.id].ops) > 0
			got, err := applyTxnOp(s, sl.id, kind, caller, path, arg)
			if !sl.diverged {
				want, wantErr := applyTxnOp(sl.shadow, NoTxn, kind, caller, path, arg)
				if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: transaction op = %q, %v; private snapshot %q, %v", where, got, err, want, wantErr)
				}
				if !sameContent(s.txns[sl.id].root, sl.shadow.root) {
					t.Fatalf("%s: transaction view differs from a private snapshot", where)
				}
			}
			if kind >= 3 && err == nil && !mutated {
				sl.reads = append(sl.reads, txnRead{kind: kind, arg: arg, caller: caller, path: path, got: got})
			}
		}

		if !reflect.DeepEqual(s.root, ref.root) || s.gen != ref.gen {
			t.Fatalf("%s: live tree differs from the reference (gen %d vs %d)", where, s.gen, ref.gen)
		}
		recount := make(map[xen.DomID]int)
		adjustOwned(recount, s.root, 1)
		if got, want := nonZero(s.owned), nonZero(recount); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: owned counters %v, recount %v", where, got, want)
		}
		for _, sl := range slots {
			if sl != nil && !sl.diverged && !sameContent(s.root, sl.start) {
				sl.diverged = true
			}
		}
	}
}

func randomTxnOps(seed int64, steps int) []byte {
	data := make([]byte, 3*steps)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestTxnOpsRandomized(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		data := randomTxnOps(seed, 400)
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runTxnOps(t, data) })
	}
}

// FuzzTxnOps runs the randomized transaction driver on op sequences decoded
// from the fuzz input.
func FuzzTxnOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomTxnOps(seed, 64))
	}
	f.Fuzz(runTxnOps)
}
