package vtpm

import (
	"crypto/sha1"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
)

// newCkptRig builds a hypervisor + manager over the given store with full
// control of the ManagerConfig — the checkpoint tests sweep policies and
// durability windows.
func newCkptRig(t *testing.T, store Store, guard Guard, cfg ManagerConfig) (*xen.Hypervisor, *Manager) {
	t.Helper()
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 2048})
	dom0, err := hv.Domain(xen.Dom0)
	if err != nil {
		t.Fatal(err)
	}
	return hv, NewManager(hv, store, xen.NewArena(dom0), guard, cfg)
}

// extendStepCmd builds the Extend command for one step of a deterministic
// PCR chain, returning the command and the digest extended.
func extendStepCmd(pcr uint32, step int) ([]byte, [tpm.DigestSize]byte) {
	m := sha1.Sum([]byte{byte(step), byte(step >> 8)})
	w := tpm.NewWriter()
	w.U16(tpm.TagRQUCommand)
	w.U32(uint32(10 + 4 + len(m)))
	w.U32(tpm.OrdExtend)
	w.U32(pcr)
	w.Raw(m[:])
	return w.Bytes(), m
}

// pcrChain precomputes the PCR value after each of n extendStepCmd steps:
// chain[k] is the PCR after k extends, chain[0] the reset value.
func pcrChain(n int) [][tpm.DigestSize]byte {
	chain := make([][tpm.DigestSize]byte, n+1)
	for k := 1; k <= n; k++ {
		_, m := extendStepCmd(7, k)
		chain[k] = sha1.Sum(append(chain[k-1][:], m[:]...))
	}
	return chain
}

// chainIndex finds which step of the chain a PCR value corresponds to, or -1
// if the value is not on the chain at all (a torn/invented state).
func chainIndex(chain [][tpm.DigestSize]byte, v [tpm.DigestSize]byte) int {
	for k, c := range chain {
		if c == v {
			return k
		}
	}
	return -1
}

// TestWritebackCrashConsistency kills a manager mid-burst (no Close, no
// flush — the crash model) and asserts the store never trails the engine by
// more than the configured MaxDirtyCommands window, and that what it holds
// is a real checkpoint, not a torn state.
func TestWritebackCrashConsistency(t *testing.T) {
	const (
		window = 8
		burst  = 50
	)
	store := NewMemStore()
	hv, mgr := newCkptRig(t, store, &passGuard{protect: true}, ManagerConfig{
		RSABits: testBits, Seed: []byte("crash"),
		Checkpoint:       CheckpointWriteback,
		MaxDirtyCommands: window,
		// An interval the test never reaches: only the backpressure gate
		// persists, so the bound being checked is exactly MaxDirtyCommands.
		MaxDirtyInterval: time.Hour,
	})
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: "g", Kernel: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.CreateInstance()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.BindInstance(id, dom); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= burst; i++ {
		cmd, _ := extendStepCmd(7, i)
		if _, err := mgr.Dispatch(dom.ID(), dom.Launch(), cmd); err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
	}
	// Crash: the manager is abandoned here — no Close, no flush. Revive
	// from whatever the store holds.
	hv2 := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 2048})
	dom0, _ := hv2.Domain(xen.Dom0)
	mgr2 := NewManager(hv2, store, xen.NewArena(dom0), &passGuard{protect: true}, ManagerConfig{
		RSABits: testBits, Checkpoint: CheckpointWriteback, MaxDirtyCommands: window,
	})
	defer mgr2.Close()
	revived, err := mgr2.ReviveAll()
	if err != nil {
		t.Fatalf("ReviveAll: %v", err)
	}
	if len(revived) != 1 || revived[0] != id {
		t.Fatalf("revived %v, want [%d]", revived, id)
	}
	cli, err := mgr2.DirectClient(id)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cli.PCRRead(7)
	if err != nil {
		t.Fatal(err)
	}
	chain := pcrChain(burst)
	k := chainIndex(chain, v)
	if k < 0 {
		t.Fatalf("restored PCR %x is not on the extend chain: torn checkpoint", v)
	}
	if k < burst-window {
		t.Fatalf("restored to step %d of %d: lost %d mutations, durability window is %d",
			k, burst, burst-k, window)
	}
	t.Logf("restored to step %d of %d (window %d)", k, burst, window)
}

// TestWritebackFlushBarriersCarryLatestMutation checks the two state-handoff
// barriers after a burst under write-behind: the forced Checkpoint a move
// runs at quiesce must leave the store exactly current, so the committed
// checkpoint the move ships carries the very latest mutation to the
// destination; and UnbindInstance must leave the store exactly current too.
func TestWritebackFlushBarriersCarryLatestMutation(t *testing.T) {
	const burst = 37
	store := NewMemStore()
	guard := &passGuard{protect: true}
	hv, mgr := newCkptRig(t, store, guard, ManagerConfig{
		RSABits: testBits, Seed: []byte("flush"),
		Checkpoint:       CheckpointWriteback,
		MaxDirtyCommands: 1024, // never gate: only barriers persist
		MaxDirtyInterval: time.Hour,
	})
	defer mgr.Close()
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: "g", Kernel: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.CreateInstance()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.BindInstance(id, dom); err != nil {
		t.Fatal(err)
	}
	chain := pcrChain(2 * burst)
	extend := func(from, to int) {
		t.Helper()
		for i := from; i <= to; i++ {
			cmd, _ := extendStepCmd(7, i)
			if _, err := mgr.Dispatch(dom.ID(), dom.Launch(), cmd); err != nil {
				t.Fatalf("dispatch %d: %v", i, err)
			}
		}
	}
	// storedStep opens the stored checkpoint and returns its PCR 7 step.
	storedStep := func() int {
		t.Helper()
		blob, err := store.Get(stateName(id))
		if err != nil {
			t.Fatal(err)
		}
		profile, envelope, err := UnwrapCheckpoint(blob)
		if err != nil {
			t.Fatal(err)
		}
		state, err := guard.RecoverState(InstanceInfo{ID: id, Profile: profile}, envelope)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := tpm.RestoreState(state)
		if err != nil {
			t.Fatal(err)
		}
		v, err := tpm.NewClient(tpm.DirectTransport{TPM: eng}, nil).PCRRead(7)
		if err != nil {
			t.Fatal(err)
		}
		return chainIndex(chain, v)
	}

	// The quiesce checkpoint is a flush barrier, and the checkpoint it
	// commits is what a move ships: adopted elsewhere, it is at the latest
	// step.
	extend(1, burst)
	if err := mgr.Checkpoint(id); err != nil {
		t.Fatal(err)
	}
	if k := storedStep(); k != burst {
		t.Fatalf("store after the quiesce checkpoint at step %d, want %d (latest)", k, burst)
	}
	shipped, err := store.Get(stateName(id))
	if err != nil {
		t.Fatal(err)
	}
	_, mgr2 := newCkptRig(t, NewMemStore(), guard, ManagerConfig{
		RSABits: testBits, Checkpoint: CheckpointWriteback,
	})
	defer mgr2.Close()
	nid, err := mgr2.AdoptCheckpoint(id, shipped)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := mgr2.DirectClient(nid)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := cli.PCRRead(7)
	if err != nil {
		t.Fatal(err)
	}
	if mv != chain[burst] {
		t.Fatalf("adopted instance at step %d, want %d (latest)", chainIndex(chain, mv), burst)
	}

	// Unbind is a flush barrier: the store must again be exactly current.
	extend(burst+1, 2*burst)
	if err := mgr.UnbindInstance(id); err != nil {
		t.Fatal(err)
	}
	if k := storedStep(); k != 2*burst {
		t.Fatalf("store after unbind at step %d, want %d (latest)", k, 2*burst)
	}
}

// TestWritebackCoalescesBurst checks the pipeline's point: a burst inside
// the durability window becomes one checkpoint, not one per mutation.
func TestWritebackCoalescesBurst(t *testing.T) {
	const burst = 30
	store := NewMemStore()
	hv, mgr := newCkptRig(t, store, &passGuard{}, ManagerConfig{
		RSABits: testBits, Seed: []byte("coalesce"),
		Checkpoint:       CheckpointWriteback,
		MaxDirtyCommands: 64, // burst fits the window
		MaxDirtyInterval: time.Hour,
	})
	defer mgr.Close()
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: "g", Kernel: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.CreateInstance()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.BindInstance(id, dom); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= burst; i++ {
		cmd, _ := extendStepCmd(7, i)
		if _, err := mgr.Dispatch(dom.ID(), dom.Launch(), cmd); err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
	}
	if err := mgr.Checkpoint(id); err != nil {
		t.Fatal(err)
	}
	s := mgr.CheckpointStats()
	if s.Mutations != burst {
		t.Fatalf("Mutations = %d, want %d", s.Mutations, burst)
	}
	if s.Coalesced != burst {
		t.Fatalf("Coalesced = %d, want %d after flush", s.Coalesced, burst)
	}
	// CreateInstance's initial persist plus the flush, and possibly a stray
	// timer/urgent persist — but nowhere near one per mutation.
	if s.Checkpoints >= burst {
		t.Fatalf("Checkpoints = %d: no coalescing happened (%d mutations)", s.Checkpoints, burst)
	}
	if r := s.CoalesceRatio(); r <= 1 {
		t.Fatalf("CoalesceRatio = %.2f, want > 1", r)
	}
}

// failStore wraps a Store and fails Put for one key — the wedged-instance
// model for the error-aggregation tests.
type failStore struct {
	Store
	failName string
}

func (f *failStore) Put(name string, blob []byte) error {
	if name == f.failName {
		return errors.New("injected store failure")
	}
	return f.Store.Put(name, blob)
}

// TestFailedFirstCheckpointLeavesNoInstance: create registers an instance
// and then forces its first checkpoint. When that checkpoint fails, the call
// must return the error and leave nothing registered under the ID it never
// returned. Adoption writes no checkpoint; Host.AdoptGuest, which writes an
// evacuated guest's first one, is held to the same rule by
// TestAdoptGuestFailedFirstCheckpointLeavesNoInstance.
func TestFailedFirstCheckpointLeavesNoInstance(t *testing.T) {
	t.Run("create", func(t *testing.T) {
		// The new instance takes ID 1, the name whose write fails.
		fs := &failStore{Store: NewMemStore(), failName: stateName(1)}
		_, mgr := newCkptRig(t, fs, &passGuard{}, ManagerConfig{
			RSABits: testBits, Seed: []byte("orphan-dst"),
			Retry: RetryPolicy{MaxAttempts: 1},
		})
		defer mgr.Close()
		before := mgr.Instances()
		id, err := mgr.CreateInstance()
		if err == nil {
			t.Fatalf("create returned instance %d although its first checkpoint failed", id)
		}
		if !strings.Contains(err.Error(), "injected store failure") {
			t.Fatalf("create error does not carry the checkpoint failure: %v", err)
		}
		if after := mgr.Instances(); len(after) != len(before) {
			t.Fatalf("Instances() %v → %v after the failed create", before, after)
		}
		if _, err := mgr.DirectClient(1); !errors.Is(err, ErrNoInstance) {
			t.Fatalf("instance 1 still answers after the failed create: %v", err)
		}
		if s := mgr.CheckpointStats(); s.DegradedNow != 0 || s.QuarantinedNow != 0 {
			t.Fatalf("health gauges count the torn-down instance: %+v", s)
		}
	})
}

// TestCheckpointAllContinuesPastFailure: one wedged instance must not block
// shutdown persistence of the rest, and the aggregate error must name it.
func TestCheckpointAllContinuesPastFailure(t *testing.T) {
	fs := &failStore{Store: NewMemStore()}
	_, mgr := newCkptRig(t, fs, &passGuard{}, ManagerConfig{
		RSABits: testBits, Seed: []byte("ckall"), Checkpoint: CheckpointDeferred,
	})
	defer mgr.Close()
	var ids []InstanceID
	for i := 0; i < 3; i++ {
		id, err := mgr.CreateInstance()
		if err != nil {
			t.Fatal(err)
		}
		cli, _ := mgr.DirectClient(id)
		if _, err := cli.Extend(5, sha1.Sum([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	before := make(map[InstanceID][]byte)
	for _, id := range ids {
		b, _ := fs.Get(stateName(id))
		before[id] = b
	}
	fs.failName = stateName(ids[1])
	err := mgr.CheckpointAll()
	if err == nil {
		t.Fatal("CheckpointAll succeeded despite injected failure")
	}
	if !strings.Contains(err.Error(), "instance 2") {
		t.Fatalf("aggregate error does not name the wedged instance: %v", err)
	}
	for _, id := range []InstanceID{ids[0], ids[2]} {
		after, _ := fs.Get(stateName(id))
		if string(after) == string(before[id]) {
			t.Fatalf("instance %d not persisted past the wedged one", id)
		}
	}
}

// TestReviveAllContinuesPastCorruptBlob: a corrupt blob yields an aggregated
// error but does not abort recovery of the healthy instances.
func TestReviveAllContinuesPastCorruptBlob(t *testing.T) {
	store := NewMemStore()
	_, mgr := newCkptRig(t, store, &passGuard{}, ManagerConfig{
		RSABits: testBits, Seed: []byte("revive"),
	})
	defer mgr.Close()
	id, err := mgr.CreateInstance()
	if err != nil {
		t.Fatal(err)
	}
	store.Put(stateName(99), []byte("garbage, not a state blob")) //nolint:errcheck
	// Restart: drop the live instance, keep the store.
	blob, _ := store.Get(stateName(id))
	mgr.DestroyInstance(id) //nolint:errcheck
	store.Put(stateName(id), blob)

	revived, err := mgr.ReviveAll()
	if err == nil {
		t.Fatal("ReviveAll swallowed the corrupt blob")
	}
	if !strings.Contains(err.Error(), "instance 99") {
		t.Fatalf("aggregate error does not name the corrupt blob: %v", err)
	}
	if len(revived) != 1 || revived[0] != id {
		t.Fatalf("revived %v, want [%d]", revived, id)
	}
}

// TestDestroyUnderWritebackLeavesNoGhostBlob: a destroy racing the
// checkpoint worker must never let a late persist re-create the deleted
// state blob.
func TestDestroyUnderWritebackLeavesNoGhostBlob(t *testing.T) {
	store := NewMemStore()
	hv, mgr := newCkptRig(t, store, &passGuard{}, ManagerConfig{
		RSABits: testBits, Seed: []byte("ghost"),
		Checkpoint:       CheckpointWriteback,
		MaxDirtyCommands: 4,
		MaxDirtyInterval: time.Microsecond, // keep the worker busy
	})
	defer mgr.Close()
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: "g", Kernel: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.CreateInstance()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.BindInstance(id, dom); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		cmd, _ := extendStepCmd(7, i)
		if _, err := mgr.Dispatch(dom.ID(), dom.Launch(), cmd); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.DestroyInstance(id); err != nil {
		t.Fatal(err)
	}
	// Give any escaped persist a chance to land before checking.
	time.Sleep(10 * time.Millisecond)
	if _, err := store.Get(stateName(id)); !errors.Is(err, ErrNoState) {
		t.Fatalf("state blob for destroyed instance: err=%v", err)
	}
}

// TestCheckpointLagBounded: the dirty-to-durable lag instrument is a
// fixed-bucket histogram, so a long-lived manager's lag statistics neither
// grow with the number of checkpoints it has taken nor lose count of them.
// 200k eager checkpoints must each be counted once, and reading the stats
// (as /debug/vtpm, vtpmctl top and the repository benchmark do) must not
// leave per-sample memory behind: a sample-keeping recorder retains 8 bytes
// per checkpoint, ~1.6 MB here, plus a sorted copy per read.
func TestCheckpointLagBounded(t *testing.T) {
	const checkpoints = 200_000
	hv, mgr := newCkptRig(t, NewMemStore(), &passGuard{}, ManagerConfig{
		RSABits: testBits, Seed: []byte("lag"), Checkpoint: CheckpointEager,
	})
	defer mgr.Close()
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: "g", Kernel: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.CreateInstance()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.BindInstance(id, dom); err != nil {
		t.Fatal(err)
	}
	cmd, _ := extendStepCmd(7, 1)
	dispatch := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := mgr.Dispatch(dom.ID(), dom.Launch(), cmd); err != nil {
				t.Fatalf("dispatch %d: %v", i, err)
			}
		}
	}
	// Warm every scratch buffer, then take the heap baseline.
	dispatch(100)
	mgr.CheckpointStats()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dispatch(checkpoints)
	s := mgr.CheckpointStats()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if want := uint64(checkpoints + 100); s.Lag.Count != want || s.Checkpoints != want+1 {
		t.Fatalf("Lag.Count = %d, Checkpoints = %d; want %d lag samples from %d checkpoints",
			s.Lag.Count, s.Checkpoints, want, want+1)
	}
	if s.Lag.P50 <= 0 || s.Lag.P95 < s.Lag.P50 || s.Lag.P99 < s.Lag.P95 {
		t.Fatalf("lag quantiles out of order: %+v", s.Lag)
	}
	const bound = 256 << 10
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > bound {
		t.Fatalf("live heap grew %d bytes over %d checkpoints, bound %d", grown, checkpoints, bound)
	}
}
