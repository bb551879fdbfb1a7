package vtpm

import (
	"bytes"
	"crypto/sha1"
	"testing"

	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
)

func extendCmd(pcr uint32, seed byte) []byte {
	m := sha1.Sum([]byte{seed})
	w := tpm.NewWriter()
	w.U16(tpm.TagRQUCommand)
	w.U32(uint32(10 + 4 + len(m)))
	w.U32(tpm.OrdExtend)
	w.U32(pcr)
	w.Raw(m[:])
	return w.Bytes()
}

func TestDeferCheckpointsSkipsAutoPersist(t *testing.T) {
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 2048})
	dom0, _ := hv.Domain(xen.Dom0)
	mgr := NewManager(hv, NewMemStore(), xen.NewArena(dom0), &passGuard{}, ManagerConfig{
		RSABits: testBits, Seed: []byte("defer"), Checkpoint: CheckpointDeferred,
	})
	defer mgr.Close()
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: "g", Kernel: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := mgr.CreateInstance()
	mgr.BindInstance(id, dom)
	before, _ := mgr.Store().Get(stateName(id))
	if _, err := mgr.Dispatch(dom.ID(), dom.Launch(), extendCmd(7, 1)); err != nil {
		t.Fatal(err)
	}
	after, _ := mgr.Store().Get(stateName(id))
	if !bytes.Equal(before, after) {
		t.Fatal("deferred mode persisted automatically")
	}
	// Explicit CheckpointAll persists.
	if err := mgr.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	final, _ := mgr.Store().Get(stateName(id))
	if bytes.Equal(before, final) {
		t.Fatal("CheckpointAll did not persist")
	}
}

func TestReviveAllRestoresEveryPersistedInstance(t *testing.T) {
	hv, xs, mgr, _ := newTestRig(t, &passGuard{protect: true})
	_ = xs
	_ = hv
	// Three instances with distinct state.
	var ids []InstanceID
	var wants [][tpm.DigestSize]byte
	for i := 0; i < 3; i++ {
		id, err := mgr.CreateInstance()
		if err != nil {
			t.Fatal(err)
		}
		cli, _ := mgr.DirectClient(id)
		m := sha1.Sum([]byte{byte(i)})
		if _, err := cli.Extend(5, m); err != nil {
			t.Fatal(err)
		}
		v, _ := cli.PCRRead(5)
		if err := mgr.Checkpoint(id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		wants = append(wants, v)
	}
	// Unrelated blob in the store must be ignored.
	mgr.Store().Put("policy.bin", []byte("not an instance"))
	// "Restart": drop all live instances but keep the store.
	blobs := make(map[InstanceID][]byte)
	for _, id := range ids {
		b, _ := mgr.Store().Get(stateName(id))
		blobs[id] = b
		mgr.DestroyInstance(id)
		mgr.Store().Put(stateName(id), b)
	}
	revived, err := mgr.ReviveAll()
	if err != nil {
		t.Fatalf("ReviveAll: %v", err)
	}
	if len(revived) != len(ids) {
		t.Fatalf("revived %d instances, want %d", len(revived), len(ids))
	}
	for i, id := range ids {
		cli, err := mgr.DirectClient(id)
		if err != nil {
			t.Fatalf("instance %d not live: %v", id, err)
		}
		v, err := cli.PCRRead(5)
		if err != nil || v != wants[i] {
			t.Fatalf("instance %d PCR = %x (%v), want %x", id, v, err, wants[i])
		}
	}
	// Idempotent: nothing new to revive.
	again, err := mgr.ReviveAll()
	if err != nil || len(again) != 0 {
		t.Fatalf("second ReviveAll: %v, %d revived", err, len(again))
	}
}
