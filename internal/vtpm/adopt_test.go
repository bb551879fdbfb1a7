package vtpm

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"testing"

	"xvtpm/internal/xen"
)

// adoptionRig builds a source manager with one unbound, stateful instance at
// ownership epoch 5 and returns the instance's committed checkpoint — the
// bytes a move ships.
func adoptionRig(t *testing.T) (*Manager, InstanceID, []byte) {
	t.Helper()
	hv, xs, mgr, _ := newTestRig(t, &passGuard{})
	dom := mkGuestDom(t, hv, xs, "m")
	id, err := mgr.CreateInstance()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.BindInstance(id, dom); err != nil {
		t.Fatal(err)
	}
	cli, _ := mgr.DirectClient(id)
	if _, err := cli.Extend(3, sha1.Sum([]byte("pre"))); err != nil {
		t.Fatal(err)
	}
	if err := mgr.UnbindInstance(id); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetEpoch(id, 5); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(id); err != nil {
		t.Fatal(err)
	}
	blob, err := mgr.Store().Get(stateName(id))
	if err != nil {
		t.Fatal(err)
	}
	return mgr, id, blob
}

// assertNothingCommitted fails unless mgr holds no instance and its store
// no blob.
func assertNothingCommitted(t *testing.T, mgr *Manager, what string) {
	t.Helper()
	if ids := mgr.Instances(); len(ids) != 0 {
		t.Fatalf("%s left instances %v registered", what, ids)
	}
	if names, err := mgr.Store().List(); err != nil || len(names) != 0 {
		t.Fatalf("%s left blobs %v stored (%v)", what, names, err)
	}
}

// TestAdoptCheckpointCarriesState: a second manager adopting an instance's
// committed checkpoint holds the very engine state the source committed,
// with its profile and epoch, under a local ID of its own, unbound — and has
// stored nothing under that ID: the first checkpoint is its caller's to
// write (a move's fenced checkpoint; Host.AdoptGuest's for an evacuation,
// whose test checks that write).
func TestAdoptCheckpointCarriesState(t *testing.T) {
	src, id, blob := adoptionRig(t)
	_, _, dst, _ := newTestRig(t, &passGuard{})
	if _, err := dst.CreateInstance(); err != nil { // take local ID 1
		t.Fatal(err)
	}
	nid, err := dst.AdoptCheckpoint(id, blob)
	if err != nil {
		t.Fatalf("AdoptCheckpoint: %v", err)
	}
	if nid == id {
		t.Fatalf("adopted instance kept the source's ID %d", id)
	}
	info, err := dst.InstanceInfo(nid)
	if err != nil {
		t.Fatal(err)
	}
	srcInfo, _ := src.InstanceInfo(id)
	if info.Epoch != 5 || info.Profile != srcInfo.Profile || info.BoundDom != 0 {
		t.Fatalf("adopted info %+v, want epoch 5, profile %s, unbound", info, srcInfo.Profile)
	}
	srcInst, _ := src.lookup(id)
	dstInst, _ := dst.lookup(nid)
	if !bytes.Equal(dstInst.eng.SaveState(), srcInst.eng.SaveState()) {
		t.Fatal("adopted engine state differs from the source's")
	}
	if _, err := dst.Store().Get(stateName(nid)); !errors.Is(err, ErrNoState) {
		t.Fatalf("adoption stored a checkpoint of its own (err %v); its caller writes the first one", err)
	}
}

// TestAdoptCheckpointNeedsManagerMemory: adoption reserves the adopted
// instance's dom0 mirror, so a manager whose arena is exhausted refuses the
// adoption and registers nothing, instead of handing its caller an instance
// whose first checkpoint cannot be mirrored.
func TestAdoptCheckpointNeedsManagerMemory(t *testing.T) {
	_, id, blob := adoptionRig(t)
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 32})
	dom0, err := hv.Domain(xen.Dom0)
	if err != nil {
		t.Fatal(err)
	}
	arena := xen.NewArena(dom0)
	for {
		if _, err := arena.Alloc(xen.PageSize); err != nil {
			break
		}
	}
	dst := NewManager(hv, NewMemStore(), arena, &passGuard{}, ManagerConfig{
		RSABits: testBits, Seed: []byte("no-memory"),
	})
	defer dst.Close()
	if nid, err := dst.AdoptCheckpoint(id, blob); err == nil {
		t.Fatalf("adopted instance %d with no manager memory left", nid)
	}
	assertNothingCommitted(t, dst, "adoption without manager memory")
}

// TestExportImportInstance: an instance leaves its manager as its committed
// checkpoint (unbind, checkpoint, read the blob from the store) and a second
// manager imports it by adoption; bound to a guest there, it serves the PCR
// the source extended and keeps extending from it.
func TestExportImportInstance(t *testing.T) {
	hv, xs, mgr, _ := newTestRig(t, &passGuard{})
	dom := mkGuestDom(t, hv, xs, "g")
	id, _ := mgr.CreateInstance()
	mgr.BindInstance(id, dom)
	cli, _ := mgr.DirectClient(id)
	cli.Extend(4, sha1.Sum([]byte("pre")))
	want, _ := cli.PCRRead(4)

	if err := mgr.UnbindInstance(id); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(id); err != nil {
		t.Fatal(err)
	}
	blob, err := mgr.Store().Get(stateName(id))
	if err != nil {
		t.Fatal(err)
	}
	hv2, xs2, mgr2, _ := newTestRig(t, &passGuard{})
	nid, err := mgr2.AdoptCheckpoint(id, blob)
	if err != nil {
		t.Fatalf("AdoptCheckpoint: %v", err)
	}
	if err := mgr2.BindInstance(nid, mkGuestDom(t, hv2, xs2, "g")); err != nil {
		t.Fatal(err)
	}
	cli2, _ := mgr2.DirectClient(nid)
	got, err := cli2.PCRRead(4)
	if err != nil || got != want {
		t.Fatalf("imported PCR: %v %x want %x", err, got, want)
	}
	if _, err := cli2.Extend(4, sha1.Sum([]byte("post"))); err != nil {
		t.Fatal(err)
	}
	cli.Extend(4, sha1.Sum([]byte("post")))
	want, _ = cli.PCRRead(4)
	if got, _ = cli2.PCRRead(4); got != want {
		t.Fatalf("PCR after extend on the importer: %x want %x", got, want)
	}
}

// TestInstanceImageWireRoundTrip: an instance's wire image is its committed
// checkpoint, and the first checkpoint an importer commits after adoption
// (a move's fenced checkpoint) is a wire image in turn — an instance
// shipped out and back to a third manager reads the source's PCR.
func TestInstanceImageWireRoundTrip(t *testing.T) {
	src, id, blob := adoptionRig(t)
	_, _, dst, _ := newTestRig(t, &passGuard{})
	nid, err := dst.AdoptCheckpoint(id, blob)
	if err != nil {
		t.Fatalf("AdoptCheckpoint out: %v", err)
	}
	if err := dst.Checkpoint(nid); err != nil {
		t.Fatal(err)
	}
	back, err := dst.Store().Get(stateName(nid))
	if err != nil {
		t.Fatal(err)
	}
	_, _, home, _ := newTestRig(t, &passGuard{})
	hid, err := home.AdoptCheckpoint(nid, back)
	if err != nil {
		t.Fatalf("AdoptCheckpoint back: %v", err)
	}
	cli, err := home.DirectClient(hid)
	if err != nil {
		t.Fatal(err)
	}
	srcCli, _ := src.DirectClient(id)
	want, _ := srcCli.PCRRead(3)
	got, err := cli.PCRRead(3)
	if err != nil || got != want {
		t.Fatalf("round-tripped PCR: %v %x want %x", err, got, want)
	}
}

// TestImportRejectsCorruptGuardOutput: a destination whose guard opens the
// shipped envelope into something that is not TPM state refuses the
// adoption and keeps no instance registered and no blob stored.
func TestImportRejectsCorruptGuardOutput(t *testing.T) {
	_, id, blob := adoptionRig(t)
	_, _, dst, _ := newTestRig(t, &corruptingGuard{})
	if nid, err := dst.AdoptCheckpoint(id, blob); err == nil {
		t.Fatalf("adopted instance %d from a corrupt opening", nid)
	}
	assertNothingCommitted(t, dst, "refused adoption")
}

// corruptingGuard opens every envelope into junk, so the destination must
// refuse.
type corruptingGuard struct{ passGuard }

func (g *corruptingGuard) RecoverState(inst InstanceInfo, blob []byte) ([]byte, error) {
	return []byte("not a tpm state blob"), nil
}

// TestAdoptCheckpointRejects: adoption refuses shipped bytes that are not
// exactly one committed checkpoint, and commits nothing.
func TestAdoptCheckpointRejects(t *testing.T) {
	_, id, blob := adoptionRig(t)
	badProfile := append([]byte(nil), blob...)
	badProfile[len(ckptMagic)+1] = 7
	badVersion := append([]byte(nil), blob...)
	badVersion[len(ckptMagic)] = 9
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"appended byte", append(append([]byte(nil), blob...), 0)},
		{"truncated envelope", blob[:len(blob)-1]},
		{"truncated header", blob[:ckptHdrLen-1]},
		{"bad profile", badProfile},
		{"bad version", badVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, dst, _ := newTestRig(t, &passGuard{})
			if nid, err := dst.AdoptCheckpoint(id, tc.b); err == nil {
				t.Fatalf("adopted instance %d", nid)
			}
			assertNothingCommitted(t, dst, "refused adoption")
		})
	}
}
