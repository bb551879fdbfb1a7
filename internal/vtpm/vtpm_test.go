package vtpm

import (
	"bytes"
	"crypto/rsa"
	"crypto/sha1"
	"errors"
	"testing"

	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
	"xvtpm/internal/xenstore"
)

const testBits = 512

// passGuard is a minimal permissive guard for unit-testing the manager and
// drivers in isolation from the core package.
type passGuard struct {
	denyAll bool
	protect bool // XOR-mask state to test Protect/Recover plumbing
}

func (g *passGuard) Name() string { return "pass" }

func (g *passGuard) AdmitCommand(inst InstanceInfo, from xen.DomID, launch xen.LaunchDigest, payload []byte) ([]byte, ResponseFinisher, error) {
	if g.denyAll {
		return nil, nil, ErrDenied
	}
	if inst.BoundDom != from {
		return nil, nil, ErrNotBound
	}
	return payload, func(r []byte) ([]byte, error) { return r, nil }, nil
}

func (g *passGuard) EncoderFor(inst InstanceInfo) (GuestCodec, error) { return PlainCodec{}, nil }

func mask(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		out[i] = c ^ 0x5A
	}
	return out
}

func (g *passGuard) ProtectState(inst InstanceInfo, dst, state []byte) ([]byte, error) {
	if g.protect {
		return append(dst, mask(state)...), nil
	}
	return append(dst, state...), nil
}

func (g *passGuard) RecoverState(inst InstanceInfo, blob []byte) ([]byte, error) {
	if g.protect {
		return mask(blob), nil
	}
	return append([]byte(nil), blob...), nil
}

func (g *passGuard) ExportState(inst InstanceInfo, state []byte, destEK *rsa.PublicKey) ([]byte, error) {
	return append([]byte(nil), state...), nil
}

func (g *passGuard) ImportState(blob []byte) ([]byte, error) {
	return append([]byte(nil), blob...), nil
}

func (g *passGuard) MigrationIdentity() *rsa.PublicKey { return nil }

func (g *passGuard) RetainsPlaintext() bool { return true }

func newTestRig(t testing.TB, guard Guard) (*xen.Hypervisor, *xenstore.Store, *Manager, *Backend) {
	t.Helper()
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 2048})
	xs := xenstore.New()
	dom0, err := hv.Domain(xen.Dom0)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(hv, NewMemStore(), xen.NewArena(dom0), guard, ManagerConfig{
		RSABits: testBits, Seed: []byte("vtpm-test"),
	})
	t.Cleanup(func() {
		if err := mgr.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return hv, xs, mgr, NewBackend(hv, xs, mgr)
}

func mkGuestDom(t testing.TB, hv *xen.Hypervisor, xs *xenstore.Store, name string) *xen.Domain {
	t.Helper()
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: name, Kernel: []byte("k-" + name)})
	if err != nil {
		t.Fatal(err)
	}
	base := "/local/domain/" + itoa(dom.ID())
	if err := xs.Write(xen.Dom0, xenstore.NoTxn, base+"/name", []byte(name)); err != nil {
		t.Fatal(err)
	}
	if err := xs.SetPerms(xen.Dom0, xenstore.NoTxn, base, xenstore.Perms{Owner: dom.ID()}); err != nil {
		t.Fatal(err)
	}
	return dom
}

func itoa(d xen.DomID) string {
	return string([]byte{byte('0' + d%10)}) // test domains stay single digit
}

func TestMemStoreCRUD(t *testing.T) {
	s := NewMemStore()
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("a")
	if err != nil || string(v) != "1" {
		t.Fatalf("Get: %v %q", err, v)
	}
	// Get returns a copy.
	v[0] = 'X'
	v2, _ := s.Get("a")
	if string(v2) != "1" {
		t.Fatal("Get leaks internal buffer")
	}
	names, _ := s.List()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("List: %v", names)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrNoState) {
		t.Fatalf("Get deleted: %v", err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNoState) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestCreateAndBindInstance(t *testing.T) {
	hv, xs, mgr, _ := newTestRig(t, &passGuard{})
	id, err := mgr.CreateInstance()
	if err != nil {
		t.Fatalf("CreateInstance: %v", err)
	}
	// Initial state persisted.
	if _, err := mgr.Store().Get(stateName(id)); err != nil {
		t.Fatalf("initial state not persisted: %v", err)
	}
	dom := mkGuestDom(t, hv, xs, "g")
	if err := mgr.BindInstance(id, dom); err != nil {
		t.Fatal(err)
	}
	info, _ := mgr.InstanceInfo(id)
	if info.BoundDom != dom.ID() || info.BoundLaunch != dom.Launch() {
		t.Fatalf("binding: %+v", info)
	}
	// Double bind fails both ways.
	if err := mgr.BindInstance(id, dom); !errors.Is(err, ErrBound) {
		t.Fatalf("rebind err = %v", err)
	}
	id2, _ := mgr.CreateInstance()
	if err := mgr.BindInstance(id2, dom); !errors.Is(err, ErrDomHasVTPM) {
		t.Fatalf("second vTPM on dom err = %v", err)
	}
	if err := mgr.UnbindInstance(id); err != nil {
		t.Fatal(err)
	}
	if err := mgr.UnbindInstance(id); !errors.Is(err, ErrUnbound) {
		t.Fatalf("double unbind err = %v", err)
	}
}

func TestDispatchRoutesAndRefuses(t *testing.T) {
	hv, xs, mgr, _ := newTestRig(t, &passGuard{})
	dom := mkGuestDom(t, hv, xs, "g")
	id, _ := mgr.CreateInstance()
	mgr.BindInstance(id, dom)

	cmd := tpm.NewWriter()
	cmd.U16(tpm.TagRQUCommand)
	cmd.U32(14)
	cmd.U32(tpm.OrdGetRandom)
	cmd.U32(8)
	resp, err := mgr.Dispatch(dom.ID(), dom.Launch(), cmd.Bytes())
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if len(resp) < 10 {
		t.Fatal("short response")
	}
	// Unknown domain refused.
	if _, err := mgr.Dispatch(dom.ID()+7, dom.Launch(), cmd.Bytes()); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("unknown dom err = %v", err)
	}
}

func TestDispatchCheckpointsMutatingCommands(t *testing.T) {
	hv, xs, mgr, _ := newTestRig(t, &passGuard{})
	dom := mkGuestDom(t, hv, xs, "g")
	id, _ := mgr.CreateInstance()
	mgr.BindInstance(id, dom)
	before, _ := mgr.Store().Get(stateName(id))

	m := sha1.Sum([]byte("meas"))
	ext := tpm.NewWriter()
	ext.U16(tpm.TagRQUCommand)
	ext.U32(uint32(10 + 4 + len(m)))
	ext.U32(tpm.OrdExtend)
	ext.U32(7)
	ext.Raw(m[:])
	if _, err := mgr.Dispatch(dom.ID(), dom.Launch(), ext.Bytes()); err != nil {
		t.Fatal(err)
	}
	after, _ := mgr.Store().Get(stateName(id))
	if bytes.Equal(before, after) {
		t.Fatal("Extend did not checkpoint state")
	}
}

func TestReviveInstanceFromStore(t *testing.T) {
	hv, xs, mgr, _ := newTestRig(t, &passGuard{protect: true})
	dom := mkGuestDom(t, hv, xs, "g")
	id, _ := mgr.CreateInstance()
	mgr.BindInstance(id, dom)
	cli, _ := mgr.DirectClient(id)
	m := sha1.Sum([]byte("x"))
	cli.Extend(3, m)
	want, _ := cli.PCRRead(3)
	mgr.Checkpoint(id)
	mgr.UnbindInstance(id)
	// Drop the live copy but re-put the blob (DestroyInstance deletes it).
	blob, _ := mgr.Store().Get(stateName(id))
	mgr.DestroyInstance(id)
	mgr.Store().Put(stateName(id), blob)
	if err := mgr.ReviveInstance(id); err != nil {
		t.Fatalf("ReviveInstance: %v", err)
	}
	cli2, _ := mgr.DirectClient(id)
	got, err := cli2.PCRRead(3)
	if err != nil || got != want {
		t.Fatalf("revived PCR: %v %x want %x", err, got, want)
	}
}

func TestDestroyInstanceScrubsAndDeletes(t *testing.T) {
	hv, xs, mgr, _ := newTestRig(t, &passGuard{})
	dom := mkGuestDom(t, hv, xs, "g")
	id, _ := mgr.CreateInstance()
	mgr.BindInstance(id, dom)
	if err := mgr.DestroyInstance(id); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Store().Get(stateName(id)); !errors.Is(err, ErrNoState) {
		t.Fatalf("state blob survives destroy: %v", err)
	}
	if _, ok := mgr.InstanceForDomain(dom.ID()); ok {
		t.Fatal("binding survives destroy")
	}
	if err := mgr.DestroyInstance(id); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("double destroy err = %v", err)
	}
}

func TestFrontBackHandshakeAndTraffic(t *testing.T) {
	hv, xs, mgr, be := newTestRig(t, &passGuard{})
	dom := mkGuestDom(t, hv, xs, "g")
	id, _ := mgr.CreateInstance()
	mgr.BindInstance(id, dom)
	fe := NewFrontend(hv, xs, dom, PlainCodec{}, nil)
	if err := fe.Setup(); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	if err := be.AttachDevice(dom.ID()); err != nil {
		t.Fatalf("AttachDevice: %v", err)
	}
	if err := fe.WaitConnected(); err != nil {
		t.Fatalf("WaitConnected: %v", err)
	}
	if !be.Connected(dom.ID()) {
		t.Fatal("backend does not report connected")
	}
	cli := tpm.NewClient(fe, nil)
	if err := cli.SelfTestFull(); err != nil {
		t.Fatalf("command over ring: %v", err)
	}
	rnd, err := cli.GetRandom(16)
	if err != nil || len(rnd) != 16 {
		t.Fatalf("GetRandom over ring: %v", err)
	}
	if err := be.DetachDevice(dom.ID()); err != nil {
		t.Fatalf("DetachDevice: %v", err)
	}
	if _, err := cli.GetRandom(1); err == nil {
		t.Fatal("detached device still answers")
	}
	if err := be.DetachDevice(dom.ID()); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("double detach err = %v", err)
	}
}

func TestAttachRequiresBoundInstance(t *testing.T) {
	hv, xs, _, be := newTestRig(t, &passGuard{})
	dom := mkGuestDom(t, hv, xs, "g")
	fe := NewFrontend(hv, xs, dom, PlainCodec{}, nil)
	if err := fe.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := be.AttachDevice(dom.ID()); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("err = %v", err)
	}
}

func TestGuardDenialBecomesTPMError(t *testing.T) {
	g := &passGuard{}
	hv, xs, mgr, be := newTestRig(t, g)
	dom := mkGuestDom(t, hv, xs, "g")
	id, _ := mgr.CreateInstance()
	mgr.BindInstance(id, dom)
	fe := NewFrontend(hv, xs, dom, PlainCodec{}, nil)
	fe.Setup()
	be.AttachDevice(dom.ID())
	fe.WaitConnected()
	cli := tpm.NewClient(fe, nil)
	g.denyAll = true
	if _, err := cli.GetRandom(4); !tpm.IsTPMError(err, RCGuardDenied) {
		t.Fatalf("err = %v, want RCGuardDenied", err)
	}
	g.denyAll = false
	if _, err := cli.GetRandom(4); err != nil {
		t.Fatalf("after re-allow: %v", err)
	}
}

func TestExportImportInstance(t *testing.T) {
	hv, xs, mgr, _ := newTestRig(t, &passGuard{})
	dom := mkGuestDom(t, hv, xs, "g")
	id, _ := mgr.CreateInstance()
	mgr.BindInstance(id, dom)
	cli, _ := mgr.DirectClient(id)
	m := sha1.Sum([]byte("pre"))
	cli.Extend(4, m)
	want, _ := cli.PCRRead(4)

	// Export requires unbinding first.
	if _, err := mgr.ExportInstance(id, nil); !errors.Is(err, ErrStillBound) {
		t.Fatalf("bound export err = %v", err)
	}
	mgr.UnbindInstance(id)
	img, err := mgr.ExportInstance(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Import on a second manager.
	_, _, mgr2, _ := newTestRig(t, &passGuard{})
	nid, err := mgr2.ImportInstance(img)
	if err != nil {
		t.Fatalf("ImportInstance: %v", err)
	}
	cli2, _ := mgr2.DirectClient(nid)
	got, err := cli2.PCRRead(4)
	if err != nil || got != want {
		t.Fatalf("imported PCR: %v %x want %x", err, got, want)
	}
}

func TestImageMarshalRoundTrip(t *testing.T) {
	img := &InstanceImage{Profile: tpm.Profile20, Epoch: 9, StateEnvelope: []byte("envelope-bytes")}
	copy(img.Launch[:], bytes.Repeat([]byte{7}, len(img.Launch)))
	got, err := DecodeInstanceImage(EncodeInstanceImage(img))
	if err != nil {
		t.Fatal(err)
	}
	if got.Launch != img.Launch || got.Profile != img.Profile || got.Epoch != img.Epoch || !bytes.Equal(got.StateEnvelope, img.StateEnvelope) {
		t.Fatal("instance image round trip lost data")
	}
	if _, err := DecodeInstanceImage([]byte{1, 2}); err == nil {
		t.Fatal("junk instance image accepted")
	}
}

func TestEKPoolAcceleratesCreation(t *testing.T) {
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 2048})
	dom0, _ := hv.Domain(xen.Dom0)
	mgr := NewManager(hv, NewMemStore(), xen.NewArena(dom0), &passGuard{}, ManagerConfig{
		RSABits: testBits, EKPoolSize: 2,
	})
	defer mgr.Close()
	// The pool fills in the background; with or without a pooled key,
	// creation must succeed and produce distinct instances.
	a, err := mgr.CreateInstance()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.CreateInstance()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("duplicate instance IDs")
	}
}
