package xen

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func newHost(t *testing.T) *Hypervisor {
	t.Helper()
	return NewHypervisor(DomainConfig{Name: "Domain-0"})
}

func mkGuest(t *testing.T, h *Hypervisor, name string) *Domain {
	t.Helper()
	d, err := h.CreateDomain(DomainConfig{
		Name:    name,
		Kernel:  []byte("vmlinuz-" + name),
		Cmdline: "root=/dev/xvda1",
	})
	if err != nil {
		t.Fatalf("CreateDomain(%s): %v", name, err)
	}
	return d
}

func TestDom0ExistsAndPrivileged(t *testing.T) {
	h := newHost(t)
	d0, err := h.Domain(Dom0)
	if err != nil {
		t.Fatalf("dom0 missing: %v", err)
	}
	if d0.Name() != "Domain-0" || d0.ID() != Dom0 {
		t.Fatalf("dom0 = %q id %d", d0.Name(), d0.ID())
	}
	if _, err := h.DumpCore(Dom0, Dom0); err != nil {
		t.Fatalf("dom0 dump of itself: %v", err)
	}
}

func TestCreateDomainAssignsIncreasingIDs(t *testing.T) {
	h := newHost(t)
	a := mkGuest(t, h, "a")
	b := mkGuest(t, h, "b")
	if a.ID() == Dom0 || b.ID() == Dom0 || b.ID() <= a.ID() {
		t.Fatalf("ids: a=%d b=%d", a.ID(), b.ID())
	}
	if a.State() != StateRunning {
		t.Fatalf("new domain state = %v", a.State())
	}
}

func TestCreateDomainRequiresName(t *testing.T) {
	h := newHost(t)
	if _, err := h.CreateDomain(DomainConfig{}); err == nil {
		t.Fatal("unnamed domain accepted")
	}
}

func TestLaunchDigestDependsOnPayload(t *testing.T) {
	a := MeasureLaunch([]byte("k1"), []byte("i1"), "c")
	b := MeasureLaunch([]byte("k1"), []byte("i1"), "c")
	c := MeasureLaunch([]byte("k2"), []byte("i1"), "c")
	d := MeasureLaunch([]byte("k1"), []byte("i2"), "c")
	e := MeasureLaunch([]byte("k1"), []byte("i1"), "x")
	if a != b {
		t.Fatal("measurement not deterministic")
	}
	if a == c || a == d || a == e {
		t.Fatal("measurement insensitive to payload change")
	}
}

func TestPauseUnpauseShutdownStates(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	if err := h.Pause(Dom0, g.ID()); err != nil {
		t.Fatal(err)
	}
	if g.State() != StatePaused {
		t.Fatalf("state = %v", g.State())
	}
	if err := h.Pause(Dom0, g.ID()); !errors.Is(err, ErrBadState) {
		t.Fatalf("double pause err = %v", err)
	}
	if err := h.Unpause(Dom0, g.ID()); err != nil {
		t.Fatal(err)
	}
	if err := h.Shutdown(g.ID(), g.ID()); err != nil {
		t.Fatalf("self shutdown: %v", err)
	}
	if g.State() != StateShutdown {
		t.Fatalf("state = %v", g.State())
	}
}

func TestUnprivilegedDomctlDenied(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	v := mkGuest(t, h, "victim")
	if err := h.Pause(g.ID(), v.ID()); !errors.Is(err, ErrNotPrivileged) {
		t.Fatalf("pause err = %v", err)
	}
	if _, err := h.DumpCore(g.ID(), v.ID()); !errors.Is(err, ErrNotPrivileged) {
		t.Fatalf("dump err = %v", err)
	}
	if err := h.Shutdown(g.ID(), v.ID()); !errors.Is(err, ErrNotPrivileged) {
		t.Fatalf("shutdown err = %v", err)
	}
	if err := h.DestroyDomain(g.ID(), v.ID()); !errors.Is(err, ErrNotPrivileged) {
		t.Fatalf("destroy err = %v", err)
	}
}

func TestPageAllocationAndAliasing(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	first, err := g.AllocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := g.Page(first)
	if err != nil {
		t.Fatal(err)
	}
	copy(p0, "written-via-page")
	run, err := g.PageRun(first, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(run, []byte("written-via-page")) {
		t.Fatal("PageRun does not alias Page memory")
	}
	if len(run) != 2*PageSize {
		t.Fatalf("run len = %d", len(run))
	}
}

func TestAllocPagesExhaustion(t *testing.T) {
	h := newHost(t)
	g, err := h.CreateDomain(DomainConfig{Name: "tiny", Pages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AllocPages(5); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.AllocPages(4); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AllocPages(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v", err)
	}
}

func TestDumpCoreSeesGuestMemory(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	first, _ := g.AllocPages(1)
	p, _ := g.Page(first)
	secret := []byte("AKIA-FAKE-CLOUD-CREDENTIAL")
	copy(p, secret)
	img, err := h.DumpCore(Dom0, g.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(img, secret) {
		t.Fatal("dump does not contain guest memory contents")
	}
}

func TestDumpCoreHookObserves(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	var seen DomID
	h.OnDumpCore(func(target DomID, img []byte) { seen = target })
	if _, err := h.DumpCore(Dom0, g.ID()); err != nil {
		t.Fatal(err)
	}
	if seen != g.ID() {
		t.Fatalf("hook saw dom%d, want dom%d", seen, g.ID())
	}
}

func TestDestroyScrubsMemoryAndRemovesDomain(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	first, _ := g.AllocPages(1)
	p, _ := g.Page(first)
	copy(p, "residual-secret")
	if err := h.DestroyDomain(Dom0, g.ID()); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(p, []byte("residual-secret")) {
		t.Fatal("destroyed domain memory not scrubbed")
	}
	if _, err := h.Domain(g.ID()); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("lookup after destroy err = %v", err)
	}
	if err := h.DestroyDomain(Dom0, Dom0); err == nil {
		t.Fatal("dom0 destroy accepted")
	}
}

func TestGrantMapRoundTrip(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "front")
	back := mkGuest(t, h, "backend")
	first, _ := g.AllocPages(1)
	ref, err := g.Grant(back.ID(), first, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.MapGrant(back.ID(), g.ID(), ref)
	if err != nil {
		t.Fatal(err)
	}
	copy(m.Bytes(), "backend-wrote-this")
	p, _ := g.Page(first)
	if !bytes.HasPrefix(p, []byte("backend-wrote-this")) {
		t.Fatal("mapping does not alias granter memory")
	}
	m.Unmap()
	m.Unmap() // idempotent
	if err := g.Revoke(ref); err != nil {
		t.Fatalf("revoke after unmap: %v", err)
	}
}

func TestGrantDeniedForWrongPeer(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "front")
	back := mkGuest(t, h, "backend")
	thief := mkGuest(t, h, "thief")
	first, _ := g.AllocPages(1)
	ref, _ := g.Grant(back.ID(), first, false)
	if _, err := h.MapGrant(thief.ID(), g.ID(), ref); !errors.Is(err, ErrGrantDenied) {
		t.Fatalf("err = %v, want ErrGrantDenied", err)
	}
}

func TestRevokeWhileMappedFails(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "front")
	back := mkGuest(t, h, "backend")
	first, _ := g.AllocPages(1)
	ref, _ := g.Grant(back.ID(), first, false)
	m, err := h.MapGrant(back.ID(), g.ID(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Revoke(ref); !errors.Is(err, ErrGrantInUse) {
		t.Fatalf("revoke while mapped err = %v", err)
	}
	m.Unmap()
	if err := g.Revoke(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := h.MapGrant(back.ID(), g.ID(), ref); !errors.Is(err, ErrGrantRevoked) {
		t.Fatalf("map after revoke err = %v", err)
	}
}

func TestGrantRunContiguousMapping(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "front")
	back := mkGuest(t, h, "backend")
	first, _ := g.AllocPages(3)
	refs, err := g.GrantRun(back.ID(), first, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.MapGrantRun(back.ID(), g.ID(), refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Bytes()) != 3*PageSize {
		t.Fatalf("run mapping len = %d", len(m.Bytes()))
	}
	// Write at a page boundary and confirm via individual pages.
	m.Bytes()[PageSize] = 0xAB
	p1, _ := g.Page(first + 1)
	if p1[0] != 0xAB {
		t.Fatal("run mapping not contiguous over page boundary")
	}
	m.Unmap()
	for _, r := range refs {
		if err := g.Revoke(r); err != nil {
			t.Fatalf("revoke %d: %v", r, err)
		}
	}
}

func TestMapGrantRunRejectsNonContiguous(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "front")
	back := mkGuest(t, h, "backend")
	first, _ := g.AllocPages(3)
	r0, _ := g.Grant(back.ID(), first, false)
	r2, _ := g.Grant(back.ID(), first+2, false)
	if _, err := h.MapGrantRun(back.ID(), g.ID(), []GrantRef{r0, r2}); !errors.Is(err, ErrBadGrant) {
		t.Fatalf("err = %v, want ErrBadGrant", err)
	}
}

func TestEventChannelNotifyWait(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	ec := h.EventChannels()
	gPort := ec.AllocUnbound(g.ID(), Dom0)
	d0Port, err := ec.BindInterdomain(Dom0, g.ID(), gPort)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ec.Wait(g.ID(), gPort) }()
	if err := ec.Notify(Dom0, d0Port); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Notify in the other direction queues until consumed.
	if err := ec.Notify(g.ID(), gPort); err != nil {
		t.Fatal(err)
	}
	n, err := ec.Pending(Dom0, d0Port)
	if err != nil || n != 1 {
		t.Fatalf("pending = %d, %v", n, err)
	}
	if err := ec.Wait(Dom0, d0Port); err != nil {
		t.Fatal(err)
	}
}

func TestEventChannelWrongOwnerRejected(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	ec := h.EventChannels()
	port := ec.AllocUnbound(g.ID(), Dom0)
	if err := ec.Notify(Dom0, port); !errors.Is(err, ErrPortMismatch) {
		t.Fatalf("notify err = %v", err)
	}
	if _, err := ec.BindInterdomain(g.ID(), g.ID(), port); !errors.Is(err, ErrPortMismatch) {
		t.Fatalf("bad bind err = %v", err)
	}
}

func TestEventChannelCloseUnblocksWaiter(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	ec := h.EventChannels()
	gPort := ec.AllocUnbound(g.ID(), Dom0)
	if _, err := ec.BindInterdomain(Dom0, g.ID(), gPort); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ec.Wait(g.ID(), gPort) }()
	if err := ec.Close(g.ID(), gPort); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("wait err = %v", err)
	}
}

func TestDestroyClosesDomainChannels(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	ec := h.EventChannels()
	gPort := ec.AllocUnbound(g.ID(), Dom0)
	d0Port, _ := ec.BindInterdomain(Dom0, g.ID(), gPort)
	done := make(chan error, 1)
	go func() { done <- ec.Wait(Dom0, d0Port) }()
	if err := h.DestroyDomain(Dom0, g.ID()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("wait err = %v", err)
	}
}

func TestSaveRestorePreservesMemoryAndIdentity(t *testing.T) {
	src := newHost(t)
	dst := NewHypervisor(DomainConfig{Name: "Domain-0"})
	g := mkGuest(t, src, "traveler")
	first, _ := g.AllocPages(1)
	p, _ := g.Page(first)
	copy(p, "migrate-me")
	img, err := src.SaveDomain(Dom0, g.ID())
	if err != nil {
		t.Fatal(err)
	}
	if g.State() != StateSuspended {
		t.Fatalf("source state = %v", g.State())
	}
	r, err := dst.RestoreDomain(Dom0, img)
	if err != nil {
		t.Fatal(err)
	}
	if r.Launch() != g.Launch() {
		t.Fatal("launch measurement lost in migration")
	}
	rp, _ := r.Page(first)
	if !bytes.HasPrefix(rp, []byte("migrate-me")) {
		t.Fatal("memory lost in migration")
	}
}

func TestSaveDomainBadState(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	if _, err := h.SaveDomain(Dom0, g.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.SaveDomain(Dom0, g.ID()); !errors.Is(err, ErrBadState) {
		t.Fatalf("second save err = %v", err)
	}
}

func TestArenaAllocWritesVisibleInDump(t *testing.T) {
	h := newHost(t)
	d0, _ := h.Domain(Dom0)
	a := NewArena(d0)
	buf, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "manager-plaintext-secret")
	img, err := h.DumpCore(Dom0, Dom0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(img, []byte("manager-plaintext-secret")) {
		t.Fatal("arena memory not visible in dom0 dump")
	}
	a.Bus().Zeroize(buf)
	img, _ = h.DumpCore(Dom0, Dom0)
	if bytes.Contains(img, []byte("manager-plaintext-secret")) {
		t.Fatal("zeroized buffer still visible in dump")
	}
}

func TestArenaAllocSizesProperty(t *testing.T) {
	h := newHost(t)
	d0, _ := h.Domain(Dom0)
	a := NewArena(d0)
	f := func(sz uint16) bool {
		n := int(sz%2048) + 1
		b, err := a.Alloc(n)
		if err != nil {
			// Exhaustion is acceptable; anything else is not.
			return errors.Is(err, ErrOutOfMemory)
		}
		if len(b) != n {
			return false
		}
		for _, c := range b {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestArenaConcurrentAllocDisjoint(t *testing.T) {
	h := newHost(t)
	d0, _ := h.Domain(Dom0)
	a := NewArena(d0)
	const workers, per = 8, 50
	bufs := make(chan []byte, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b, err := a.Alloc(32)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				for j := range b {
					b[j] = byte(w + 1)
				}
				bufs <- b
			}
		}(w)
	}
	wg.Wait()
	close(bufs)
	for b := range bufs {
		first := b[0]
		for _, c := range b {
			if c != first {
				t.Fatal("overlapping arena allocations detected")
			}
		}
	}
}

func TestCPUAccounting(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	g.ChargeCPU(1500)
	g.ChargeCPU(500)
	if got := g.CPUNanos(); got != 2000 {
		t.Fatalf("CPUNanos = %d", got)
	}
}

func TestDomainsSortedListing(t *testing.T) {
	h := newHost(t)
	mkGuest(t, h, "a")
	mkGuest(t, h, "b")
	mkGuest(t, h, "c")
	ds := h.Domains()
	if len(ds) != 4 {
		t.Fatalf("len = %d", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i-1].ID() >= ds[i].ID() {
			t.Fatal("domains not sorted by ID")
		}
	}
}

// TestDestroyLeavesMappedPagesToLastUnmap checks grant-pinned pages: a
// domain destroyed while dom0 maps two of its pages keeps those pages'
// bytes until the last mapping goes, while every page nobody maps is
// scrubbed at once. The last Unmap then scrubs the pinned pages, and the
// dead domain's grants can no longer be mapped.
func TestDestroyLeavesMappedPagesToLastUnmap(t *testing.T) {
	h := newHost(t)
	g := mkGuest(t, h, "g")
	first, err := g.AllocPages(3)
	if err != nil {
		t.Fatal(err)
	}
	pages := make([][]byte, 3)
	for i := range pages {
		if pages[i], err = g.Page(first + i); err != nil {
			t.Fatal(err)
		}
		for j := range pages[i] {
			pages[i][j] = byte(0xA0 + i)
		}
	}
	refs, err := g.GrantRun(Dom0, first, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := h.MapGrantRun(Dom0, g.ID(), refs)
	if err != nil {
		t.Fatal(err)
	}
	// A second mapping of the first page alone: that page stays pinned
	// until both are gone.
	head, err := h.MapGrant(Dom0, g.ID(), refs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyDomain(Dom0, g.ID()); err != nil {
		t.Fatal(err)
	}
	allZero := func(p []byte) bool { return bytes.Count(p, []byte{0}) == len(p) }
	if !allZero(pages[2]) {
		t.Fatal("unmapped page not scrubbed at destroy")
	}
	if pages[0][0] != 0xA0 || pages[1][0] != 0xA1 || !bytes.Equal(ring.Bytes()[:PageSize], pages[0]) {
		t.Fatal("page still mapped by dom0 was scrubbed at destroy")
	}
	if _, err := h.MapGrant(Dom0, g.ID(), refs[1]); err == nil {
		t.Fatal("grant of a destroyed domain mapped")
	}
	ring.Unmap()
	if !allZero(pages[1]) {
		t.Fatal("page not scrubbed by its last Unmap")
	}
	if allZero(pages[0]) {
		t.Fatal("page scrubbed while another mapping still holds it")
	}
	head.Unmap()
	head.Unmap() // idempotent: scrubs nothing twice, panics on nothing
	if !allZero(pages[0]) {
		t.Fatal("page not scrubbed by its last Unmap")
	}
}
