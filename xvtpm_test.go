package xvtpm

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"fmt"
	"sync"
	"testing"

	"xvtpm/internal/core"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
)

const testBits = 512

func authOf(s string) (a [tpm.AuthSize]byte) {
	h := sha1.Sum([]byte(s))
	copy(a[:], h[:])
	return a
}

var (
	gOwner = authOf("guest-owner")
	gSRK   = authOf("guest-srk")
	gData  = authOf("guest-data")
)

func newTestHost(t testing.TB, name string, mode Mode) *Host {
	t.Helper()
	h, err := NewHost(HostConfig{Name: name, Mode: mode, RSABits: testBits, Seed: []byte("seed-" + name)})
	if err != nil {
		t.Fatalf("NewHost(%s): %v", name, err)
	}
	t.Cleanup(func() {
		if err := h.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return h
}

func newTestGuest(t testing.TB, h *Host, name string) *Guest {
	t.Helper()
	g, err := h.CreateGuest(GuestConfig{Name: name, Kernel: []byte("vmlinuz-" + name)})
	if err != nil {
		t.Fatalf("CreateGuest(%s): %v", name, err)
	}
	return g
}

// ownGuestTPM takes ownership of a guest's vTPM over the full command path.
func ownGuestTPM(t testing.TB, g *Guest) {
	t.Helper()
	if _, err := g.TPM.TakeOwnership(gOwner, gSRK); err != nil {
		t.Fatalf("guest TakeOwnership: %v", err)
	}
}

func testBothModes(t *testing.T, fn func(t *testing.T, mode Mode)) {
	t.Helper()
	for _, mode := range []Mode{ModeBaseline, ModeImproved} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) { fn(t, mode) })
	}
}

func TestGuestFullTPMSessionOverRing(t *testing.T) {
	testBothModes(t, func(t *testing.T, mode Mode) {
		h := newTestHost(t, "host-"+mode.String(), mode)
		g := newTestGuest(t, h, "web")
		// Measure, own, seal, unseal — all over ring + guard.
		m := sha1.Sum([]byte("app-binary"))
		if _, err := g.TPM.Extend(10, m); err != nil {
			t.Fatalf("Extend: %v", err)
		}
		ownGuestTPM(t, g)
		secret := []byte("database-master-key")
		blob, err := g.TPM.Seal(tpm.KHSRK, gSRK, gData, nil, secret)
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		got, err := g.TPM.Unseal(tpm.KHSRK, gSRK, gData, blob)
		if err != nil || !bytes.Equal(got, secret) {
			t.Fatalf("Unseal: %v %q", err, got)
		}
		// Random over the ring.
		rnd, err := g.TPM.GetRandom(32)
		if err != nil || len(rnd) != 32 {
			t.Fatalf("GetRandom: %v", err)
		}
	})
}

func TestGuestsAreIsolated(t *testing.T) {
	testBothModes(t, func(t *testing.T, mode Mode) {
		h := newTestHost(t, "iso-"+mode.String(), mode)
		a := newTestGuest(t, h, "a")
		b := newTestGuest(t, h, "b")
		ma := sha1.Sum([]byte("a-measurement"))
		if _, err := a.TPM.Extend(12, ma); err != nil {
			t.Fatal(err)
		}
		va, _ := a.TPM.PCRRead(12)
		vb, _ := b.TPM.PCRRead(12)
		if va == vb {
			t.Fatal("guest B sees guest A's PCR state")
		}
		if vb != ([tpm.DigestSize]byte{}) {
			t.Fatal("guest B PCR not pristine")
		}
	})
}

func TestConcurrentGuestsSeparateInstances(t *testing.T) {
	h := newTestHost(t, "conc", ModeImproved)
	const n = 4
	guests := make([]*Guest, n)
	for i := range guests {
		guests[i] = newTestGuest(t, h, fmt.Sprintf("g%d", i))
	}
	var wg sync.WaitGroup
	for i, g := range guests {
		wg.Add(1)
		go func(i int, g *Guest) {
			defer wg.Done()
			m := sha1.Sum([]byte{byte(i)})
			for j := 0; j < 20; j++ {
				if _, err := g.TPM.Extend(8, m); err != nil {
					t.Errorf("guest %d extend %d: %v", i, j, err)
					return
				}
			}
		}(i, g)
	}
	wg.Wait()
	// Each guest's PCR 8 must be the 20-fold extension of its own digest.
	for i, g := range guests {
		var want [tpm.DigestSize]byte
		m := sha1.Sum([]byte{byte(i)})
		for j := 0; j < 20; j++ {
			s := sha1.New()
			s.Write(want[:])
			s.Write(m[:])
			copy(want[:], s.Sum(nil))
		}
		got, _ := g.TPM.PCRRead(8)
		if got != want {
			t.Fatalf("guest %d PCR8 = %x, want %x", i, got, want)
		}
	}
}

func TestDestroyGuestReleasesResources(t *testing.T) {
	h := newTestHost(t, "destroy", ModeImproved)
	g := newTestGuest(t, h, "victim")
	inst := g.Instance
	if err := h.DestroyGuest(g); err != nil {
		t.Fatalf("DestroyGuest: %v", err)
	}
	if _, err := h.Manager.InstanceInfo(inst); !errors.Is(err, vtpm.ErrNoInstance) {
		t.Fatalf("instance survives: %v", err)
	}
	if _, err := g.TPM.GetRandom(4); err == nil {
		t.Fatal("destroyed guest's TPM still answers")
	}
	// Host accepts a replacement guest.
	newTestGuest(t, h, "replacement")
}

func TestManagerRestartRevivesInstances(t *testing.T) {
	// Improved mode: state comes back through the sealed envelope path.
	h := newTestHost(t, "restart", ModeImproved)
	g := newTestGuest(t, h, "persistent")
	m := sha1.Sum([]byte("measurement"))
	if _, err := g.TPM.Extend(5, m); err != nil {
		t.Fatal(err)
	}
	want, _ := g.TPM.PCRRead(5)
	inst := g.Instance
	// Simulate a manager restart: detach, drop the live instance, revive
	// from the store.
	g.Frontend.Close()
	if err := h.Backend.DetachDevice(g.Dom.ID()); err != nil {
		t.Fatal(err)
	}
	if err := h.Manager.UnbindInstance(inst); err != nil {
		t.Fatal(err)
	}
	// Forget the live engine (restart) while keeping the store blob.
	blob, err := h.Store.Get(fmt.Sprintf("vtpm-%08d.state", inst))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Manager.DestroyInstance(inst); err != nil {
		t.Fatal(err)
	}
	if err := h.Store.Put(fmt.Sprintf("vtpm-%08d.state", inst), blob); err != nil {
		t.Fatal(err)
	}
	if err := h.Manager.ReviveInstance(inst); err != nil {
		t.Fatalf("ReviveInstance: %v", err)
	}
	cli, err := h.Manager.DirectClient(inst)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cli.PCRRead(5)
	if err != nil || got != want {
		t.Fatalf("revived PCR5 = %x (%v), want %x", got, err, want)
	}
}

func TestImprovedGuardAuditsGuestTraffic(t *testing.T) {
	h := newTestHost(t, "audited", ModeImproved)
	g := newTestGuest(t, h, "w")
	if _, err := g.TPM.GetRandom(8); err != nil {
		t.Fatal(err)
	}
	ig, ok := h.ImprovedGuard()
	if !ok {
		t.Fatal("improved host lacks improved guard")
	}
	if ig.Audit().Len() == 0 {
		t.Fatal("no audit records for guest traffic")
	}
	if err := ig.Audit().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestImprovedPolicyDenialSurfacesAsTPMError(t *testing.T) {
	h := newTestHost(t, "denial", ModeImproved)
	g := newTestGuest(t, h, "w")
	ig, _ := h.ImprovedGuard()
	// Revoke the guest's RNG access at runtime.
	ig.Policy().Prepend(core.Rule{
		Identity: g.Dom.Launch(), Instance: g.Instance, Group: core.GroupRandom, Effect: core.Deny,
	})
	if _, err := g.TPM.GetRandom(8); !tpm.IsTPMError(err, vtpm.RCGuardDenied) {
		t.Fatalf("err = %v, want RCGuardDenied", err)
	}
	// Other groups still work.
	if _, err := g.TPM.PCRRead(0); err != nil {
		t.Fatalf("PCRRead after partial revoke: %v", err)
	}
}

func TestHostAuditAnchorEndToEnd(t *testing.T) {
	h := newTestHost(t, "anchored", ModeImproved)
	g := newTestGuest(t, h, "w")
	if err := h.EnableAuditAnchor(); err != nil {
		t.Fatalf("EnableAuditAnchor: %v", err)
	}
	if err := h.EnableAuditAnchor(); err != nil {
		t.Fatalf("second enable not idempotent: %v", err)
	}
	if _, err := g.TPM.GetRandom(8); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AnchorAudit(); err != nil {
		t.Fatalf("AnchorAudit: %v", err)
	}
	if err := h.VerifyAuditAgainstAnchor(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// More traffic makes the anchor stale until re-anchored.
	if _, err := g.TPM.GetRandom(8); err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyAuditAgainstAnchor(); err == nil {
		t.Fatal("stale anchor verified")
	}
	if _, err := h.AnchorAudit(); err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyAuditAgainstAnchor(); err != nil {
		t.Fatal(err)
	}
	// Baseline hosts cannot anchor.
	hb := newTestHost(t, "anchored-base", ModeBaseline)
	if err := hb.EnableAuditAnchor(); err == nil {
		t.Fatal("baseline host enabled anchoring")
	}
}

func TestRateLimitThroughFullPath(t *testing.T) {
	h := newTestHost(t, "limited", ModeImproved)
	g := newTestGuest(t, h, "w")
	ig, _ := h.ImprovedGuard()
	ig.SetRateLimitFor(g.Instance, 10)
	throttled := false
	for i := 0; i < 30; i++ {
		_, err := g.TPM.PCRRead(0)
		if err != nil {
			if !tpm.IsTPMError(err, vtpm.RCGuardThrottled) {
				t.Fatalf("unexpected error: %v", err)
			}
			throttled = true
		}
	}
	if !throttled {
		t.Fatal("full-path traffic never throttled at 10 cmd/s")
	}
	// Clearing the limit restores service immediately.
	ig.SetRateLimitFor(g.Instance, 0)
	if _, err := g.TPM.PCRRead(0); err != nil {
		t.Fatalf("after clear: %v", err)
	}
}

func TestHostManagerRestartWithReviveAll(t *testing.T) {
	h := newTestHost(t, "reviveall", ModeImproved)
	g1 := newTestGuest(t, h, "a")
	g2 := newTestGuest(t, h, "b")
	m := sha1.Sum([]byte("x"))
	g1.TPM.Extend(6, m)
	g2.TPM.Extend(6, m)
	g2.TPM.Extend(6, m)
	want1, _ := g1.TPM.PCRRead(6)
	want2, _ := g2.TPM.PCRRead(6)
	// Orderly shutdown: detach everything, drop live instances, keep blobs.
	for _, g := range []*Guest{g1, g2} {
		g.Frontend.Close()
		h.Backend.DetachDevice(g.Dom.ID())
		h.Manager.UnbindInstance(g.Instance)
		blob, err := h.Store.Get(fmt.Sprintf("vtpm-%08d.state", g.Instance))
		if err != nil {
			t.Fatal(err)
		}
		h.Manager.DestroyInstance(g.Instance)
		h.Store.Put(fmt.Sprintf("vtpm-%08d.state", g.Instance), blob)
	}
	revived, err := h.Manager.ReviveAll()
	if err != nil {
		t.Fatalf("ReviveAll: %v", err)
	}
	if len(revived) != 2 {
		t.Fatalf("revived %d", len(revived))
	}
	c1, _ := h.Manager.DirectClient(g1.Instance)
	c2, _ := h.Manager.DirectClient(g2.Instance)
	v1, _ := c1.PCRRead(6)
	v2, _ := c2.PCRRead(6)
	if v1 != want1 || v2 != want2 {
		t.Fatal("state lost across restart")
	}
}

func TestSuspendResumeGuest(t *testing.T) {
	testBothModes(t, func(t *testing.T, mode Mode) {
		h := newTestHost(t, "susp-"+mode.String(), mode)
		g := newTestGuest(t, h, "sleeper")
		m := sha1.Sum([]byte("pre-suspend"))
		if _, err := g.TPM.Extend(8, m); err != nil {
			t.Fatal(err)
		}
		want, _ := g.TPM.PCRRead(8)
		ownGuestTPM(t, g)
		blob, err := g.TPM.Seal(tpm.KHSRK, gSRK, gData, nil, []byte("sleeps-with-me"))
		if err != nil {
			t.Fatal(err)
		}
		handle, err := h.SuspendGuest(g)
		if err != nil {
			t.Fatalf("SuspendGuest: %v", err)
		}
		// Suspended: no live domain for it, TPM unreachable.
		if _, err := g.TPM.GetRandom(4); err == nil {
			t.Fatal("suspended guest's TPM answers")
		}
		// Resume elsewhere in time.
		rg, err := h.ResumeGuest(handle)
		if err != nil {
			t.Fatalf("ResumeGuest: %v", err)
		}
		got, err := rg.TPM.PCRRead(8)
		if err != nil || got != want {
			t.Fatalf("PCR after resume: %x (%v), want %x", got, err, want)
		}
		out, err := rg.TPM.Unseal(tpm.KHSRK, gSRK, gData, blob)
		if err != nil || string(out) != "sleeps-with-me" {
			t.Fatalf("unseal after resume: %v %q", err, out)
		}
		// Double resume fails; unknown handle fails.
		if _, err := h.ResumeGuest(handle); err == nil {
			t.Fatal("double resume accepted")
		}
		if _, err := h.ResumeGuest("nobody"); err == nil {
			t.Fatal("unknown handle accepted")
		}
	})
}

// TestGuestLifecycleKeepsPolicyBounded walks the host-level arrival and
// departure paths — suspend/resume, load slots, destroy — and checks that
// the improved guard's policy holds exactly the default rules of the
// instances still on the host.
func TestGuestLifecycleKeepsPolicyBounded(t *testing.T) {
	h := newTestHost(t, "rules", ModeImproved)
	ig, _ := h.ImprovedGuard()
	g := newTestGuest(t, h, "web")
	per := len(core.DefaultGuestPolicy(g.Dom.Launch(), g.Instance))
	wantRules := func(tag string, n int) {
		t.Helper()
		if got := ig.Policy().Len(); got != n*per {
			t.Fatalf("%s: %d rules, want %d", tag, got, n*per)
		}
	}
	for i := 0; i < 3; i++ {
		handle, err := h.SuspendGuest(g)
		if err != nil {
			t.Fatal(err)
		}
		if g, err = h.ResumeGuest(handle); err != nil {
			t.Fatal(err)
		}
	}
	wantRules("after 3 resumes", 1)
	if _, err := g.TPM.GetRandom(4); err != nil {
		t.Fatalf("resumed guest refused: %v", err)
	}
	slot, err := h.OpenLoadSlot("load", tpm.AnyProfile)
	if err != nil {
		t.Fatal(err)
	}
	wantRules("with a load slot", 2)
	if err := h.CloseLoadSlot(slot); err != nil {
		t.Fatal(err)
	}
	wantRules("after closing the load slot", 1)
	if err := h.DestroyGuest(g); err != nil {
		t.Fatal(err)
	}
	wantRules("after destroy", 0)
}

// TestGuestChurnDropsGuardState creates, uses and destroys guests and checks
// the improved guard keeps channel and rate state only for the instances
// still on the host, while a guest created after the churn opens a fresh
// channel and is served.
func TestGuestChurnDropsGuardState(t *testing.T) {
	h := newTestHost(t, "churn", ModeImproved)
	ig, _ := h.ImprovedGuard()
	base := ig.InstanceStates()
	for i := 0; i < 20; i++ {
		g := newTestGuest(t, h, fmt.Sprintf("churn-%d", i))
		if _, err := g.TPM.GetRandom(4); err != nil {
			t.Fatalf("guest %d: %v", i, err)
		}
		if err := h.DestroyGuest(g); err != nil {
			t.Fatal(err)
		}
	}
	if got := ig.InstanceStates(); got != base {
		t.Fatalf("guard holds state for %d instances after churn, want %d", got, base)
	}
	g := newTestGuest(t, h, "after-churn")
	if _, err := g.TPM.GetRandom(4); err != nil {
		t.Fatalf("guest created after churn refused: %v", err)
	}
	if got := ig.InstanceStates(); got != base+1 {
		t.Fatalf("guard holds state for %d instances, want %d", got, base+1)
	}
}

// TestFederationJoinAfterCreateGuestRefused: a host that has already sealed
// a guest's vTPM state under its local root cannot switch to a federation
// root — the guest's checkpoints would stop opening — so the late join
// fails and the guest revives from its checkpoint as before. A join before
// any guest exists, as a cluster performs at boot, still succeeds.
func TestFederationJoinAfterCreateGuestRefused(t *testing.T) {
	secret := bytes.Repeat([]byte{0xfe}, 16)
	join := func(h *Host) error {
		t.Helper()
		wrapped, err := tpm.BindEncrypt(nil, h.MigrationIdentity(), secret)
		if err != nil {
			t.Fatal(err)
		}
		return h.FederationJoin(wrapped)
	}
	if err := join(newTestHost(t, "fed-early", ModeImproved)); err != nil {
		t.Fatalf("join on a fresh host: %v", err)
	}

	h := newTestHost(t, "fed-late", ModeImproved)
	g := newTestGuest(t, h, "sealed")
	if _, err := g.TPM.Extend(9, sha1.Sum([]byte("before the join"))); err != nil {
		t.Fatal(err)
	}
	want, err := g.TPM.PCRRead(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := join(h); !errors.Is(err, core.ErrLateFederationJoin) {
		t.Fatalf("FederationJoin after CreateGuest: err = %v, want ErrLateFederationJoin", err)
	}
	// Restart the instance from its stored checkpoint, as
	// TestManagerRestartRevivesInstances does.
	g.Frontend.Close()
	if err := h.Backend.DetachDevice(g.Dom.ID()); err != nil {
		t.Fatal(err)
	}
	if err := h.Manager.UnbindInstance(g.Instance); err != nil {
		t.Fatal(err)
	}
	name := vtpm.StateName(g.Instance)
	blob, err := h.Store.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Manager.DestroyInstance(g.Instance); err != nil {
		t.Fatal(err)
	}
	if err := h.Store.Put(name, blob); err != nil {
		t.Fatal(err)
	}
	if err := h.Manager.ReviveInstance(g.Instance); err != nil {
		t.Fatalf("checkpoint sealed before the refused join no longer revives: %v", err)
	}
	cli, err := h.Manager.DirectClient(g.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := cli.PCRRead(9); err != nil || got != want {
		t.Fatalf("revived PCR 9 = %x, %v; want %x", got, err, want)
	}
}

func TestHostRequiresNameAndKernel(t *testing.T) {
	if _, err := NewHost(HostConfig{}); err == nil {
		t.Fatal("unnamed host accepted")
	}
	h := newTestHost(t, "nk", ModeBaseline)
	if _, err := h.CreateGuest(GuestConfig{Name: "g"}); err == nil {
		t.Fatal("kernel-less guest accepted")
	}
}

func TestHostStatsAndGuests(t *testing.T) {
	h := newTestHost(t, "stats", ModeImproved)
	g := newTestGuest(t, h, "a")
	newTestGuest(t, h, "b")
	if _, err := g.TPM.GetRandom(4); err != nil {
		t.Fatal(err)
	}
	s := h.Stats()
	if s.Mode != ModeImproved || s.Guests != 2 || s.Instances != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.StoredBlobs != 2 || s.HWCommands == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AuditRecords == 0 || !s.AuditVerifies {
		t.Fatalf("audit stats = %+v", s)
	}
	if len(h.Guests()) != 2 {
		t.Fatalf("Guests() = %d", len(h.Guests()))
	}
	// Baseline stats carry no audit fields.
	hb := newTestHost(t, "stats-b", ModeBaseline)
	newTestGuest(t, hb, "c")
	sb := hb.Stats()
	if sb.AuditRecords != 0 || sb.AuditVerifies {
		t.Fatalf("baseline stats = %+v", sb)
	}
}
