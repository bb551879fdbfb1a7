//go:build !race

// Alloc-regression guard for the zero-alloc dispatch hot path. The race
// detector instruments allocations, so the guard only runs in normal test
// builds. Budgets are ~2× the measured steady-state cost so the guard trips
// on a reintroduced per-command allocation, not on scheduler noise from the
// write-behind worker.
package xvtpm_test

import (
	"testing"

	"xvtpm"
	"xvtpm/internal/core"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// allocGuardRig builds a writeback-policy manager with a bound domain and
// returns a dispatch function for the given payload.
func allocGuardRig(t *testing.T) (*vtpm.Manager, *xen.Domain) {
	t.Helper()
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 8192})
	dom0, err := hv.Domain(xen.Dom0)
	if err != nil {
		t.Fatal(err)
	}
	mgr := vtpm.NewManager(hv, vtpm.NewMemStore(), xen.NewArena(dom0),
		core.NewBaselineGuard(), vtpm.ManagerConfig{
			RSABits: 512, Seed: []byte("allocguard"),
			Checkpoint: vtpm.CheckpointWriteback,
		})
	t.Cleanup(func() {
		if err := mgr.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	dom, err := hv.CreateDomain(xen.DomainConfig{Name: "ag", Kernel: []byte("agk")})
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
	return mgr, dom
}

func buildCmd(ordinal uint32, params []byte) []byte {
	w := tpm.NewWriter()
	w.U16(tpm.TagRQUCommand)
	w.U32(uint32(10 + len(params)))
	w.U32(ordinal)
	w.Raw(params)
	return w.Bytes()
}

func TestDispatchAllocBudget(t *testing.T) {
	extendParams := tpm.NewWriter()
	extendParams.U32(7)
	extendParams.Raw(make([]byte, tpm.DigestSize))
	getRandomParams := tpm.NewWriter()
	getRandomParams.U32(16)
	cases := []struct {
		name    string
		payload []byte
		budget  float64
	}{
		// GetRandom does not mutate state: its steady cost is the one
		// exact-size response allocation.
		{"GetRandom", buildCmd(tpm.OrdGetRandom, getRandomParams.Bytes()), 3},
		// Extend is checkpointed: the response allocation plus the
		// write-behind pipeline's amortized persist cost.
		{"Extend", buildCmd(tpm.OrdExtend, extendParams.Bytes()), 6},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mgr, dom := allocGuardRig(t)
			// Warm scratch buffers (engine serialize/seal arenas, DRBG
			// output) before measuring.
			for i := 0; i < 100; i++ {
				if _, err := mgr.Dispatch(dom.ID(), dom.Launch(), tc.payload); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(500, func() {
				if _, err := mgr.Dispatch(dom.ID(), dom.Launch(), tc.payload); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.budget {
				t.Fatalf("Dispatch(%s) allocates %.2f objects/op, budget %.0f", tc.name, got, tc.budget)
			}
		})
	}
}

// TestGuestAllocBudget guards the end-to-end guest path: client encode,
// channel seal, ring, backend dispatch, ring back, open, decode. The seed
// tree spent 87 objects per command here; the pipelined-transport work
// brought it to 8 (GetRandom) — one of which is the caller-owned response
// buffer Transmit must allocate per command so concurrent users of one
// client never read a recycled frontend buffer. Budgets sit at the measured
// floor so a single reintroduced per-command allocation anywhere in the
// stack trips the guard.
func TestGuestAllocBudget(t *testing.T) {
	h, err := xvtpm.NewHost(xvtpm.HostConfig{
		Name: "alloc-guest", Mode: xvtpm.ModeImproved, RSABits: 512,
		// Writeback checkpointing, as in the dispatch-level guard above:
		// eager persistence reseals the state envelope per Extend, which is
		// a persistence cost, not a transport one.
		Checkpoint: vtpm.CheckpointWriteback,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := h.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	// The profile is pinned explicitly: these budgets describe the 1.2 hot
	// path, and they must hold with the engine behind the tpm.Engine
	// interface (the devirtualized seed numbers are the same — the interface
	// call itself allocates nothing).
	g, err := h.CreateGuest(xvtpm.GuestConfig{Name: "ag", Kernel: []byte("agk"), Profile: tpm.Profile12})
	if err != nil {
		t.Fatal(err)
	}
	// The shipped defaults — eager checkpoints over the flat store, improved
	// guard — on a host of their own: every Extend pays one synchronous
	// checkpoint (serialize, seal, store write, mirror rewrite) before its
	// response, and of that only the per-envelope AES block and HMAC may
	// allocate. The budget sits at the measured floor.
	eager, err := xvtpm.NewHost(xvtpm.HostConfig{Name: "alloc-eager", Mode: xvtpm.ModeImproved, RSABits: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := eager.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	ge, err := eager.CreateGuest(xvtpm.GuestConfig{Name: "age", Kernel: []byte("agek"), Profile: tpm.Profile12})
	if err != nil {
		t.Fatal(err)
	}
	var meas [20]byte
	cases := []struct {
		name   string
		op     func() error
		budget float64
	}{
		{"GuestGetRandom", func() error { _, err := g.TPM.GetRandom(16); return err }, 8},
		{"GuestExtend", func() error { _, err := g.TPM.Extend(7, meas); return err }, 9},
		{"GuestExtendEager", func() error { _, err := ge.TPM.Extend(7, meas); return err }, 16},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 100; i++ { // warm codec, scratch and response buffers
				if err := tc.op(); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(500, func() {
				if err := tc.op(); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.budget {
				t.Fatalf("%s allocates %.2f objects/op, budget %.0f", tc.name, got, tc.budget)
			}
		})
	}
}
