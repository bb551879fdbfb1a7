package vtpm

import (
	"errors"
	"testing"

	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
)

// newProfileMgr builds a manager for the profile tests with full control of
// the ManagerConfig (the pinning tests set cfg.Profile).
func newProfileMgr(t *testing.T, cfg ManagerConfig) *Manager {
	t.Helper()
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 2048})
	dom0, err := hv.Domain(xen.Dom0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RSABits == 0 {
		cfg.RSABits = testBits
	}
	if cfg.Seed == nil {
		cfg.Seed = []byte("profile-test")
	}
	mgr := NewManager(hv, NewMemStore(), xen.NewArena(dom0), &passGuard{}, cfg)
	t.Cleanup(func() {
		if err := mgr.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return mgr
}

// TestCrossProfileImportRejected covers the two cross-profile refusals of
// the inbound path, AdoptCheckpoint: a destination pinned to one profile
// refuses checkpoints of the other, and a checkpoint whose declared profile
// disagrees with the engine state it carries is refused even on an unpinned
// destination. Both must surface ErrProfileMismatch and commit nothing.
func TestCrossProfileImportRejected(t *testing.T) {
	src := newProfileMgr(t, ManagerConfig{})
	committed := func(p tpm.Profile) (InstanceID, []byte) {
		t.Helper()
		id, err := src.CreateInstanceProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := src.Store().Get(stateName(id))
		if err != nil {
			t.Fatal(err)
		}
		if declared, _, err := UnwrapCheckpoint(blob); err != nil || declared != p {
			t.Fatalf("checkpoint declares %s (%v), want %s", declared, err, p)
		}
		return id, blob
	}
	refused := func(m *Manager, id InstanceID, blob []byte, what string) {
		t.Helper()
		if _, err := m.AdoptCheckpoint(id, blob); !errors.Is(err, ErrProfileMismatch) {
			t.Fatalf("%s: err = %v, want ErrProfileMismatch", what, err)
		}
		if ids := m.Instances(); len(ids) != 0 {
			t.Fatalf("%s left instances %v registered", what, ids)
		}
		if names, _ := m.Store().List(); len(names) != 0 {
			t.Fatalf("%s left blobs %v stored", what, names)
		}
	}
	id, blob := committed(tpm.Profile20)

	// A 1.2-pinned destination refuses the 2.0 checkpoint.
	refused(newProfileMgr(t, ManagerConfig{Profile: tpm.Profile12}), id, blob, "1.2-pinned adoption of a 2.0 checkpoint")

	// A 2.0-pinned destination refuses a 1.2 checkpoint.
	id12, blob12 := committed(tpm.Profile12)
	refused(newProfileMgr(t, ManagerConfig{Profile: tpm.Profile20}), id12, blob12, "2.0-pinned adoption of a 1.2 checkpoint")

	// A checkpoint lying about its profile (declares 1.2, carries 2.0 state)
	// is refused by the declared-vs-actual cross-check on any destination.
	lying := append([]byte(nil), blob...)
	lying[len(ckptMagic)+1] = byte(tpm.Profile12)
	refused(newProfileMgr(t, ManagerConfig{}), id, lying, "adoption of a mislabeled checkpoint")

	// Honest adoption on an unpinned destination works and keeps the profile.
	open := newProfileMgr(t, ManagerConfig{})
	got, err := open.AdoptCheckpoint(id, blob)
	if err != nil {
		t.Fatalf("honest 2.0 adoption on unpinned manager: %v", err)
	}
	info, err := open.InstanceInfo(got)
	if err != nil {
		t.Fatal(err)
	}
	if info.Profile != tpm.Profile20 {
		t.Fatalf("adopted instance runs %s, want 2.0", info.Profile)
	}
}

// TestCheckpointRestoreCrossProfileRejected covers the at-rest flavor of the
// same invariant: a checkpoint whose plaintext profile header disagrees with
// the engine state inside the guard envelope must not restore.
func TestCheckpointRestoreCrossProfileRejected(t *testing.T) {
	eng2, err := tpm.New2(tpm.Config{RSABits: testBits, Seed: []byte("xck")})
	if err != nil {
		t.Fatal(err)
	}
	blob := appendCheckpointHeader(nil, tpm.Profile12, 0)
	blob = append(blob, eng2.SaveState()...)
	profile, envelope, err := UnwrapCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoreDeclaredEngine(profile, envelope); !errors.Is(err, ErrProfileMismatch) {
		t.Fatalf("restore of 2.0 state under 1.2 header: err = %v, want ErrProfileMismatch", err)
	}
}
