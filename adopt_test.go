package xvtpm

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"strings"
	"testing"

	"xvtpm/internal/vtpm"
)

// fedHosts boots one test host per name in mode and joins them into one
// federation, so each can open the others' committed checkpoints.
func fedHosts(t *testing.T, mode Mode, names ...string) []*Host {
	t.Helper()
	hosts := make([]*Host, len(names))
	for i, name := range names {
		hosts[i] = newTestHost(t, name, mode)
	}
	if err := Federate(bytes.Repeat([]byte{0x5a}, 16), hosts...); err != nil {
		t.Fatal(err)
	}
	return hosts
}

// failPutStore fails every Put to one blob name.
type failPutStore struct {
	vtpm.Store
	name string
}

func (s *failPutStore) Put(name string, blob []byte) error {
	if name == s.name {
		return errors.New("injected store failure")
	}
	return s.Store.Put(name, blob)
}

// TestAdoptGuestCommitsFirstCheckpoint: an evacuated guest's adoption
// stores the instance's first checkpoint under its new local name before it
// returns — the blob a second evacuation revives from if this host dies
// before the fenced checkpoint — and that blob is a committed checkpoint in
// turn: a guest evacuated twice reads the PCR its first host extended.
func TestAdoptGuestCommitsFirstCheckpoint(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeImproved} {
		t.Run(mode.String(), func(t *testing.T) {
			hosts := fedHosts(t, mode, "adopt-src", "adopt-mid", "adopt-dst")
			src, mid, dst := hosts[0], hosts[1], hosts[2]
			spec := GuestConfig{Name: "evac", Kernel: []byte("vmlinuz-evac")}
			g, err := src.CreateGuest(spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := g.TPM.Extend(9, sha1.Sum([]byte("before the evacuation")))
			if err != nil {
				t.Fatal(err)
			}
			blob, err := src.Store.Get(vtpm.StateName(g.Instance))
			if err != nil {
				t.Fatal(err)
			}
			g2, err := mid.AdoptGuest(spec, g.Instance, blob)
			if err != nil {
				t.Fatalf("AdoptGuest: %v", err)
			}
			own, err := mid.Store.Get(vtpm.StateName(g2.Instance))
			if err != nil {
				t.Fatalf("adopted instance has no checkpoint of its own: %v", err)
			}
			g3, err := dst.AdoptGuest(spec, g2.Instance, own)
			if err != nil {
				t.Fatalf("adopting the adopter's checkpoint: %v", err)
			}
			if got, err := g3.TPM.PCRRead(9); err != nil || got != want {
				t.Fatalf("PCR 9 after two evacuations = %x (%v), want %x", got, err, want)
			}
		})
	}
}

// TestAdoptGuestFailedFirstCheckpointLeavesNoInstance: when an evacuated
// guest's first checkpoint fails, AdoptGuest returns the error and leaves no
// instance registered — an orphan would hold a decrypted copy of the
// guest's vTPM under an ID no caller knows.
func TestAdoptGuestFailedFirstCheckpointLeavesNoInstance(t *testing.T) {
	src := fedHosts(t, ModeImproved, "orphan-src")[0]
	spec := GuestConfig{Name: "orphan", Kernel: []byte("vmlinuz-orphan")}
	g, err := src.CreateGuest(spec)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := src.Store.Get(vtpm.StateName(g.Instance))
	if err != nil {
		t.Fatal(err)
	}
	// The adopted instance takes ID 1 on a fresh host, the name whose write
	// fails.
	dst, err := NewHost(HostConfig{
		Name: "orphan-dst", Mode: ModeImproved, RSABits: testBits, Seed: []byte("seed-orphan-dst"),
		Store: &failPutStore{Store: vtpm.NewMemStore(), name: vtpm.StateName(1)},
		Retry: vtpm.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := dst.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	if err := Federate(bytes.Repeat([]byte{0x5a}, 16), dst); err != nil {
		t.Fatal(err)
	}
	g2, err := dst.AdoptGuest(spec, g.Instance, blob)
	if err == nil {
		t.Fatalf("AdoptGuest returned instance %d although its first checkpoint failed", g2.Instance)
	}
	if !strings.Contains(err.Error(), "injected store failure") {
		t.Fatalf("AdoptGuest error does not carry the checkpoint failure: %v", err)
	}
	if ids := dst.Manager.Instances(); len(ids) != 0 {
		t.Fatalf("instances %v registered after the failed adoption", ids)
	}
	if gs := dst.Guests(); len(gs) != 0 {
		t.Fatalf("%d guests attached after the failed adoption", len(gs))
	}
	if s := dst.Manager.CheckpointStats(); s.DegradedNow != 0 || s.QuarantinedNow != 0 {
		t.Fatalf("health gauges count the torn-down instance: %+v", s)
	}
}
