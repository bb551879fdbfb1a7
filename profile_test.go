package xvtpm_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"xvtpm"
	"xvtpm/internal/tpm"
)

// TestMixedFleetChurn runs a 1.2 guest and a 2.0 guest side by side under one
// improved-mode host through several create/drive/suspend/resume/destroy
// rounds: the mixed-fleet claim of DESIGN.md §10. Each round also drives both
// guests concurrently, so `go test -race` exercises the shared manager path
// with both profiles in flight.
func TestMixedFleetChurn(t *testing.T) {
	h, err := xvtpm.NewHost(xvtpm.HostConfig{Name: "fleet", Mode: xvtpm.ModeImproved, RSABits: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := h.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	for round := 0; round < 3; round++ {
		g12, err := h.CreateGuest(xvtpm.GuestConfig{
			Name: fmt.Sprintf("g12-%d", round), Kernel: []byte("k12"), Profile: tpm.Profile12,
		})
		if err != nil {
			t.Fatal(err)
		}
		g20, err := h.CreateGuest(xvtpm.GuestConfig{
			Name: fmt.Sprintf("g20-%d", round), Kernel: []byte("k20"), Profile: tpm.Profile20,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Each guest carries exactly the client matching its engine.
		if g12.Profile != tpm.Profile12 || g12.TPM == nil || g12.TPM2 != nil {
			t.Fatalf("round %d: 1.2 guest wired wrong: profile %s, TPM %v, TPM2 %v",
				round, g12.Profile, g12.TPM != nil, g12.TPM2 != nil)
		}
		if g20.Profile != tpm.Profile20 || g20.TPM2 == nil || g20.TPM != nil {
			t.Fatalf("round %d: 2.0 guest wired wrong: profile %s, TPM %v, TPM2 %v",
				round, g20.Profile, g20.TPM != nil, g20.TPM2 != nil)
		}

		// Drive both profiles concurrently through the shared manager.
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var meas [tpm.DigestSize]byte
				meas[0] = byte(i)
				if _, err := g12.TPM.Extend(10, meas); err != nil {
					errs[0] = err
					return
				}
				if _, err := g12.TPM.GetRandom(16); err != nil {
					errs[0] = err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := g20.TPM2.Extend(10, []byte{byte(i)}); err != nil {
					errs[1] = err
					return
				}
				if _, err := g20.TPM2.GetRandom(16); err != nil {
					errs[1] = err
					return
				}
			}
		}()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: concurrent drive %d: %v", round, i, err)
			}
		}

		// Suspend/resume the 2.0 guest: the checkpoint/recover path must
		// carry the profile and the multi-bank PCR state.
		before, _, err := g20.TPM2.PCRRead(tpm.TPM2AlgSHA256, 10)
		if err != nil {
			t.Fatal(err)
		}
		handle, err := h.SuspendGuest(g20)
		if err != nil {
			t.Fatal(err)
		}
		g20, err = h.ResumeGuest(handle)
		if err != nil {
			t.Fatal(err)
		}
		if g20.Profile != tpm.Profile20 || g20.TPM2 == nil {
			t.Fatalf("round %d: resumed guest lost its profile: %s", round, g20.Profile)
		}
		after, _, err := g20.TPM2.PCRRead(tpm.TPM2AlgSHA256, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("round %d: sha256 PCR[10] changed across suspend/resume: %x != %x", round, before, after)
		}

		if err := h.DestroyGuest(g12); err != nil {
			t.Fatal(err)
		}
		if err := h.DestroyGuest(g20); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(h.Guests()); n != 0 {
		t.Fatalf("fleet not empty after churn: %d guests", n)
	}
}
