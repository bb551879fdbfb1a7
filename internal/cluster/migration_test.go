package cluster

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"testing"

	"xvtpm"
	"xvtpm/internal/tpm"
)

// createOn places a guest named key on host.
func createOn(t testing.TB, c *Cluster, host, key string, profile tpm.Profile) *xvtpm.Guest {
	t.Helper()
	g, err := c.CreateGuestOn(host, xvtpm.GuestConfig{Name: key, Kernel: []byte("vmlinuz-" + key), Profile: profile})
	if err != nil {
		t.Fatalf("CreateGuestOn(%s, %s): %v", host, key, err)
	}
	return g
}

// ownerOf returns the live guest handle for key after a move.
func ownerOf(t testing.TB, c *Cluster, key, wantHost string) *xvtpm.Guest {
	t.Helper()
	host, g, err := c.Owner(key)
	if err != nil || host != wantHost {
		t.Fatalf("Owner(%s) = %q, %v; want %s", key, host, err, wantHost)
	}
	return g
}

// TestMigrationPreservesVTPMState moves a guest between the two members of
// a federation in each access-control mode: its PCRs and sealed data
// survive, the source copy is gone and the guest keeps working.
func TestMigrationPreservesVTPMState(t *testing.T) {
	for _, mode := range []xvtpm.Mode{xvtpm.ModeBaseline, xvtpm.ModeImproved} {
		t.Run(mode.String(), func(t *testing.T) {
			c := testCluster(t, 2, func(cfg *Config) { cfg.Mode = mode })
			g := createOn(t, c, "h0", "traveler", tpm.AnyProfile)
			m := sha1.Sum([]byte("pre-migration"))
			if _, err := g.TPM.Extend(9, m); err != nil {
				t.Fatal(err)
			}
			want, _ := g.TPM.PCRRead(9)
			owner, srk, data := sha1.Sum([]byte("guest-owner")), sha1.Sum([]byte("guest-srk")), sha1.Sum([]byte("guest-data"))
			if _, err := g.TPM.TakeOwnership(owner, srk); err != nil {
				t.Fatalf("guest TakeOwnership: %v", err)
			}
			blob, err := g.TPM.Seal(tpm.KHSRK, srk, data, nil, []byte("migrating-secret"))
			if err != nil {
				t.Fatal(err)
			}
			h1, _ := c.Member("h1")
			hwBefore := h1.Host.HWTPM.CommandCount()
			if err := c.Migrate("traveler", "h1"); err != nil {
				t.Fatalf("Migrate: %v", err)
			}
			// Only the improved guard's envelope needs the destination's
			// hardware TPM: OIAP + TPM_UnBind on its resident bind key.
			wantHW := uint64(0)
			if mode == xvtpm.ModeImproved {
				wantHW = 2
			}
			if n := h1.Host.HWTPM.CommandCount() - hwBefore; n != wantHW {
				t.Fatalf("move cost %d destination hardware-TPM commands, want %d", n, wantHW)
			}
			// Source copies are gone.
			h0, _ := c.Member("h0")
			if ids := h0.Host.Manager.Instances(); len(ids) != 0 {
				t.Fatalf("source instances %v survive migration", ids)
			}
			ng := ownerOf(t, c, "traveler", "h1")
			// PCR state survived.
			got, err := ng.TPM.PCRRead(9)
			if err != nil || got != want {
				t.Fatalf("migrated PCR9 = %x (%v), want %x", got, err, want)
			}
			// The sealed blob still unseals on the destination (same vTPM).
			out, err := ng.TPM.Unseal(tpm.KHSRK, srk, data, blob)
			if err != nil || string(out) != "migrating-secret" {
				t.Fatalf("unseal after migration: %v %q", err, out)
			}
			// And the guest keeps working.
			if _, err := ng.TPM.Extend(9, m); err != nil {
				t.Fatalf("post-migration extend: %v", err)
			}
		})
	}
}

// TestInboundMigrationUsesResidentBindKey: an improved destination member
// opens a migration envelope with exactly two hardware-TPM commands — OIAP
// and TPM_UnBind on the bind key it keeps loaded, never reloading it per
// move — and Host.Close flushes that key.
func TestInboundMigrationUsesResidentBindKey(t *testing.T) {
	c := testCluster(t, 2)
	h1, _ := c.Member("h1")
	dst := h1.Host
	loaded := func() uint32 {
		t.Helper()
		n, err := dst.HW.LoadedKeyCount()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for i := 0; i < 3; i++ {
		key := fmt.Sprint("mover-", i)
		createOn(t, c, "h0", key, tpm.AnyProfile)
		before := dst.HWTPM.CommandCount()
		if err := c.Migrate(key, "h1"); err != nil {
			t.Fatalf("Migrate %d: %v", i, err)
		}
		if n := dst.HWTPM.CommandCount() - before; n != 2 {
			t.Fatalf("inbound migration %d cost %d hardware-TPM commands, want 2", i, n)
		}
		if err := c.DestroyGuest(key); err != nil {
			t.Fatal(err)
		}
	}
	if n := loaded(); n != 1 {
		t.Fatalf("%d keys loaded in the destination's hardware TPM, want 1", n)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if n := loaded(); n != 0 {
		t.Fatalf("%d keys loaded after Host.Close, want 0", n)
	}
}

// TestMigratePreservesProfile migrates a 2.0 guest between two unpinned
// members and checks the profile and SHA-256 bank survive the transfer.
func TestMigratePreservesProfile(t *testing.T) {
	c := testCluster(t, 2)
	g := createOn(t, c, "h0", "mg", tpm.Profile20)
	if err := g.TPM2.Extend(10, []byte("pre-migration")); err != nil {
		t.Fatal(err)
	}
	before, _, err := g.TPM2.PCRRead(tpm.TPM2AlgSHA256, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate("mg", "h1"); err != nil {
		t.Fatal(err)
	}
	moved := ownerOf(t, c, "mg", "h1")
	if moved.Profile != tpm.Profile20 || moved.TPM2 == nil {
		t.Fatalf("migrated guest lost its profile: %s", moved.Profile)
	}
	after, _, err := moved.TPM2.PCRRead(tpm.TPM2AlgSHA256, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("sha256 PCR[10] changed across migration: %x != %x", before, after)
	}
}

// BenchmarkE6Migration measures one fenced guest+vTPM migration per
// iteration (reconstructed Table 3), moving one guest back and forth
// between the two members of a federation.
func BenchmarkE6Migration(b *testing.B) {
	for _, mode := range []xvtpm.Mode{xvtpm.ModeBaseline, xvtpm.ModeImproved} {
		b.Run(mode.String(), func(b *testing.B) {
			c := testCluster(b, 2, func(cfg *Config) { cfg.Mode = mode })
			createOn(b, c, "h0", "t", tpm.AnyProfile)
			hosts := [2]string{"h1", "h0"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Migrate("t", hosts[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
