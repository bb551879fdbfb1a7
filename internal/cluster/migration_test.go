package cluster

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"xvtpm"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
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
			if err := c.Migrate("traveler", "h1"); err != nil {
				t.Fatalf("Migrate: %v", err)
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

// TestInboundMoveCostsNoHardwareTPM: a move costs its destination no
// hardware-TPM command in either mode — the shipped checkpoint opens under
// the federation root every member took once, at join. The improved bind
// key stays loaded once, from boot, and Host.Close flushes it.
func TestInboundMoveCostsNoHardwareTPM(t *testing.T) {
	for _, mode := range []xvtpm.Mode{xvtpm.ModeBaseline, xvtpm.ModeImproved} {
		t.Run(mode.String(), func(t *testing.T) {
			c := testCluster(t, 2, func(cfg *Config) { cfg.Mode = mode })
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
				if n := dst.HWTPM.CommandCount() - before; n != 0 {
					t.Fatalf("inbound move %d cost %d hardware-TPM commands, want 0", i, n)
				}
				if err := c.DestroyGuest(key); err != nil {
					t.Fatal(err)
				}
			}
			wantLoaded := uint32(0)
			if mode == xvtpm.ModeImproved {
				wantLoaded = 1 // the bind key, for the join
			}
			if n := loaded(); n != wantLoaded {
				t.Fatalf("%d keys loaded in the destination's hardware TPM, want %d", n, wantLoaded)
			}
			if err := dst.Close(); err != nil {
				t.Fatal(err)
			}
			if n := loaded(); n != 0 {
				t.Fatalf("%d keys loaded after Host.Close, want 0", n)
			}
		})
	}
}

// logTap wraps the shared checkpoint log. Members write through it, so it
// keeps the last bytes each name was committed with; a move's coordinator
// reads through shipTap, which records the bytes it shipped and lets a test
// rewrite them in flight.
type logTap struct {
	vtpm.Store
	mu        sync.Mutex
	committed map[string][]byte
	shipped   []byte
	tamper    func([]byte) []byte
}

func (l *logTap) Put(name string, data []byte) error {
	if err := l.Store.Put(name, data); err != nil {
		return err
	}
	l.mu.Lock()
	l.committed[name] = append([]byte(nil), data...)
	l.mu.Unlock()
	return nil
}

// lastCommitted returns the bytes name was last committed with.
func (l *logTap) lastCommitted(name string) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed[name]
}

// lastShipped returns the bytes the last move shipped.
func (l *logTap) lastShipped() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shipped
}

// shipTap is the move coordinator's view of the log.
type shipTap struct{ *logTap }

func (s shipTap) Get(name string) ([]byte, error) {
	b, err := s.Store.Get(name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tamper != nil {
		b = s.tamper(append([]byte(nil), b...))
	}
	s.shipped = b
	return b, nil
}

// tapLog puts a tap between c's members, its coordinator and the shared
// log. It must run before c places any guest.
func tapLog(c *Cluster) *logTap {
	tap := &logTap{Store: c.shared, committed: make(map[string][]byte)}
	for _, m := range c.Members() {
		m.fs.shared = tap
	}
	c.shared = shipTap{tap}
	return tap
}

// tapCluster boots a two-member cluster whose shared log is tapped.
func tapCluster(t *testing.T, mode xvtpm.Mode) (*Cluster, *logTap) {
	t.Helper()
	c := testCluster(t, 2, func(cfg *Config) { cfg.Mode = mode })
	return c, tapLog(c)
}

// openCheckpoint opens a committed checkpoint of instance id with guard.
func openCheckpoint(t *testing.T, guard vtpm.Guard, id vtpm.InstanceID, blob []byte) []byte {
	t.Helper()
	p, _, env, err := vtpm.UnwrapCheckpointEpoch(blob)
	if err != nil {
		t.Fatal(err)
	}
	state, err := guard.RecoverState(vtpm.InstanceInfo{ID: id, Profile: p}, env)
	if err != nil {
		t.Fatalf("opening checkpoint of instance %d: %v", id, err)
	}
	return state
}

// TestMoveShipsCommittedCheckpoint: the bytes a move ships are the source's
// checkpoint as committed in the shared log at quiesce, and the destination
// engine holds the full state committed there — its first fenced checkpoint
// opens to the same bytes, not only the same PCR bank.
func TestMoveShipsCommittedCheckpoint(t *testing.T) {
	for _, mode := range []xvtpm.Mode{xvtpm.ModeBaseline, xvtpm.ModeImproved} {
		t.Run(mode.String(), func(t *testing.T) {
			c, tap := tapCluster(t, mode)
			g := createOn(t, c, "h0", "shipped", tpm.AnyProfile)
			if _, err := g.TPM.TakeOwnership(sha1.Sum([]byte("owner")), sha1.Sum([]byte("srk"))); err != nil {
				t.Fatal(err)
			}
			if _, err := g.TPM.Extend(9, sha1.Sum([]byte("before the move"))); err != nil {
				t.Fatal(err)
			}
			h0, _ := c.Member("h0")
			h1, _ := c.Member("h1")
			if err := c.Migrate("shipped", "h1"); err != nil {
				t.Fatal(err)
			}
			shipped := tap.lastShipped()
			committed := tap.lastCommitted(h0.fs.qualify(vtpm.StateName(g.Instance)))
			if len(shipped) == 0 || !bytes.Equal(shipped, committed) {
				t.Fatalf("shipped %d bytes, not the %d-byte checkpoint the source committed", len(shipped), len(committed))
			}
			moved := ownerOf(t, c, "shipped", "h1")
			quiesced := openCheckpoint(t, h0.Host.Guard(), g.Instance, shipped)
			revived := openCheckpoint(t, h1.Host.Guard(), moved.Instance,
				tap.lastCommitted(h1.fs.qualify(vtpm.StateName(moved.Instance))))
			if !bytes.Equal(revived, quiesced) {
				t.Fatalf("destination engine state (%d bytes) differs from the source's at quiesce (%d bytes)",
					len(revived), len(quiesced))
			}
		})
	}
}

// TestShippedCheckpointOpensOnlyInFederation: the improved guard's shipped
// checkpoint carries no plaintext TPM state, and a member of another
// federation — a guard under another state root — can neither open nor
// adopt it.
func TestShippedCheckpointOpensOnlyInFederation(t *testing.T) {
	c, tap := tapCluster(t, xvtpm.ModeImproved)
	g := createOn(t, c, "h0", "sealed", tpm.AnyProfile)
	if err := c.Migrate("sealed", "h1"); err != nil {
		t.Fatal(err)
	}
	shipped := tap.lastShipped()
	if bytes.Contains(shipped, []byte(tpm.StateMagic)) {
		t.Fatal("shipped checkpoint carries plaintext TPM state")
	}
	other := testCluster(t, 2, func(cfg *Config) { cfg.Seed = []byte("another-federation") })
	eve, _ := other.Member("h0")
	p, _, env, err := vtpm.UnwrapCheckpointEpoch(shipped)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eve.Host.Guard().RecoverState(vtpm.InstanceInfo{ID: g.Instance, Profile: p}, env); !errors.Is(err, vtpm.ErrStateSealed) {
		t.Fatalf("another federation opened the shipped envelope: err = %v", err)
	}
	if _, err := eve.Host.Manager.AdoptCheckpoint(g.Instance, shipped); !errors.Is(err, vtpm.ErrStateSealed) {
		t.Fatalf("another federation adopted the shipped checkpoint: err = %v", err)
	}
	if ids := eve.Host.Manager.Instances(); len(ids) != 0 {
		t.Fatalf("refused adoption left instances %v", ids)
	}
}

// TestMoveRefusesTamperedCheckpoint: a byte flipped in, or appended to, the
// shipped checkpoint fails the envelope's MAC on the destination. The move
// rolls back: the destination registers and stores nothing, and the guest
// keeps its state on the source.
func TestMoveRefusesTamperedCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func([]byte) []byte
	}{
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }},
		{"appended byte", func(b []byte) []byte { return append(b, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, tap := tapCluster(t, xvtpm.ModeImproved)
			g := createOn(t, c, "h0", "victim", tpm.AnyProfile)
			if _, err := g.TPM.Extend(9, sha1.Sum([]byte("honest"))); err != nil {
				t.Fatal(err)
			}
			want, err := g.TPM.PCRRead(9)
			if err != nil {
				t.Fatal(err)
			}
			tap.mu.Lock()
			tap.tamper = tc.tamper
			tap.mu.Unlock()
			if err := c.Migrate("victim", "h1"); !errors.Is(err, vtpm.ErrStateSealed) {
				t.Fatalf("move of a tampered checkpoint: err = %v, want ErrStateSealed", err)
			}
			h1, _ := c.Member("h1")
			if ids := h1.Host.Manager.Instances(); len(ids) != 0 {
				t.Fatalf("refused move left instances %v on the destination", ids)
			}
			if names, err := h1.Host.Store.List(); err != nil || len(names) != 0 {
				t.Fatalf("refused move left blobs %v on the destination (%v)", names, err)
			}
			back := ownerOf(t, c, "victim", "h0")
			if got, err := back.TPM.PCRRead(9); err != nil || got != want {
				t.Fatalf("PCR 9 after the rolled-back move = %x (%v), want %x", got, err, want)
			}
		})
	}
}

// TestWritebackFlushBarriersCarryLatestMutation: on members whose
// write-behind checkpoints persist only at barriers, a burst of extends is
// still unpersisted when the move starts, and the checkpoint the move ships
// carries the very latest of them — quiesce's forced checkpoint is the
// barrier — so the destination revives at the latest step.
func TestWritebackFlushBarriersCarryLatestMutation(t *testing.T) {
	c, err := boot(Config{Hosts: 2, Mode: xvtpm.ModeImproved, RSABits: 512, Seed: []byte("writeback-move")},
		func(hc *xvtpm.HostConfig) {
			hc.Checkpoint = vtpm.CheckpointWriteback
			hc.MaxDirtyCommands = 1024 // never gate: only barriers persist
			hc.MaxDirtyInterval = time.Hour
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	tap := tapLog(c)
	g := createOn(t, c, "h0", "burst", tpm.AnyProfile)
	h0, _ := c.Member("h0")
	name := h0.fs.qualify(vtpm.StateName(g.Instance))
	committedBefore := tap.lastCommitted(name)
	var want [tpm.DigestSize]byte
	for i := 0; i < 37; i++ {
		v, err := g.TPM.Extend(7, sha1.Sum([]byte{byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		want = v
	}
	if !bytes.Equal(tap.lastCommitted(name), committedBefore) {
		t.Fatal("the burst was persisted before the move: the test no longer exercises a barrier")
	}
	if err := c.Migrate("burst", "h1"); err != nil {
		t.Fatal(err)
	}
	if shipped := tap.lastShipped(); !bytes.Equal(shipped, tap.lastCommitted(name)) {
		t.Fatal("the move shipped something other than the source's last committed checkpoint")
	}
	moved := ownerOf(t, c, "burst", "h1")
	if got, err := moved.TPM.PCRRead(7); err != nil || got != want {
		t.Fatalf("PCR 7 after the move = %x (%v), want the burst's last value %x", got, err, want)
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
