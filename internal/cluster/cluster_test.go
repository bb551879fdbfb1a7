package cluster

import (
	"crypto/sha1"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xvtpm"
	"xvtpm/internal/core"
	"xvtpm/internal/faults"
	"xvtpm/internal/metrics"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
	"xvtpm/internal/xenstore"
)

// testCluster boots a small deterministic improved-mode federation.
func testCluster(t testing.TB, hosts int, tweak ...func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Hosts:   hosts,
		Mode:    xvtpm.ModeImproved,
		RSABits: 512,
		Seed:    []byte("cluster-test"),
	}
	for _, fn := range tweak {
		fn(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return c
}

func mkGuest(t *testing.T, c *Cluster, name string) *xvtpm.Guest {
	t.Helper()
	g, err := c.CreateGuest(xvtpm.GuestConfig{
		Name: name, Kernel: []byte("kernel-" + name), Pages: 16,
	})
	if err != nil {
		t.Fatalf("CreateGuest %s: %v", name, err)
	}
	return g
}

func TestClusterMigrateRoundTrip(t *testing.T) {
	c := testCluster(t, 2)
	g := mkGuest(t, c, "web")
	var d [tpm.DigestSize]byte
	d[0] = 7
	before, err := g.TPM.Extend(10, d)
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if err := c.Migrate("web", "h1"); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	owner, g2, err := c.Owner("web")
	if err != nil || owner != "h1" {
		t.Fatalf("Owner = %q, %v; want h1", owner, err)
	}
	after, err := g2.TPM.PCRRead(10)
	if err != nil {
		t.Fatalf("PCRRead on h1: %v", err)
	}
	if after != before {
		t.Fatalf("PCR 10 changed across migration")
	}
	pl, ok := c.Directory().Lookup("web")
	if !ok || pl.Host != "h1" || pl.State != Owned || pl.Epoch != 2 {
		t.Fatalf("placement after move = %+v", pl)
	}
	// The source manager no longer knows the instance.
	h0, _ := c.Member("h0")
	if _, err := h0.Host.Manager.InstanceInfo(g.Instance); err == nil {
		t.Fatal("source instance survived a committed move")
	}
	// Migrating back works and bumps the epoch again.
	if err := c.Migrate("web", "h0"); err != nil {
		t.Fatalf("Migrate back: %v", err)
	}
	pl, _ = c.Directory().Lookup("web")
	if pl.Host != "h0" || pl.Epoch != 3 {
		t.Fatalf("placement after return = %+v", pl)
	}
}

// The ErrFenced redirect round-trip (satellite): a fenced instance rejects
// dispatch with a FencedError carrying the new owner and epoch, the guest
// sees RCInstanceMoved, and lifting the fence restores service.
func TestFenceRedirectRoundTrip(t *testing.T) {
	c := testCluster(t, 2)
	g := mkGuest(t, c, "web")
	h0, _ := c.Member("h0")
	mgr := h0.Host.Manager
	if err := mgr.FenceInstance(g.Instance, "h1", 42); err != nil {
		t.Fatalf("FenceInstance: %v", err)
	}
	// Manager-level dispatch rejection carries the redirect.
	fe, ok := mgr.InstanceFence(g.Instance)
	if !ok || fe.Owner != "h1" || fe.Epoch != 42 {
		t.Fatalf("InstanceFence = %+v, %v", fe, ok)
	}
	if !errors.Is(fe, vtpm.ErrFenced) {
		t.Fatal("FencedError does not match ErrFenced")
	}
	// Guest-visible rejection is the RCInstanceMoved code.
	_, err := g.TPM.GetRandom(8)
	if err == nil {
		t.Fatal("fenced dispatch succeeded")
	}
	if !tpm.IsTPMError(err, vtpm.RCInstanceMoved) {
		t.Fatalf("fenced dispatch error = %v; want RCInstanceMoved", err)
	}
	if mgr.FenceRejects() == 0 {
		t.Fatal("fence reject not counted")
	}
	if err := mgr.UnfenceInstance(g.Instance); err != nil {
		t.Fatalf("UnfenceInstance: %v", err)
	}
	if _, err := g.TPM.GetRandom(8); err != nil {
		t.Fatalf("dispatch after unfence: %v", err)
	}
}

// A transfer leg that fails permanently must roll back to exactly one
// owner: the source keeps the guest, the epoch advances past the move, and
// the guest keeps serving.
func TestMigrateRollbackOnTransferFault(t *testing.T) {
	inj := faults.NewInjector(1)
	inj.SetPolicy(faults.OpTransfer, faults.Policy{PermanentRate: 1})
	c := testCluster(t, 2, func(cfg *Config) { cfg.Injector = inj })
	g := mkGuest(t, c, "web")
	var d [tpm.DigestSize]byte
	d[0] = 9
	want, err := g.TPM.Extend(5, d)
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if err := c.Migrate("web", "h1"); err == nil {
		t.Fatal("Migrate succeeded through a permanent transfer fault")
	}
	owner, g2, err := c.Owner("web")
	if err != nil || owner != "h0" {
		t.Fatalf("Owner after rollback = %q, %v; want h0", owner, err)
	}
	pl, _ := c.Directory().Lookup("web")
	if pl.State != Owned || pl.Host != "h0" || pl.Epoch != 3 {
		t.Fatalf("placement after rollback = %+v (want owned h0 at epoch 3)", pl)
	}
	got, err := g2.TPM.PCRRead(5)
	if err != nil {
		t.Fatalf("PCRRead after rollback: %v", err)
	}
	if got != want {
		t.Fatal("PCR state lost across rollback")
	}
	// h1 must hold nothing.
	h1, _ := c.Member("h1")
	if n := len(h1.Host.Manager.Instances()); n != 0 {
		t.Fatalf("destination kept %d instances after rollback", n)
	}
	s := c.ClusterStats()
	if s.MigAborted != 1 || s.MigCommitted != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// Transient transfer faults are retried within the policy and the move
// still commits.
func TestMigrateRetriesTransientTransferFault(t *testing.T) {
	inj := faults.NewInjector(7)
	// ~half the attempts fail; 4 attempts make success overwhelmingly
	// likely, and the seed is fixed anyway.
	inj.SetPolicy(faults.OpTransfer, faults.Policy{ErrorRate: 0.5})
	c := testCluster(t, 2, func(cfg *Config) {
		cfg.Injector = inj
		cfg.TransferRetry = vtpm.RetryPolicy{MaxAttempts: 8, Deadline: time.Second}
	})
	mkGuest(t, c, "web")
	// Ping-pong until the injector has provably fired at least once; with
	// 50% transient faults the expected number of round trips is ~1.
	var committed int
	for i := 0; i < 20; i++ {
		dst := "h1"
		if i%2 == 1 {
			dst = "h0"
		}
		if err := c.Migrate("web", dst); err == nil {
			committed++
		}
		if committed > 0 && c.ClusterStats().MigRetried > 0 {
			break
		}
	}
	if committed == 0 {
		t.Fatal("no migration committed under 50% transient faults with retry")
	}
	if c.ClusterStats().MigRetried == 0 {
		t.Fatal("no transfer retries counted")
	}
}

// The failure-driven evacuation path: kill a host, condemn it, revive its
// guests on the survivors with zero committed-generation loss, and verify
// the zombie's writes and dispatches are fenced off.
func TestEvacuateDeadHost(t *testing.T) {
	c := testCluster(t, 3)
	const n = 8
	digests := make(map[string][tpm.DigestSize]byte)
	old := make(map[string]*xvtpm.Guest)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("g%d", i)
		g, err := c.CreateGuestOn("h1", xvtpm.GuestConfig{
			Name: key, Kernel: []byte("k-" + key), Pages: 16,
		})
		if err != nil {
			t.Fatalf("CreateGuestOn: %v", err)
		}
		var d [tpm.DigestSize]byte
		d[0] = byte(i + 1)
		if _, err := g.TPM.Extend(11, d); err != nil {
			t.Fatalf("Extend: %v", err)
		}
		old[key] = g
	}
	h1, _ := c.Member("h1")
	// Everything dirty is committed before the "crash" — the shared log
	// holds each guest's final generation.
	if err := h1.Host.Manager.CheckpointAll(); err != nil {
		t.Fatalf("CheckpointAll: %v", err)
	}
	for key, g := range old {
		dg, err := h1.Host.Manager.PCRDigest(g.Instance)
		if err != nil {
			t.Fatalf("PCRDigest: %v", err)
		}
		digests[key] = dg
	}

	// h1 goes silent; h0 and h2 keep beating.
	base := time.Now()
	for _, name := range []string{"h0", "h1", "h2"} {
		c.Beat(name, base)
	}
	c.Beat("h0", base.Add(5*time.Second))
	c.Beat("h2", base.Add(5*time.Second))
	if st, _ := c.FailStateOf("h1"); st != Alive {
		t.Fatalf("h1 pre-check state = %v", st)
	}
	if newly := c.CheckFailures(base.Add(3 * time.Second)); len(newly) != 0 {
		t.Fatalf("condemned too early: %v", newly)
	}
	if st, _ := c.FailStateOf("h1"); st != Suspect {
		t.Fatalf("h1 at 3s = %v; want suspect", st)
	}
	newly := c.CheckFailures(base.Add(5 * time.Second))
	if len(newly) != 1 || newly[0] != "h1" {
		t.Fatalf("condemned = %v; want [h1]", newly)
	}

	stats, err := c.Evacuate("h1", 4)
	if err != nil {
		t.Fatalf("Evacuate: %v", err)
	}
	if stats.Revived != n || stats.Failed != 0 {
		t.Fatalf("EvacStats = %+v", stats)
	}
	for key, want := range digests {
		owner, g, err := c.Owner(key)
		if err != nil {
			t.Fatalf("Owner(%s): %v", key, err)
		}
		if owner == "h1" {
			t.Fatalf("%s still owned by the dead host", key)
		}
		m, _ := c.Member(owner)
		got, err := m.Host.Manager.PCRDigest(g.Instance)
		if err != nil {
			t.Fatalf("survivor PCRDigest(%s): %v", key, err)
		}
		if got != want {
			t.Fatalf("%s lost committed state across evacuation", key)
		}
		// The revived guest serves.
		if _, err := g.TPM.GetRandom(8); err != nil {
			t.Fatalf("revived %s dispatch: %v", key, err)
		}
	}
	// Zombie dispatches are fenced with a redirect.
	var zombieRejects int
	for _, g := range old {
		if _, err := g.TPM.GetRandom(8); tpm.IsTPMError(err, vtpm.RCInstanceMoved) {
			zombieRejects++
		}
	}
	if zombieRejects != n {
		t.Fatalf("zombie dispatch rejects = %d; want %d", zombieRejects, n)
	}
	// Zombie writes die at the sealed store.
	for _, g := range old {
		if err := h1.Host.Manager.Checkpoint(g.Instance); err == nil {
			t.Fatal("zombie checkpoint succeeded past the seal")
		}
	}
	if h1.fs.Rejects() == 0 {
		t.Fatal("no zombie store rejects counted")
	}
	// A condemned host cannot be a migration destination.
	if err := c.Migrate("g0", "h1"); err == nil {
		t.Fatal("migration to a condemned host succeeded")
	}
}

// Concurrent Drain + guest dispatch (satellite): guests hammer Extend and
// GetRandom through sessions while their host drains under them. No
// command may be lost or double-executed (each session verifies its full
// PCR chain), and every per-op blackout is bounded by the session deadline.
func TestDrainUnderChurn(t *testing.T) {
	c := testCluster(t, 3)
	const guests = 12
	sessions := make([]*Session, guests)
	for i := 0; i < guests; i++ {
		key := fmt.Sprintf("g%d", i)
		if _, err := c.CreateGuestOn("h0", xvtpm.GuestConfig{
			Name: key, Kernel: []byte("k-" + key), Pages: 16,
		}); err != nil {
			t.Fatalf("CreateGuestOn: %v", err)
		}
		sessions[i] = c.Session(key)
	}

	stop := make(chan struct{})
	var ops atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, guests)
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			pcr := uint32(8 + i%8)
			rng := rand.New(rand.NewSource(int64(i))) //nolint:gosec // test traffic
			for step := 0; ; step++ {
				select {
				case <-stop:
					return
				default:
				}
				if step%3 == 0 {
					if _, err := s.GetRandom(16); err != nil {
						errCh <- fmt.Errorf("session %d GetRandom: %w", i, err)
						return
					}
				} else {
					var d [tpm.DigestSize]byte
					rng.Read(d[:])
					if _, err := s.Extend(pcr, d); err != nil {
						errCh <- fmt.Errorf("session %d Extend: %w", i, err)
						return
					}
				}
				ops.Add(1)
			}
		}(i, s)
	}

	stats, err := c.Drain("h0", 4)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Let the churn keep running against the new owners briefly.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("churn failed: %v", err)
	default:
	}
	if stats.Moved != guests || stats.Failed != 0 {
		t.Fatalf("DrainStats = %+v", stats)
	}
	if n := len(c.keysOn("h0")); n != 0 {
		t.Fatalf("%d guests left on the drained host", n)
	}
	if ops.Load() == 0 {
		t.Fatal("no guest ops completed during the drain")
	}
	// Exactly-once: every session's full chain must verify on the final
	// owner.
	for i, s := range sessions {
		if err := s.Verify(); err != nil {
			t.Fatalf("session %d chain: %v", i, err)
		}
	}
	// Blackouts were per-instance and bounded.
	snap := c.ClusterStats().Blackout
	if snap.Count == 0 {
		t.Fatal("no blackout samples recorded")
	}
}

// The durable fence: a write stamped with a stale epoch is rejected by the
// shared store even when the writing manager believes it owns the instance.
func TestFencedStoreRejectsStaleEpoch(t *testing.T) {
	c := testCluster(t, 2)
	g := mkGuest(t, c, "web")
	owner, _, _ := c.Owner("web")
	m, _ := c.Member(owner)
	// Stamp the instance with a stale epoch and force a checkpoint: the
	// directory is at epoch 1, the blob claims 7.
	if err := m.Host.Manager.SetEpoch(g.Instance, 7); err != nil {
		t.Fatalf("SetEpoch: %v", err)
	}
	err := m.Host.Manager.Checkpoint(g.Instance)
	if err == nil {
		t.Fatal("stale-epoch checkpoint accepted")
	}
	if !IsFencedWrite(errors.Unwrap(err)) && !IsFencedWrite(err) {
		t.Fatalf("stale write error = %v; want fenced-write rejection", err)
	}
	if m.fs.Rejects() == 0 {
		t.Fatal("rejection not counted")
	}
	// Restoring the true epoch restores writability.
	if err := m.Host.Manager.SetEpoch(g.Instance, 1); err != nil {
		t.Fatalf("SetEpoch back: %v", err)
	}
	if err := m.Host.Manager.Checkpoint(g.Instance); err != nil {
		t.Fatalf("checkpoint at true epoch: %v", err)
	}
}

func TestSessionExtendChainAcrossMigrations(t *testing.T) {
	c := testCluster(t, 2)
	mkGuest(t, c, "web")
	s := c.Session("web")
	// Interleave extends with migrations; the chain must stay intact.
	var want [tpm.DigestSize]byte
	seed, err := s.PCRRead(9)
	if err != nil {
		t.Fatalf("PCRRead: %v", err)
	}
	want = seed
	hosts := []string{"h1", "h0"}
	for i := 0; i < 6; i++ {
		var d [tpm.DigestSize]byte
		d[0] = byte(i + 1)
		got, err := s.Extend(9, d)
		if err != nil {
			t.Fatalf("Extend %d: %v", i, err)
		}
		h := sha1.New()
		h.Write(want[:])
		h.Write(d[:])
		copy(want[:], h.Sum(nil))
		if got != want {
			t.Fatalf("chain diverged at step %d", i)
		}
		if err := c.Migrate("web", hosts[i%2]); err != nil {
			t.Fatalf("Migrate %d: %v", i, err)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestClusterMetricsRegistry(t *testing.T) {
	c := testCluster(t, 2)
	mkGuest(t, c, "web")
	if err := c.Migrate("web", "h1"); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	reg := metrics.NewRegistry()
	if err := c.RegisterMetrics(reg); err != nil {
		t.Fatalf("RegisterMetrics: %v", err)
	}
	var sink countingWriter
	if err := reg.WritePrometheus(&sink); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if sink.n == 0 {
		t.Fatal("empty exposition")
	}
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// xsNodeCount counts the nodes of a member's XenStore tree below path.
func xsNodeCount(t *testing.T, m *Member, path string) int {
	t.Helper()
	kids, err := m.Host.XS.List(xen.Dom0, xenstore.NoTxn, path)
	if err != nil {
		t.Fatalf("List %s: %v", path, err)
	}
	n := 1
	for _, k := range kids {
		child := path + "/" + k
		if path == "/" {
			child = "/" + k
		}
		n += xsNodeCount(t, m, child)
	}
	return n
}

// pingPong makes n moves through a two-member cluster, each taking the next
// key (round robin) to the member that does not hold it.
func pingPong(t *testing.T, c *Cluster, keys []string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := keys[i%len(keys)]
		owner, _, err := c.Owner(key)
		if err != nil {
			t.Fatalf("Owner %s: %v", key, err)
		}
		dst := "h0"
		if owner == "h0" {
			dst = "h1"
		}
		if err := c.Migrate(key, dst); err != nil {
			t.Fatalf("move %d of %s to %s: %v", i, key, dst, err)
		}
	}
}

// assertDefaultRulesOnly checks that every member's policy holds exactly the
// eight default rules per live guest — none left behind by departed
// instances and no second copy for re-attached ones.
func assertDefaultRulesOnly(t *testing.T, c *Cluster, tag string) {
	t.Helper()
	per := len(core.DefaultGuestPolicy(xen.LaunchDigest{}, 1))
	for _, m := range c.Members() {
		ig, _ := m.Host.ImprovedGuard()
		if got, want := ig.Policy().Len(), per*len(m.Host.Guests()); got != want {
			t.Errorf("%s: %s holds %d rules for %d guests, want %d", tag, m.Name, got, len(m.Host.Guests()), want)
		}
	}
}

func TestClusterMovesDropDepartedPolicyRules(t *testing.T) {
	c := testCluster(t, 2)
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		mkGuest(t, c, k)
	}
	assertDefaultRulesOnly(t, c, "before moves")
	pingPong(t, c, keys, 40)
	assertDefaultRulesOnly(t, c, "after 40 moves")
}

func TestClusterRolledBackMovesKeepOnePolicyCopy(t *testing.T) {
	inj := faults.NewInjector(1)
	inj.SetPolicy(faults.OpTransfer, faults.Policy{PermanentRate: 1})
	c := testCluster(t, 2, func(cfg *Config) { cfg.Injector = inj })
	mkGuest(t, c, "web")
	for i := 0; i < 10; i++ {
		if err := c.Migrate("web", "h1"); err == nil {
			t.Fatal("move succeeded through a permanently failing transfer")
		}
	}
	assertDefaultRulesOnly(t, c, "after 10 rolled-back moves")
}

func TestClusterMovesLeaveNoXenstoreResidue(t *testing.T) {
	c := testCluster(t, 2)
	keys := []string{"a", "b", "c", "d"}
	for i, k := range keys {
		if _, err := c.CreateGuestOn(fmt.Sprintf("h%d", i%2), xvtpm.GuestConfig{
			Name: k, Kernel: []byte("kernel-" + k), Pages: 16,
		}); err != nil {
			t.Fatalf("CreateGuestOn: %v", err)
		}
	}
	nodes := func() int {
		n := 0
		for _, m := range c.Members() {
			n += xsNodeCount(t, m, "/")
		}
		return n
	}
	before := nodes()
	pingPong(t, c, keys, 40)
	if after := nodes(); after != before {
		t.Fatalf("xenstore nodes for %d live guests grew from %d to %d across 40 moves", len(keys), before, after)
	}
}

// TestCloseStopsEveryDevice runs three set-up/close cycles of a seeded
// two-member cluster with 16 guests. Close must stop every guest's device,
// so after each close the process is back to the goroutines it had before
// the first boot: no device service loop outlives its cluster.
func TestCloseStopsEveryDevice(t *testing.T) {
	before := settleGoroutines(0)
	for cycle := 0; cycle < 3; cycle++ {
		c, err := New(Config{Hosts: 2, Mode: xvtpm.ModeImproved, RSABits: 512, Seed: []byte("close-cycle")})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			g, err := c.CreateGuest(xvtpm.GuestConfig{
				Name: fmt.Sprintf("g%d", i), Kernel: []byte(fmt.Sprintf("k%d", i)), Pages: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.TPM.GetRandom(4); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatalf("cycle %d: Close: %v", cycle, err)
		}
		if n := settleGoroutines(before); n > before {
			buf := make([]byte, 1<<16)
			t.Fatalf("cycle %d: %d goroutines after Close, %d before the first boot\n%s",
				cycle, n, before, buf[:runtime.Stack(buf, true)])
		}
	}
}

// settleGoroutines waits up to five seconds for the process to be back at
// want goroutines or fewer, and returns the count it saw last.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestCloseStopsCondemnedMemberDevices checks that Close, which skips a
// condemned member's final flush, still detaches that member's devices and
// stops its manager's background work: the process is back to the
// goroutines it had before the boot.
func TestCloseStopsCondemnedMemberDevices(t *testing.T) {
	before := settleGoroutines(0)
	c, err := New(Config{Hosts: 2, Mode: xvtpm.ModeImproved, RSABits: 512, Seed: []byte("close-condemned")})
	if err != nil {
		t.Fatal(err)
	}
	var onH1 []*xvtpm.Guest
	for i := 0; i < 4; i++ {
		g, err := c.CreateGuestOn("h1", xvtpm.GuestConfig{
			Name: fmt.Sprintf("g%d", i), Kernel: []byte(fmt.Sprintf("k%d", i)), Pages: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		onH1 = append(onH1, g)
	}
	if err := c.Condemn("h1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	m, _ := c.Member("h1")
	for _, g := range onH1 {
		if m.Host.Backend.Connected(g.Dom.ID()) {
			t.Fatalf("guest %s still has a device on the condemned member after Close", g.Name)
		}
	}
	if n := settleGoroutines(before); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, %d before the boot\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}
