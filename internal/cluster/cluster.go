// Package cluster federates N simulated hosts behind a generation-fenced
// placement directory (DESIGN.md §12): every guest key maps to exactly one
// owning host at an ownership epoch, every cross-host migration is a
// two-phase fenced handoff over the export/import envelope path, and any
// mid-handoff failure rolls back deterministically to exactly one owner.
// On top of the handoff primitive sit Drain — evacuating a host's whole
// fleet through a bounded-concurrency pipeline while guests keep
// dispatching (the pause window is per instance, never per host) — and a
// missed-heartbeat failure detector whose condemnation path revives a dead
// host's instances from their committed checkpoints on the survivors,
// fenced by epoch so the zombie's late writes and dispatches are rejected.
package cluster

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"xvtpm"
	"xvtpm/internal/faults"
	"xvtpm/internal/metrics"
	"xvtpm/internal/store/logstore"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
)

// Config parameterizes a cluster.
type Config struct {
	// Hosts is the member count. Zero means 3.
	Hosts int
	// Mode selects every member's access-control guard. Federation's
	// shared-key distribution only applies to ModeImproved (baseline
	// persists plaintext and needs no key to share).
	Mode xvtpm.Mode
	// RSABits, Seed and Dom0Pages pass through to each member's
	// HostConfig; every other host setting keeps its default.
	RSABits   int
	Seed      []byte
	Dom0Pages int
	// TransferRetry bounds the migration transfer leg's retry loop; zero
	// fields take the vtpm defaults.
	TransferRetry vtpm.RetryPolicy
	// Injector, when set, decides one faults.OpTransfer verdict per
	// transfer-leg attempt — the chaos hook.
	Injector *faults.Injector
}

// Member is one federated host.
type Member struct {
	Name string
	Host *xvtpm.Host
	fs   *fencedStore

	// Guarded by the cluster mutex.
	fail     FailState
	lastBeat time.Time
	draining bool
}

// record tracks one guest across ownership changes. rec.mu serializes this
// key's ownership transitions (a whole two-phase move, or an evacuation
// step, holds it end to end); the current owner/guest pair is additionally
// guarded by the cluster mutex so readers never hold rec.mu.
type record struct {
	key  string
	spec xvtpm.GuestConfig
	mu   sync.Mutex

	// Guarded by the cluster mutex.
	host  string
	guest *xvtpm.Guest
}

// Cluster is the federation.
type Cluster struct {
	dir    *Directory
	shared vtpm.Store
	retry  vtpm.RetryPolicy
	inj    *faults.Injector
	mode   xvtpm.Mode

	mu      sync.Mutex
	members []*Member
	byName  map[string]*Member
	recs    map[string]*record
	rr      int

	migStarted   metrics.Counter
	migCommitted metrics.Counter
	migAborted   metrics.Counter
	migRetried   metrics.Counter
	evacuated    metrics.Counter
	blackout     *metrics.Histogram
}

// New boots a federation: the shared checkpoint log, the placement
// directory, one host per member writing through its fenced prefix, and —
// in improved mode — a cluster state-key master delivered to each member
// wrapped to its hardware-TPM migration bind key, so every member can open
// every member's committed checkpoints (the evacuation path) while channel
// keys stay host-local.
func New(cfg Config) (*Cluster, error) {
	n := cfg.Hosts
	if n == 0 {
		n = 3
	}
	if n < 2 {
		return nil, errors.New("cluster: need at least 2 hosts")
	}
	c := &Cluster{
		dir:      NewDirectory(),
		shared:   logstore.New(logstore.Config{NotFound: vtpm.ErrNoState}),
		retry:    cfg.TransferRetry,
		inj:      cfg.Injector,
		mode:     cfg.Mode,
		byName:   make(map[string]*Member),
		recs:     make(map[string]*record),
		blackout: metrics.NewHistogram(nil),
	}
	// The federation master: a cluster-wide secret state-envelope keys
	// derive from. Deterministic under a seeded cluster so experiments
	// replay. 16 bytes: it must fit one OAEP block under the smallest bind
	// key the benchmarks use (RSA-512 ⇒ 22-byte capacity), and it is only
	// ever an HMAC key, never raw key material.
	var fedMaster []byte
	if cfg.Mode == xvtpm.ModeImproved {
		sum := sha256.Sum256(append([]byte("cluster-fed-master|"), cfg.Seed...))
		fedMaster = sum[:16]
	}
	now := time.Now()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("h%d", i)
		fs := newFencedStore(name, c.dir, c.shared)
		var seed []byte
		if cfg.Seed != nil {
			seed = append(append([]byte(nil), cfg.Seed...), []byte("|"+name)...)
		}
		h, err := xvtpm.NewHost(xvtpm.HostConfig{
			Name:      name,
			Mode:      cfg.Mode,
			RSABits:   cfg.RSABits,
			Seed:      seed,
			Dom0Pages: cfg.Dom0Pages,
			Store:     fs,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: booting %s: %w", name, err)
		}
		if fedMaster != nil {
			// The join must precede any protected instance state; members
			// are freshly booted here, so nothing is sealed under the
			// host-local master yet.
			wrapped, err := tpm.BindEncrypt(nil, h.MigrationIdentity(), fedMaster)
			if err != nil {
				return nil, fmt.Errorf("cluster: wrapping federation master for %s: %w", name, err)
			}
			if err := h.FederationJoin(wrapped); err != nil {
				return nil, fmt.Errorf("cluster: %s joining federation: %w", name, err)
			}
		}
		m := &Member{Name: name, Host: h, fs: fs, fail: Alive, lastBeat: now}
		c.members = append(c.members, m)
		c.byName[name] = m
	}
	return c, nil
}

// Members returns the federation's members in boot order.
func (c *Cluster) Members() []*Member {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Member(nil), c.members...)
}

// Member returns a member by name.
func (c *Cluster) Member(name string) (*Member, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.byName[name]
	return m, ok
}

// Directory exposes the placement directory (read-mostly tooling).
func (c *Cluster) Directory() *Directory { return c.dir }

// record returns the tracked record for key.
func (c *Cluster) record(key string) (*record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.recs[key]
	if !ok {
		return nil, fmt.Errorf("cluster: no guest %q", key)
	}
	return rec, nil
}

// Owner returns the member currently owning key and the live guest handle.
func (c *Cluster) Owner(key string) (string, *xvtpm.Guest, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.recs[key]
	if !ok {
		return "", nil, fmt.Errorf("cluster: no guest %q", key)
	}
	return rec.host, rec.guest, nil
}

// pickHost chooses a placement target round-robin over members that are
// alive and not draining.
func (c *Cluster) pickHost() (*Member, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < len(c.members); i++ {
		m := c.members[(c.rr+i)%len(c.members)]
		if m.fail == Alive && !m.draining {
			c.rr = (c.rr + i + 1) % len(c.members)
			return m, nil
		}
	}
	return nil, errors.New("cluster: no schedulable host")
}

// CreateGuest places a new guest on an automatically chosen member. The
// guest's name is its cluster-wide placement key and must be unique.
func (c *Cluster) CreateGuest(spec xvtpm.GuestConfig) (*xvtpm.Guest, error) {
	m, err := c.pickHost()
	if err != nil {
		return nil, err
	}
	return c.CreateGuestOn(m.Name, spec)
}

// CreateGuestOn places a new guest on a named member and registers it in
// the directory at epoch 1. The instance's first bound checkpoint carries
// that epoch, arming the durable fence.
func (c *Cluster) CreateGuestOn(host string, spec xvtpm.GuestConfig) (*xvtpm.Guest, error) {
	m, ok := c.Member(host)
	if !ok {
		return nil, fmt.Errorf("cluster: no member %q", host)
	}
	if c.failStateOf(m) == Condemned {
		return nil, fmt.Errorf("cluster: member %q is condemned", host)
	}
	key := spec.Name
	if key == "" {
		return nil, errors.New("cluster: guest needs a name (its placement key)")
	}
	g, err := m.Host.CreateGuest(spec)
	if err != nil {
		return nil, err
	}
	epoch, err := c.dir.Register(key, m.Name, g.Instance)
	if err != nil {
		m.Host.DestroyGuest(g) //nolint:errcheck // unwinding a lost registration race
		return nil, err
	}
	if err := m.Host.Manager.SetEpoch(g.Instance, epoch); err != nil {
		return nil, err
	}
	m.fs.bind(vtpm.StateName(g.Instance), key)
	if err := m.Host.Manager.Checkpoint(g.Instance); err != nil {
		return nil, fmt.Errorf("cluster: first fenced checkpoint of %q: %w", key, err)
	}
	rec := &record{key: key, spec: spec, host: m.Name, guest: g}
	c.mu.Lock()
	c.recs[key] = rec
	c.mu.Unlock()
	return g, nil
}

// DestroyGuest tears a guest down cluster-wide: host-side teardown, then
// the directory entry and record.
func (c *Cluster) DestroyGuest(key string) error {
	rec, err := c.record(key)
	if err != nil {
		return err
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	c.mu.Lock()
	host, g := rec.host, rec.guest
	c.mu.Unlock()
	m, ok := c.Member(host)
	if !ok {
		return fmt.Errorf("cluster: no member %q", host)
	}
	m.fs.unbind(vtpm.StateName(g.Instance))
	if err := m.Host.DestroyGuest(g); err != nil {
		return err
	}
	c.dir.Remove(key)
	c.mu.Lock()
	delete(c.recs, key)
	c.mu.Unlock()
	return nil
}

// Keys returns all placed guest keys (unordered).
func (c *Cluster) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.recs))
	for k := range c.recs {
		out = append(out, k)
	}
	return out
}

// keysOn snapshots the keys whose record currently lives on host.
func (c *Cluster) keysOn(host string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for k, rec := range c.recs {
		if rec.host == host {
			out = append(out, k)
		}
	}
	return out
}

// Stats is a point-in-time federation snapshot.
type Stats struct {
	Guests       int
	MigStarted   uint64
	MigCommitted uint64
	MigAborted   uint64
	MigRetried   uint64
	Evacuated    uint64
	// Blackout is the per-instance guest-visible pause distribution across
	// committed migrations (fence → destination reattached).
	Blackout metrics.HistogramSnapshot
	Members  []MemberStats
}

// MemberStats is one member's slice of the snapshot.
type MemberStats struct {
	Name         string
	Fail         FailState
	Draining     bool
	Guests       int
	FenceRejects uint64
	StoreRejects uint64
}

// ClusterStats snapshots the federation.
func (c *Cluster) ClusterStats() Stats {
	owners := c.dir.Owners()
	c.mu.Lock()
	s := Stats{
		Guests:       len(c.recs),
		MigStarted:   c.migStarted.Load(),
		MigCommitted: c.migCommitted.Load(),
		MigAborted:   c.migAborted.Load(),
		MigRetried:   c.migRetried.Load(),
		Evacuated:    c.evacuated.Load(),
		Blackout:     c.blackout.Snapshot(),
	}
	for _, m := range c.members {
		s.Members = append(s.Members, MemberStats{
			Name:         m.Name,
			Fail:         m.fail,
			Draining:     m.draining,
			Guests:       len(owners[m.Name]),
			FenceRejects: m.Host.Manager.FenceRejects(),
			StoreRejects: m.fs.Rejects(),
		})
	}
	c.mu.Unlock()
	return s
}

// RegisterMetrics exposes the federation's instruments in reg.
func (c *Cluster) RegisterMetrics(reg *metrics.Registry) error {
	for name, ctr := range map[string]*metrics.Counter{
		"cluster_migrations_started":   &c.migStarted,
		"cluster_migrations_committed": &c.migCommitted,
		"cluster_migrations_aborted":   &c.migAborted,
		"cluster_transfer_retries":     &c.migRetried,
		"cluster_evacuated_instances":  &c.evacuated,
	} {
		if err := reg.RegisterCounter(name, "federation "+name, ctr); err != nil {
			return err
		}
	}
	if err := reg.RegisterHistogram("cluster_migration_blackout_ns",
		"guest-visible pause per committed migration", c.blackout); err != nil {
		return err
	}
	return reg.RegisterGaugeFunc("cluster_store_rejects",
		"writes the epoch fence refused, summed over members", func() float64 {
			var n uint64
			for _, m := range c.Members() {
				n += m.fs.Rejects()
			}
			return float64(n)
		})
}

// Close shuts every member down, draining pending checkpoint work.
func (c *Cluster) Close() error {
	var errs []error
	for _, m := range c.Members() {
		if c.failStateOf(m) == Condemned {
			// A condemned member's store is sealed; its final flush can only
			// fail, and its state has already been adopted elsewhere. Its
			// devices still stop, so no service loop outlives the cluster.
			m.Host.StopDevices()
			continue
		}
		if err := m.Host.Close(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", m.Name, err))
		}
	}
	return errors.Join(errs...)
}
