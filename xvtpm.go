// Package xvtpm is the public API of the vTPM access-control reproduction:
// it assembles a simulated Xen host — hypervisor, XenStore, hardware TPM,
// vTPM manager with a chosen access-control guard — and offers guest
// lifecycle, TPM access and the per-host migration steps on top. Moving a
// guest between hosts is internal/cluster's Cluster.Migrate.
//
// The package reproduces "Improvement for vTPM Access Control on Xen"
// (Morikawa, Ebara, Onishi, Nakano; ICPP Workshops 2010). Two access-control
// modes are available and directly comparable:
//
//   - ModeBaseline: the stock Xen vTPM behaviour (instance↔domain-ID table,
//     plaintext state, unprotected migration).
//   - ModeImproved: the paper's improvement (measured-identity binding,
//     authenticated+encrypted command channel, default-deny ordinal policy,
//     state sealed to the hardware TPM, protected migration).
//
// A minimal session:
//
//	host, _ := xvtpm.NewHost(xvtpm.HostConfig{Name: "hostA", Mode: xvtpm.ModeImproved})
//	guest, _ := host.CreateGuest(xvtpm.GuestConfig{Name: "web", Kernel: kernel})
//	guest.TPM.Extend(10, measurement)
//	blob, _ := guest.TPM.Seal(tpm.KHSRK, srkAuth, dataAuth, nil, secret)
package xvtpm

import (
	"crypto/sha1"
	"errors"
	"fmt"
	"sync"
	"time"

	"xvtpm/internal/core"
	"xvtpm/internal/metrics"
	"xvtpm/internal/store/logstore"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
	"xvtpm/internal/xenstore"
)

// Mode selects the access-control guard a host runs.
type Mode int

// Host access-control modes.
const (
	ModeBaseline Mode = iota
	ModeImproved
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeImproved {
		return "improved"
	}
	return "baseline"
}

// StoreBackend selects which built-in persistence backend NewHost
// constructs when HostConfig.Store is nil.
type StoreBackend int

// Built-in persistence backends.
const (
	// StoreFlat is the seed behaviour: a flat in-memory blob store paying
	// one write per dirty instance.
	StoreFlat StoreBackend = iota
	// StoreLog is the segmented append-only log store: checkpoint Puts from
	// concurrent write-behind workers coalesce into group commits, one sync
	// per commit window. See internal/store/logstore.
	StoreLog
)

// String implements fmt.Stringer.
func (b StoreBackend) String() string {
	if b == StoreLog {
		return "log"
	}
	return "flat"
}

// Re-exported types so example code needs only this package and
// internal/tpm for client constants.
type (
	// Guest is a running domain with an attached vTPM.
	Guest struct {
		Name     string
		Dom      *xen.Domain
		Instance vtpm.InstanceID
		Frontend *vtpm.Frontend
		// Profile is the guest vTPM's command profile; it decides which of
		// TPM/TPM2 is populated.
		Profile tpm.Profile
		// TPM drives a 1.2-profile vTPM through the full path: client →
		// frontend → ring → backend → guard → instance engine. Nil for a
		// 2.0 guest.
		TPM *tpm.Client
		// TPM2 drives a 2.0-profile vTPM through the same path. Nil for a
		// 1.2 guest.
		TPM2 *tpm.Client2

		host *Host
	}
)

// HostConfig parameterizes a simulated host.
type HostConfig struct {
	Name string
	Mode Mode
	// RSABits sizes all TPM keys on the host (hardware and instances).
	// Zero means tpm.DefaultRSABits; tests and benchmarks use 512.
	RSABits int
	// Seed makes the host deterministic when non-nil.
	Seed []byte
	// Dom0Pages sizes the management domain's memory (manager working
	// buffers live there). Zero picks a default large enough for dozens of
	// instances.
	Dom0Pages int
	// EKPoolSize pre-generates instance RSA keys in the background
	// (experiments E3, E20), shared by every instance on the host.
	EKPoolSize int
	// Checkpoint selects the manager's state-persistence policy: eager
	// (default), writeback or deferred. See vtpm.CheckpointPolicy.
	Checkpoint vtpm.CheckpointPolicy
	// MaxDirtyCommands / MaxDirtyInterval bound the writeback durability
	// window; zero means the vtpm package defaults.
	MaxDirtyCommands int
	MaxDirtyInterval time.Duration
	// Store overrides the manager's state store. Nil means NewHost builds
	// the backend StoreBackend selects. Fault-injection runs pass a
	// faults.Store here (wrapping either backend).
	Store vtpm.Store
	// StoreBackend selects the built-in persistence backend when Store is
	// nil: StoreFlat (default, one in-memory blob per name) or StoreLog
	// (segmented append-only log with cross-instance group commit).
	StoreBackend StoreBackend
	// Retry bounds the manager's store-I/O retry loop; zero fields mean the
	// vtpm package defaults. See vtpm.RetryPolicy.
	Retry vtpm.RetryPolicy
	// TraceDepth, TraceSampleRate and TraceSeed configure the manager's
	// per-command span recorder: ring capacity per instance (zero means the
	// trace package default, negative disables tracing), 1-in-N sampling
	// (0 or 1 records everything) and the seed of the deterministic
	// sampling stream. See internal/trace.
	TraceDepth      int
	TraceSampleRate int
	TraceSeed       int64
	// Profile sets the default command profile for new vTPM instances on
	// this host (AnyProfile means 1.2). Per-guest GuestConfig.Profile
	// overrides it; the manager itself stays profile-agnostic, so a host
	// runs a mixed 1.2/2.0 fleet regardless of this default.
	Profile tpm.Profile
}

// Host is one simulated physical machine.
type Host struct {
	Name    string
	Mode    Mode
	HV      *xen.Hypervisor
	XS      *xenstore.Store
	HWTPM   *tpm.TPM
	HW      *tpm.Client
	Manager *vtpm.Manager
	Backend *vtpm.Backend
	Store   vtpm.Store

	guard     vtpm.Guard
	keys      *core.PlatformKeys // improved mode only
	transport *vtpm.TransportMetrics
	profile   tpm.Profile // default profile for new guests

	mu        sync.Mutex
	guests    map[xen.DomID]*Guest
	anchor    *core.AuditAnchor
	suspended map[string]*suspendedGuest
}

// EnableAuditAnchor provisions hardware anchoring for the improved guard's
// audit log (an NV area plus a monotonic counter in the host's hardware
// TPM). Idempotent per host.
func (h *Host) EnableAuditAnchor() error {
	if h.Mode != ModeImproved {
		return errors.New("xvtpm: audit anchoring requires the improved guard")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.anchor != nil {
		return nil
	}
	anchor, err := core.NewAuditAnchor(h.keys)
	if err != nil {
		return err
	}
	h.anchor = anchor
	return nil
}

// AnchorAudit commits the current audit head into the hardware TPM and
// returns the anchor counter value.
func (h *Host) AnchorAudit() (uint32, error) {
	h.mu.Lock()
	anchor := h.anchor
	h.mu.Unlock()
	if anchor == nil {
		return 0, errors.New("xvtpm: audit anchor not enabled")
	}
	ig, ok := h.ImprovedGuard()
	if !ok {
		return 0, errors.New("xvtpm: no improved guard")
	}
	return anchor.Anchor(ig.Audit())
}

// VerifyAuditAgainstAnchor checks the guard's current audit log against the
// hardware anchor.
func (h *Host) VerifyAuditAgainstAnchor() error {
	h.mu.Lock()
	anchor := h.anchor
	h.mu.Unlock()
	if anchor == nil {
		return errors.New("xvtpm: audit anchor not enabled")
	}
	ig, ok := h.ImprovedGuard()
	if !ok {
		return errors.New("xvtpm: no improved guard")
	}
	return anchor.VerifyAgainstAnchor(ig.Audit().Records())
}

// Guard returns the host's access-control guard.
func (h *Host) Guard() vtpm.Guard { return h.guard }

// ImprovedGuard returns the improved guard when the host runs in
// ModeImproved, for policy administration and audit access.
func (h *Host) ImprovedGuard() (*core.ImprovedGuard, bool) {
	g, ok := h.guard.(*core.ImprovedGuard)
	return g, ok
}

// hostAuth derives the host's hardware TPM owner and SRK secrets from its
// name (a stand-in for the datacenter's credential store).
func hostAuth(name, role string) (a [tpm.AuthSize]byte) {
	h := sha1.Sum([]byte("host-auth|" + name + "|" + role))
	copy(a[:], h[:])
	return a
}

// NewHost boots a simulated host: hypervisor with dom0, XenStore, owned
// hardware TPM, guard, manager and backend.
func NewHost(cfg HostConfig) (*Host, error) {
	if cfg.Name == "" {
		return nil, errors.New("xvtpm: host must be named")
	}
	dom0Pages := cfg.Dom0Pages
	if dom0Pages == 0 {
		dom0Pages = 4096 // 16 MiB of manager working memory
	}
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: dom0Pages})
	xs := xenstore.New()

	var seed []byte
	if cfg.Seed != nil {
		seed = append(append([]byte(nil), cfg.Seed...), []byte("|hw|"+cfg.Name)...)
	}
	hwEng, err := tpm.New(tpm.Config{RSABits: cfg.RSABits, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("xvtpm: hardware TPM: %w", err)
	}
	hw := tpm.NewClient(tpm.DirectTransport{TPM: hwEng}, nil)
	if err := hw.Startup(tpm.STClear); err != nil {
		return nil, err
	}
	if err := hw.SelfTestFull(); err != nil {
		return nil, err
	}

	store := cfg.Store
	if store == nil {
		switch cfg.StoreBackend {
		case StoreFlat:
			store = vtpm.NewMemStore()
		case StoreLog:
			store = logstore.New(logstore.Config{NotFound: vtpm.ErrNoState})
		default:
			return nil, fmt.Errorf("xvtpm: unknown store backend %d", cfg.StoreBackend)
		}
	}
	h := &Host{
		Name:      cfg.Name,
		Mode:      cfg.Mode,
		HV:        hv,
		XS:        xs,
		HWTPM:     hwEng,
		HW:        hw,
		Store:     store,
		guests:    make(map[xen.DomID]*Guest),
		transport: vtpm.NewTransportMetrics(),
		profile:   cfg.Profile,
	}
	switch cfg.Mode {
	case ModeImproved:
		keys, err := core.SetupPlatformKeys(hw, []byte("platform|"+cfg.Name),
			hostAuth(cfg.Name, "owner"), hostAuth(cfg.Name, "srk"))
		if err != nil {
			return nil, fmt.Errorf("xvtpm: platform keys: %w", err)
		}
		h.keys = keys
		h.guard = core.NewImprovedGuard(keys, core.NewPolicy())
	case ModeBaseline:
		h.guard = core.NewBaselineGuard()
	default:
		return nil, fmt.Errorf("xvtpm: unknown mode %d", cfg.Mode)
	}

	dom0, err := hv.Domain(xen.Dom0)
	if err != nil {
		return nil, err
	}
	var mgrSeed []byte
	if cfg.Seed != nil {
		mgrSeed = append(append([]byte(nil), cfg.Seed...), []byte("|mgr|"+cfg.Name)...)
	}
	h.Manager = vtpm.NewManager(hv, h.Store, xen.NewArena(dom0), h.guard, vtpm.ManagerConfig{
		RSABits:          cfg.RSABits,
		Seed:             mgrSeed,
		EKPoolSize:       cfg.EKPoolSize,
		Checkpoint:       cfg.Checkpoint,
		MaxDirtyCommands: cfg.MaxDirtyCommands,
		MaxDirtyInterval: cfg.MaxDirtyInterval,
		Retry:            cfg.Retry,
		TraceDepth:       cfg.TraceDepth,
		TraceSampleRate:  cfg.TraceSampleRate,
		TraceSeed:        cfg.TraceSeed,
	})
	h.Backend = vtpm.NewBackend(hv, xs, h.Manager)
	h.Backend.SetTransportMetrics(h.transport)
	return h, nil
}

// TransportMetrics returns the host's guest-transport instruments (round-trip
// latency and ring batch size), for tooling like vtpmctl top.
func (h *Host) TransportMetrics() *vtpm.TransportMetrics { return h.transport }

// LogStore returns the log-structured store backing this host, unwrapping
// fault-injection layers, or false when the host persists through a flat
// backend.
func (h *Host) LogStore() (*logstore.Store, bool) {
	return vtpm.UnwrapLogStore(h.Store)
}

// RegisterMetrics exposes the host's instruments — the manager's
// dispatch/checkpoint/health metrics, the store's group-commit counters
// when the log backend is in use, and, in improved mode, the guard's
// admission metrics — in reg for /metrics exposition.
func (h *Host) RegisterMetrics(reg *metrics.Registry) error {
	if err := h.Manager.RegisterMetrics(reg); err != nil {
		return err
	}
	if err := h.transport.Register(reg); err != nil {
		return err
	}
	if ls, ok := h.LogStore(); ok {
		if err := ls.RegisterMetrics(reg); err != nil {
			return err
		}
	}
	if ig, ok := h.ImprovedGuard(); ok {
		return ig.RegisterMetrics(reg)
	}
	return nil
}

// Close releases background resources: it stops every guest's device
// (StopDevices), drains pending write-behind checkpoints, then flushes the
// improved guard's bind key from the hardware TPM. A non-nil error
// means some instance's dirty state could not be persisted (the aggregate
// names each one, joined with errors.Join) — shutdown completed, but not
// silently.
func (h *Host) Close() error {
	h.StopDevices()
	err := h.Manager.Close()
	if h.keys != nil {
		err = errors.Join(err, h.keys.Close())
	}
	return err
}

// StopDevices closes every guest's frontend and detaches every backend
// device, so no device service loop outlives the host. The guests, their
// instances and the store are left as they are. Safe to call more than
// once.
func (h *Host) StopDevices() {
	h.mu.Lock()
	guests := make([]*Guest, 0, len(h.guests))
	for _, g := range h.guests {
		guests = append(guests, g)
	}
	h.mu.Unlock()
	for _, g := range guests {
		g.Frontend.Close()
	}
	h.Backend.DetachAll()
}

// HostStats is a point-in-time operational snapshot for tooling.
type HostStats struct {
	Mode          Mode
	Guests        int
	Instances     int
	HWCommands    uint64 // commands the hardware TPM has executed
	AuditRecords  int    // improved mode only
	AuditVerifies bool   // improved mode only
	StoredBlobs   int
}

// Stats snapshots the host's operational state.
func (h *Host) Stats() HostStats {
	s := HostStats{
		Mode:       h.Mode,
		Instances:  len(h.Manager.Instances()),
		HWCommands: h.HWTPM.CommandCount(),
	}
	h.mu.Lock()
	s.Guests = len(h.guests)
	h.mu.Unlock()
	if names, err := h.Store.List(); err == nil {
		s.StoredBlobs = len(names)
	}
	if ig, ok := h.ImprovedGuard(); ok {
		s.AuditRecords = ig.Audit().Len()
		s.AuditVerifies = ig.Audit().Verify() == nil
	}
	return s
}

// GuestConfig describes a guest to create.
type GuestConfig struct {
	Name    string
	Kernel  []byte
	Initrd  []byte
	Cmdline string
	Pages   int
	// Profile selects the guest vTPM's command profile. AnyProfile (the
	// zero value) takes the host's default (HostConfig.Profile, itself
	// defaulting to 1.2), so existing callers keep getting 1.2 guests.
	// Guests of both profiles coexist under one host.
	Profile tpm.Profile
}

// CreateGuest builds a domain, provisions a vTPM instance bound to its
// measured launch identity, grants it the default guest policy (improved
// mode), and completes the split-driver handshake. The returned guest's TPM
// client exercises the full command path.
func (h *Host) CreateGuest(cfg GuestConfig) (*Guest, error) {
	if len(cfg.Kernel) == 0 {
		return nil, errors.New("xvtpm: guest needs a kernel to be measured")
	}
	dom, err := h.HV.CreateDomain(xen.DomainConfig{
		Name: cfg.Name, Kernel: cfg.Kernel, Initrd: cfg.Initrd, Cmdline: cfg.Cmdline, Pages: cfg.Pages,
	})
	if err != nil {
		return nil, err
	}
	profile := cfg.Profile
	if profile == tpm.AnyProfile {
		profile = h.profile // still AnyProfile when unset; manager picks 1.2
	}
	inst, err := h.Manager.CreateInstanceProfile(profile)
	if err != nil {
		return nil, err
	}
	return h.attachGuest(dom, inst, true)
}

// attachGuest binds an existing instance to a domain and connects the
// device. Shared by CreateGuest, resume and migration receive and rollback.
// grant appends the default guest policy (improved mode): true for an
// instance new to this host, false when a guest re-attaches to an instance
// it already held here, whose rules are still in place.
func (h *Host) attachGuest(dom *xen.Domain, inst vtpm.InstanceID, grant bool) (*Guest, error) {
	// The domain builder pre-creates the guest's XenStore home directory
	// and hands it over, as xend does.
	base := fmt.Sprintf("/local/domain/%d", dom.ID())
	if err := h.XS.Write(xen.Dom0, xenstore.NoTxn, base+"/name", []byte(dom.Name())); err != nil {
		return nil, err
	}
	if err := h.XS.SetPerms(xen.Dom0, xenstore.NoTxn, base, xenstore.Perms{
		Owner:   dom.ID(),
		Default: xenstore.PermNone,
	}); err != nil {
		return nil, err
	}
	if err := h.Manager.BindInstance(inst, dom); err != nil {
		return nil, err
	}
	if ig, ok := h.ImprovedGuard(); ok && grant {
		ig.Policy().Append(core.DefaultGuestPolicy(dom.Launch(), inst)...)
	}
	codec, err := h.Manager.EncoderFor(inst)
	if err != nil {
		return nil, err
	}
	fe := vtpm.NewFrontend(h.HV, h.XS, dom, codec, h.transport)
	if err := fe.Setup(); err != nil {
		return nil, err
	}
	if err := h.Backend.AttachDevice(dom.ID()); err != nil {
		return nil, err
	}
	if err := fe.WaitConnected(); err != nil {
		return nil, err
	}
	info, err := h.Manager.InstanceInfo(inst)
	if err != nil {
		return nil, err
	}
	g := &Guest{
		Name:     dom.Name(),
		Dom:      dom,
		Instance: inst,
		Frontend: fe,
		Profile:  info.Profile,
		host:     h,
	}
	// The frontend transport is profile-blind; the client speaking through
	// it must match the instance's engine.
	if info.Profile == tpm.Profile20 {
		g.TPM2 = tpm.NewClient2(fe, nil)
	} else {
		g.TPM = tpm.NewClient(fe, nil)
	}
	h.mu.Lock()
	h.guests[dom.ID()] = g
	h.mu.Unlock()
	return g, nil
}

// DestroyGuest tears a guest down: device, instance and domain.
func (h *Host) DestroyGuest(g *Guest) error {
	g.Frontend.Close()
	h.Backend.DetachDevice(g.Dom.ID()) //nolint:errcheck // may already be closed
	if err := h.Manager.UnbindInstance(g.Instance); err != nil && !errors.Is(err, vtpm.ErrUnbound) {
		return err
	}
	if err := h.destroyInstance(g.Instance); err != nil {
		return err
	}
	h.mu.Lock()
	delete(h.guests, g.Dom.ID())
	h.mu.Unlock()
	if err := h.HV.DestroyDomain(xen.Dom0, g.Dom.ID()); err != nil {
		return err
	}
	h.forgetDomain(g.Dom.ID())
	return nil
}

// destroyInstance removes an instance from this host together with what
// the improved guard keeps for it (rules, channel, rate state), so neither
// piles up as guests leave.
func (h *Host) destroyInstance(id vtpm.InstanceID) error {
	if err := h.Manager.DestroyInstance(id); err != nil {
		return err
	}
	if ig, ok := h.ImprovedGuard(); ok {
		ig.DropInstance(id)
	}
	return nil
}

// forgetDomain clears a dead domain's XenStore state, as the toolstack
// does: its home directory and its vTPM backend directory.
func (h *Host) forgetDomain(dom xen.DomID) {
	h.XS.Remove(xen.Dom0, xenstore.NoTxn, fmt.Sprintf("/local/domain/%d", dom))                //nolint:errcheck // best effort
	h.XS.Remove(xen.Dom0, xenstore.NoTxn, fmt.Sprintf("/local/domain/0/backend/vtpm/%d", dom)) //nolint:errcheck // best effort
}

// Guests returns the host's live guests.
func (h *Host) Guests() []*Guest {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Guest, 0, len(h.guests))
	for _, g := range h.guests {
		out = append(out, g)
	}
	return out
}

// LoadSlot is one dedicated open-loop execution lane for the load
// harness: a synthetic domain with a bound vTPM instance whose only
// client is a manager load session (see vtpm.LoadSession for why it must
// be the only one — the improved channel's anti-replay window is per
// instance). The matching profile's client speaks over the session, so
// auth-heavy ops (Seal, Quote) work exactly as they do for real guests.
type LoadSlot struct {
	Dom      *xen.Domain
	Instance vtpm.InstanceID
	Session  *vtpm.LoadSession
	Profile  tpm.Profile
	TPM      *tpm.Client  // 1.2 slots
	TPM2     *tpm.Client2 // 2.0 slots
}

// OpenLoadSlot builds a load slot: domain created and measured, instance
// bound to its launch identity, default guest policy granted (improved
// mode), synthetic session admitted. No ring, frontend or backend — the
// slot loads the guard + dispatch + engine path itself.
func (h *Host) OpenLoadSlot(name string, profile tpm.Profile) (*LoadSlot, error) {
	dom, err := h.HV.CreateDomain(xen.DomainConfig{Name: name, Kernel: []byte("loadgen-" + name)})
	if err != nil {
		return nil, err
	}
	if profile == tpm.AnyProfile {
		profile = h.profile
	}
	inst, err := h.Manager.CreateInstanceProfile(profile)
	if err != nil {
		return nil, err
	}
	if err := h.Manager.BindInstance(inst, dom); err != nil {
		return nil, err
	}
	if ig, ok := h.ImprovedGuard(); ok {
		ig.Policy().Append(core.DefaultGuestPolicy(dom.Launch(), inst)...)
	}
	sess, err := h.Manager.OpenLoadSession(inst)
	if err != nil {
		return nil, err
	}
	info, err := h.Manager.InstanceInfo(inst)
	if err != nil {
		return nil, err
	}
	slot := &LoadSlot{Dom: dom, Instance: inst, Session: sess, Profile: info.Profile}
	if info.Profile == tpm.Profile20 {
		slot.TPM2 = tpm.NewClient2(sess, nil)
	} else {
		slot.TPM = tpm.NewClient(sess, nil)
	}
	return slot, nil
}

// CloseLoadSlot retires a load slot: session, instance and domain.
func (h *Host) CloseLoadSlot(s *LoadSlot) error {
	s.Session.Close()
	if err := h.Manager.UnbindInstance(s.Instance); err != nil && !errors.Is(err, vtpm.ErrUnbound) {
		return err
	}
	if err := h.destroyInstance(s.Instance); err != nil {
		return err
	}
	return h.HV.DestroyDomain(xen.Dom0, s.Dom.ID())
}

// suspendedGuest is a locally parked guest: its domain image plus its
// still-registered (unbound) vTPM instance.
type suspendedGuest struct {
	img  *xen.DomainImage
	inst vtpm.InstanceID
}

// SuspendGuest parks a guest on this host: the device is detached, the
// domain saved and destroyed, and the vTPM instance kept registered
// (checkpointed) for resume. Returns the handle ResumeGuest takes.
func (h *Host) SuspendGuest(g *Guest) (string, error) {
	g.Frontend.Close()
	if err := h.Backend.DetachDevice(g.Dom.ID()); err != nil && !errors.Is(err, vtpm.ErrNotConnected) {
		return "", err
	}
	if err := h.Manager.UnbindInstance(g.Instance); err != nil {
		return "", err
	}
	if err := h.Manager.Checkpoint(g.Instance); err != nil {
		return "", err
	}
	img, err := h.HV.SaveDomain(xen.Dom0, g.Dom.ID())
	if err != nil {
		return "", err
	}
	if err := h.HV.DestroyDomain(xen.Dom0, g.Dom.ID()); err != nil {
		return "", err
	}
	// Resume creates fresh XenStore state under the new domain ID.
	h.forgetDomain(g.Dom.ID())
	h.mu.Lock()
	if h.suspended == nil {
		h.suspended = make(map[string]*suspendedGuest)
	}
	handle := g.Name
	h.suspended[handle] = &suspendedGuest{img: img, inst: g.Instance}
	delete(h.guests, g.Dom.ID())
	h.mu.Unlock()
	return handle, nil
}

// ResumeGuest revives a suspended guest: domain restored from its image,
// vTPM instance rebound, device reconnected.
func (h *Host) ResumeGuest(handle string) (*Guest, error) {
	h.mu.Lock()
	sg, ok := h.suspended[handle]
	if ok {
		delete(h.suspended, handle)
	}
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("xvtpm: no suspended guest %q", handle)
	}
	dom, err := h.HV.RestoreDomain(xen.Dom0, sg.img)
	if err != nil {
		return nil, err
	}
	return h.attachGuest(dom, sg.inst, false)
}
