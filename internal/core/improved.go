package core

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"xvtpm/internal/metrics"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// guardShardCount is the number of per-instance state shards. Power of two
// so the shard index is a mask; 16 keeps the footprint trivial while making
// shard-lock collisions between unrelated instances rare.
const guardShardCount = 16

// guardShard holds the per-instance state for the instances hashing to it.
// The shard lock guards only the map; each instanceState carries its own
// lock for the state within.
type guardShard struct {
	mu sync.RWMutex
	m  map[vtpm.InstanceID]*instanceState
}

// instanceState is everything the guard keeps per instance: the server side
// of the authenticated channel, the flood-control bucket and the expanded
// state-envelope key. mu guards the pointers, the bucket's configuration tag
// and the key's derivation; the channel and bucket have their own internal
// locks, so holding one instance's state never blocks another instance's
// admission.
type instanceState struct {
	mu sync.Mutex
	ch *serverChannel

	// stateKey is the instance's expanded state-envelope key, derived on
	// the first ProtectState or RecoverState (keyed) and kept across channel
	// resets. DropInstance zeroes it and sets dropped, after which the state
	// object caches nothing more.
	stateKey stateKeys
	keyed    bool
	dropped  bool

	bucket *tokenBucket
	// bucketEpoch/bucketRate tag the configuration the bucket was built
	// for; admitRate lazily rebuilds the bucket when either drifts from the
	// guard's current settings (see SetRateLimit).
	bucketEpoch uint64
	bucketRate  int
}

// ImprovedGuard is the paper's contribution: the improved access-control
// layer for the Xen vTPM subsystem. See the package comment for the design.
//
// Concurrency: all per-instance state lives in sharded maps so AdmitCommand
// for instance A never contends with instance B — there is no guard-wide
// lock on the admission path. Rate-limit configuration sits behind its own
// small RWMutex (see ratelimit.go); policy evaluation is lock-free on the
// read path (see policy.go).
type ImprovedGuard struct {
	keys   *PlatformKeys
	policy *Policy
	audit  *AuditLog

	shards [guardShardCount]guardShard

	// Flood control configuration (see ratelimit.go); zero disables.
	// rateOverride maps individual instances to their own limits. rateEpoch
	// is bumped whenever the default changes, invalidating every live
	// bucket lazily.
	rateMu        sync.RWMutex
	ratePerSecond int
	rateOverride  map[vtpm.InstanceID]int
	rateEpoch     uint64

	// Admission-decision instruments (see RegisterMetrics): allow/deny
	// counters split by refusal stage, and the admission latency
	// distribution. All atomic; the admission path stays lock- and
	// allocation-free on their account.
	admitted      metrics.Counter
	deniedRate    metrics.Counter
	deniedChannel metrics.Counter
	deniedPolicy  metrics.Counter
	admitLat      *metrics.Histogram
}

// NewImprovedGuard assembles the improved controller from its platform keys
// and policy. The audit log is created fresh.
func NewImprovedGuard(keys *PlatformKeys, policy *Policy) *ImprovedGuard {
	g := &ImprovedGuard{
		keys:     keys,
		policy:   policy,
		audit:    NewAuditLog(),
		admitLat: metrics.NewHistogram(nil),
	}
	for i := range g.shards {
		g.shards[i].m = make(map[vtpm.InstanceID]*instanceState)
	}
	return g
}

// Name implements vtpm.Guard.
func (g *ImprovedGuard) Name() string { return "improved" }

// Policy returns the guard's policy for runtime administration.
func (g *ImprovedGuard) Policy() *Policy { return g.policy }

// Audit returns the guard's decision log.
func (g *ImprovedGuard) Audit() *AuditLog { return g.audit }

// AdmissionStats is a point-in-time digest of the guard's decisions.
type AdmissionStats struct {
	Admitted uint64
	// Refusals split by the stage that refused: flood control, channel
	// authentication (decrypt/replay), policy evaluation.
	DeniedRate    uint64
	DeniedChannel uint64
	DeniedPolicy  uint64
	// Admission-decision cache traffic: the policy's decision cache, which
	// only the guard consults on a host.
	CacheHits   uint64
	CacheMisses uint64
	// Latency digests AdmitCommand duration across all decisions.
	Latency metrics.HistogramSummary
}

// AdmissionStats snapshots the guard's decision counters.
func (g *ImprovedGuard) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		Admitted:      g.admitted.Load(),
		DeniedRate:    g.deniedRate.Load(),
		DeniedChannel: g.deniedChannel.Load(),
		DeniedPolicy:  g.deniedPolicy.Load(),
		CacheHits:     g.policy.hits.Load(),
		CacheMisses:   g.policy.misses.Load(),
		Latency:       g.admitLat.Summarize(),
	}
}

// RegisterMetrics exposes the guard's admission instruments in reg under the
// xvtpm_guard_* namespace.
func (g *ImprovedGuard) RegisterMetrics(reg *metrics.Registry) error {
	type ctrReg struct {
		name, help string
		c          *metrics.Counter
	}
	for _, cr := range []ctrReg{
		{"xvtpm_guard_admitted_total", "Commands admitted by the guard.", &g.admitted},
		{"xvtpm_guard_denied_rate_total", "Commands refused by flood control.", &g.deniedRate},
		{"xvtpm_guard_denied_channel_total", "Commands refused by channel authentication.", &g.deniedChannel},
		{"xvtpm_guard_denied_policy_total", "Commands refused by policy evaluation.", &g.deniedPolicy},
		{"xvtpm_guard_admit_cache_hits_total", "Admission-decision cache hits.", &g.policy.hits},
		{"xvtpm_guard_admit_cache_misses_total", "Admission-decision cache misses.", &g.policy.misses},
	} {
		if err := reg.RegisterCounter(cr.name, cr.help, cr.c); err != nil {
			return err
		}
	}
	return reg.RegisterHistogram("xvtpm_guard_admit_seconds", "Guard admission latency.", g.admitLat)
}

// shard returns the shard owning an instance's state.
func (g *ImprovedGuard) shard(id vtpm.InstanceID) *guardShard {
	return &g.shards[uint32(id)&(guardShardCount-1)]
}

// lookupState returns an instance's guard state, or nil if the guard holds
// none.
func (g *ImprovedGuard) lookupState(id vtpm.InstanceID) *instanceState {
	s := g.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[id]
}

// stateFor returns (creating if needed) an instance's guard state. The fast
// path is one shard read-lock and a map hit.
func (g *ImprovedGuard) stateFor(id vtpm.InstanceID) *instanceState {
	if st := g.lookupState(id); st != nil {
		return st
	}
	s := g.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.m[id]
	if st == nil {
		st = &instanceState{}
		s.m[id] = st
	}
	return st
}

// channelFor returns (creating if needed) the server channel for an
// instance, keyed by the instance's *bound* identity — not by anything the
// caller claims.
func (g *ImprovedGuard) channelFor(inst vtpm.InstanceInfo) *serverChannel {
	st := g.stateFor(inst.ID)
	st.mu.Lock()
	if st.ch == nil {
		st.ch = &serverChannel{key: g.keys.ChannelKeyFor(inst.ID, inst.BoundLaunch)}
	}
	ch := st.ch
	st.mu.Unlock()
	return ch
}

// ResetChannel discards an instance's channel state (on rebind after
// migration, when a fresh codec with a fresh sequence space is issued). The
// instance's flood-control bucket survives a channel reset.
func (g *ImprovedGuard) ResetChannel(id vtpm.InstanceID) {
	st := g.lookupState(id)
	if st == nil {
		return
	}
	st.mu.Lock()
	st.ch = nil
	st.mu.Unlock()
}

// DropInstance forgets everything the guard keeps for an instance that has
// left the host: the policy rules naming it, its server channel,
// flood-control bucket and state key (zeroed), and any rate override set
// for it.
func (g *ImprovedGuard) DropInstance(id vtpm.InstanceID) {
	g.policy.DropInstance(id)
	g.rateMu.Lock()
	delete(g.rateOverride, id)
	g.rateMu.Unlock()
	s := g.shard(id)
	s.mu.Lock()
	st := s.m[id]
	delete(s.m, id)
	s.mu.Unlock()
	if st != nil {
		st.mu.Lock()
		clear(st.stateKey[:])
		st.keyed, st.dropped = false, true
		st.mu.Unlock()
	}
}

// InstanceStates reports how many instances the guard holds channel,
// flood-control and state-key state for.
func (g *ImprovedGuard) InstanceStates() int {
	n := 0
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// AdmitCommand implements vtpm.Guard. The claimed origin is deliberately
// ignored for authentication: only possession of the channel key — which
// the domain builder installed into the measured guest and nowhere else —
// admits a command. Policy is then evaluated against the instance's bound
// identity.
func (g *ImprovedGuard) AdmitCommand(inst vtpm.InstanceInfo, claimedFrom xen.DomID, claimedLaunch xen.LaunchDigest, payload []byte) ([]byte, vtpm.ResponseFinisher, error) {
	start := time.Now()
	defer func() { g.admitLat.Record(time.Since(start)) }()
	if err := g.admitRate(inst.ID, start); err != nil {
		g.deniedRate.Inc()
		g.audit.Append(inst.ID, inst.BoundLaunch, 0, Deny, "rate")
		return nil, nil, err
	}
	ch := g.channelFor(inst)
	cmd, seq, err := ch.open(payload)
	if err != nil {
		g.deniedChannel.Inc()
		g.audit.Append(inst.ID, inst.BoundLaunch, 0, Deny, "channel: "+err.Error())
		return nil, nil, err
	}
	ordinal := ordinalOf(cmd)
	if g.policy.Evaluate(inst.Profile, inst.BoundLaunch, inst.ID, ordinal) != Allow {
		g.deniedPolicy.Inc()
		g.audit.Append(inst.ID, inst.BoundLaunch, ordinal, Deny, "policy")
		return nil, nil, fmt.Errorf("%w: ordinal %#x for instance %d", vtpm.ErrDenied, ordinal, inst.ID)
	}
	g.admitted.Inc()
	g.audit.Append(inst.ID, inst.BoundLaunch, ordinal, Allow, "")
	finish := func(resp []byte) ([]byte, error) {
		return ch.seal(resp, seq)
	}
	return cmd, finish, nil
}

// EncoderFor implements vtpm.Guard: issue the guest codec for an instance's
// bound identity. Issuing a codec resets the server-side sequence window,
// pairing it with the fresh client window.
func (g *ImprovedGuard) EncoderFor(inst vtpm.InstanceInfo) (vtpm.GuestCodec, error) {
	if inst.BoundLaunch == (xen.LaunchDigest{}) {
		return nil, vtpm.ErrNotBound
	}
	g.ResetChannel(inst.ID)
	return NewGuestCodec(g.keys.ChannelKeyFor(inst.ID, inst.BoundLaunch)), nil
}

// ProtectState implements vtpm.Guard: envelope the state under the
// instance's derived key.
func (g *ImprovedGuard) ProtectState(inst vtpm.InstanceInfo, dst, state []byte) ([]byte, error) {
	c, err := g.stateCipherFor(inst.ID)
	if err != nil {
		return nil, err
	}
	return c.sealAppend(dst, state)
}

// RecoverState implements vtpm.Guard.
func (g *ImprovedGuard) RecoverState(inst vtpm.InstanceInfo, blob []byte) ([]byte, error) {
	c, err := g.stateCipherFor(inst.ID)
	if err != nil {
		return nil, err
	}
	return c.open(blob)
}

// stateCipherFor sets up an instance's state key for one envelope. An
// instance the guard holds state for — every instance that has had a
// command admitted — keeps its expanded key there, derived on first use.
// For any other instance the key is derived for this call alone: sealing or
// opening state never creates guard state, so a failed create or an adopted
// foreign checkpoint leaves nothing behind, and neither does a call racing
// DropInstance.
func (g *ImprovedGuard) stateCipherFor(id vtpm.InstanceID) (stateCipher, error) {
	st := g.lookupState(id)
	if st == nil {
		return g.keys.instanceStateCipher(id)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dropped {
		return g.keys.instanceStateCipher(id)
	}
	if !st.keyed {
		g.keys.instanceStateKeys(id, &st.stateKey)
		st.keyed = true
	}
	return newStateCipher(&st.stateKey)
}

// Migration envelope wire form: encKek(B32) ∥ stateEnvelope(B32), where
// encKek is a fresh key-encryption key OAEP-bound to the destination host's
// TPM-resident bind key.

// ExportState implements vtpm.Guard.
func (g *ImprovedGuard) ExportState(inst vtpm.InstanceInfo, state []byte, destEK *rsa.PublicKey) ([]byte, error) {
	if destEK == nil {
		return nil, fmt.Errorf("%w: improved guard requires a destination bind key", vtpm.ErrStateSealed)
	}
	kek := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, kek); err != nil {
		return nil, err
	}
	encKek, err := tpm.BindEncrypt(nil, destEK, kek[:16])
	if err != nil {
		return nil, fmt.Errorf("core: binding migration kek: %w", err)
	}
	// OAEP under small test moduli caps the message size, so bind 16 bytes
	// of the KEK and derive the envelope key from them.
	env, err := stateSeal(deriveBytes(kek[:16], "migration"), state)
	if err != nil {
		return nil, err
	}
	w := tpm.NewWriter()
	w.B32(encKek)
	w.B32(env)
	return w.Bytes(), nil
}

// ImportState implements vtpm.Guard: the KEK is recovered inside the
// hardware TPM via TPM_UnBind, so the bind private key never exists in host
// memory. An envelope with bytes past its two fields is refused before any
// hardware-TPM command runs: nothing would authenticate them.
func (g *ImprovedGuard) ImportState(blob []byte) ([]byte, error) {
	r := tpm.NewReader(blob)
	encKek := r.B32()
	env := r.B32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", vtpm.ErrStateSealed, err)
	}
	if n := r.Remaining(); n != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the migration envelope", vtpm.ErrStateSealed, n)
	}
	kek, err := g.keys.UnbindMigrationKek(encKek)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", vtpm.ErrStateSealed, err)
	}
	return stateOpen(deriveBytes(kek, "migration"), env)
}

// MigrationIdentity implements vtpm.Guard.
func (g *ImprovedGuard) MigrationIdentity() *rsa.PublicKey { return g.keys.MigrationPub() }

// RetainsPlaintext implements vtpm.Guard: the improved manager scrubs
// exchange buffers immediately.
func (g *ImprovedGuard) RetainsPlaintext() bool { return false }

// ordinalOf extracts the ordinal from a marshaled TPM command.
func ordinalOf(cmd []byte) uint32 {
	if len(cmd) < 10 {
		return 0
	}
	return binary.BigEndian.Uint32(cmd[6:10])
}
