// Package core implements the paper's contribution: the improved vTPM
// access-control design for Xen, alongside the stock-Xen baseline it is
// evaluated against.
//
// The improved design (ImprovedGuard) closes the gaps the abstract names —
// host-side attackers harvesting guest secrets with CPU/memory dump tooling
// — with four mechanisms:
//
//  1. Identity binding: vTPM access is keyed to the guest's measured launch
//     digest, not to its reusable, forgeable domain ID.
//  2. An authenticated, encrypted command channel between the guest
//     frontend and the manager, with strictly monotonic sequence numbers:
//     a compromised dom0 component can neither forge a guest's commands nor
//     replay old ones, and ring pages carry only ciphertext.
//  3. Default-deny ordinal policy, evaluated per (identity, instance,
//     ordinal) with a decision cache.
//  4. Sealed state: vTPM instance state is envelope-encrypted under keys
//     derived from a master secret sealed to the hardware TPM; it is never
//     at rest or mirrored in memory as plaintext — nor on the wire: a move
//     ships the sealed checkpoint, which only a member of the host's
//     federation can open.
//
// The baseline (BaselineGuard) reproduces the deployed Xen vTPM behaviour:
// instance-to-domain-ID routing as the only check, plaintext state on disk
// and in manager memory, plaintext migration.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xvtpm/internal/metrics"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// Effect is a policy decision.
type Effect int

// Policy effects.
const (
	Deny Effect = iota
	Allow
)

// String implements fmt.Stringer.
func (e Effect) String() string {
	if e == Allow {
		return "allow"
	}
	return "deny"
}

// Group names a set of TPM ordinals that policy rules reference together.
type Group string

// The ordinal groups the policy language knows.
const (
	GroupAdmin     Group = "admin"     // startup, self-test, sessions, capabilities
	GroupPCR       Group = "pcr"       // extend, read, reset
	GroupAttest    Group = "attest"    // quote, identities
	GroupSealing   Group = "sealing"   // seal, unseal, unbind
	GroupKeys      Group = "keys"      // key creation, loading, signing
	GroupOwnership Group = "ownership" // take/clear ownership
	GroupNV        Group = "nv"        // non-volatile storage
	GroupRandom    Group = "random"    // rng access
)

// groupOrdinals maps each group to its TPM 1.2 member ordinals.
var groupOrdinals = map[Group][]uint32{
	GroupAdmin: {
		tpm.OrdStartup, tpm.OrdSaveState, tpm.OrdSelfTestFull, tpm.OrdContinueSelfTest,
		tpm.OrdGetTestResult, tpm.OrdOIAP, tpm.OrdOSAP, tpm.OrdTerminateHandle,
		tpm.OrdFlushSpecific, tpm.OrdGetCapability, tpm.OrdReadPubek,
	},
	GroupPCR:       {tpm.OrdExtend, tpm.OrdPCRRead, tpm.OrdPCRReset},
	GroupAttest:    {tpm.OrdQuote, tpm.OrdMakeIdentity, tpm.OrdActivateIdentity},
	GroupSealing:   {tpm.OrdSeal, tpm.OrdUnseal, tpm.OrdUnBind},
	GroupKeys:      {tpm.OrdCreateWrapKey, tpm.OrdLoadKey2, tpm.OrdGetPubKey, tpm.OrdSign},
	GroupOwnership: {tpm.OrdTakeOwnership, tpm.OrdOwnerClear, tpm.OrdForceClear},
	GroupNV:        {tpm.OrdNVDefineSpace, tpm.OrdNVWriteValue, tpm.OrdNVReadValue},
	GroupRandom:    {tpm.OrdGetRandom, tpm.OrdStirRandom},
}

// group20Codes maps each group to its TPM 2.0 command-code members. The
// groups are shared across profiles — a rule granting GroupPCR grants
// PCR-class commands to a 1.2 and a 2.0 guest alike — but membership is
// resolved per profile, so a numeric collision between a 1.2 ordinal and a
// 2.0 TPM2_CC_* value can never cross group boundaries.
var group20Codes = map[Group][]uint32{
	GroupAdmin: {
		tpm.TPM2CCStartup, tpm.TPM2CCShutdown, tpm.TPM2CCSelfTest,
		tpm.TPM2CCGetTestResult, tpm.TPM2CCGetCapability,
		tpm.TPM2CCStartAuthSession, tpm.TPM2CCFlushContext, tpm.TPM2CCReadPublic,
	},
	GroupPCR:    {tpm.TPM2CCPCRExtend, tpm.TPM2CCPCRRead, tpm.TPM2CCPCRReset},
	GroupAttest: {tpm.TPM2CCQuote},
	GroupRandom: {tpm.TPM2CCGetRandom, tpm.TPM2CCStirRandom},
}

// GroupOf returns the group a command code belongs to under a profile (admin
// for unknown, which still default-denies unless admin is granted).
// AnyProfile resolves to the 1.2 table, matching NewEngine's default.
func GroupOf(p tpm.Profile, code uint32) Group {
	var m map[uint32]Group
	if p == tpm.Profile20 {
		m = code20ToGroup
	} else {
		m = ordinalToGroup
	}
	g, ok := m[code]
	if !ok {
		return GroupAdmin
	}
	return g
}

func invertGroups(src map[Group][]uint32) map[uint32]Group {
	m := make(map[uint32]Group)
	for g, codes := range src {
		for _, c := range codes {
			m[c] = g
		}
	}
	return m
}

var (
	ordinalToGroup = invertGroups(groupOrdinals)
	code20ToGroup  = invertGroups(group20Codes)
)

// AnyIdentity matches every launch identity in a rule.
var AnyIdentity = xen.LaunchDigest{}

// AnyInstance matches every instance in a rule.
const AnyInstance vtpm.InstanceID = 0

// Rule is one policy statement. Zero-valued selectors are wildcards; a rule
// names either a Group or a specific Ordinal (Ordinal wins if both set).
// Profile narrows the rule to one command profile: an Ordinal-selecting rule
// for a 1.2 ordinal that numerically collides with a 2.0 command code should
// carry Profile: tpm.Profile12 so the 2.0 instance is not accidentally
// granted (or denied) the colliding command. Group-selecting rules resolve
// membership per profile, so they are collision-safe even with
// Profile: AnyProfile.
type Rule struct {
	Identity xen.LaunchDigest
	Instance vtpm.InstanceID
	Profile  tpm.Profile
	Group    Group
	Ordinal  uint32
	Effect   Effect
}

// matches reports whether a rule applies to a request.
func (r Rule) matches(p tpm.Profile, id xen.LaunchDigest, inst vtpm.InstanceID, ordinal uint32) bool {
	if r.Identity != AnyIdentity && r.Identity != id {
		return false
	}
	if r.Instance != AnyInstance && r.Instance != inst {
		return false
	}
	if r.Profile != tpm.AnyProfile && r.Profile != p {
		return false
	}
	if r.Ordinal != 0 {
		return r.Ordinal == ordinal
	}
	if r.Group != "" {
		return r.Group == GroupOf(p, ordinal)
	}
	return true
}

// Policy is an ordered, first-match rule list with a default effect of Deny
// and the host's one admission-decision cache.
//
// The read path is lock-free: the rule list, the cache toggle and the cache
// itself live in an immutable table behind an atomic pointer. Writers
// (Append/Prepend/DropInstance/SetCache) build a fresh table with an empty
// cache and swap it in under writeMu. A verdict is a pure function of the
// rule list and its key — the key carries the requesting identity, so a
// rebind or migration reaches fresh entries without any flush — which makes
// that swap the cache's only invalidation. Evaluate never blocks on a policy
// edit, and concurrent Evaluates never contend on a hit.
type Policy struct {
	table   atomic.Pointer[policyTable]
	writeMu sync.Mutex // serializes table swaps
	hits    metrics.Counter
	misses  metrics.Counter
}

// policyTable is one immutable policy snapshot: rules is never mutated after
// publication, and the cache shards only ever hold verdicts computed from
// these rules.
type policyTable struct {
	rules    []Rule
	useCache bool
	shards   [policyShardCount]cacheShard
}

// policyShardCount is the number of decision-cache shards per table,
// selected by instance. Power of two so the shard index is a mask; sharding
// keeps each copy-on-write insert small and its lock uncontended.
const policyShardCount = 16

// policyCacheCap bounds each shard; a full shard restarts cold on the next
// insert rather than growing without bound.
const policyCacheCap = 4096

// cacheShard is one shard of a table's decision cache: an immutable map
// behind an atomic pointer. An insert copies the current map and swaps the
// copy in (copy-on-write), so a hit is one atomic load and one map probe —
// no lock and no allocation. mu serializes inserters only.
type cacheShard struct {
	mu sync.Mutex
	m  atomic.Pointer[map[policyKey]Effect]
}

// insert publishes a verdict in the shard.
func (s *cacheShard) insert(key policyKey, e Effect) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m map[policyKey]Effect
	if cur := s.m.Load(); cur != nil && len(*cur) < policyCacheCap {
		m = make(map[policyKey]Effect, len(*cur)+1)
		for k, v := range *cur {
			m[k] = v
		}
	} else {
		m = make(map[policyKey]Effect, 1)
	}
	m[key] = e
	s.m.Store(&m)
}

// policyKey carries the profile so a 1.2 ordinal and a numerically equal 2.0
// command code can never share (and therefore never cross-poison) a cached
// verdict.
type policyKey struct {
	id      xen.LaunchDigest
	inst    vtpm.InstanceID
	profile tpm.Profile
	ordinal uint32
}

// NewPolicy builds a policy from rules, evaluated first-match, default deny.
// The decision cache is enabled; SetCache(false) disables it (experiment E5
// measures both).
func NewPolicy(rules ...Rule) *Policy {
	p := &Policy{}
	p.table.Store(&policyTable{
		rules:    append([]Rule(nil), rules...),
		useCache: true,
	})
	return p
}

// DefaultGuestPolicy grants a guest identity the full non-management command
// set on its own instance: the policy shape a provisioned guest gets.
func DefaultGuestPolicy(id xen.LaunchDigest, inst vtpm.InstanceID) []Rule {
	groups := []Group{GroupAdmin, GroupPCR, GroupAttest, GroupSealing, GroupKeys, GroupOwnership, GroupNV, GroupRandom}
	rules := make([]Rule, 0, len(groups))
	for _, g := range groups {
		rules = append(rules, Rule{Identity: id, Instance: inst, Group: g, Effect: Allow})
	}
	return rules
}

// SetCache toggles the decision cache, clearing it and its statistics.
func (p *Policy) SetCache(on bool) {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	t := p.table.Load()
	p.table.Store(&policyTable{rules: t.rules, useCache: on})
	p.hits.Reset()
	p.misses.Reset()
}

// Append adds rules at the end of the list (lower priority) and clears the
// cache.
func (p *Policy) Append(rules ...Rule) {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	t := p.table.Load()
	merged := make([]Rule, 0, len(t.rules)+len(rules))
	merged = append(append(merged, t.rules...), rules...)
	p.table.Store(&policyTable{rules: merged, useCache: t.useCache})
}

// Prepend adds rules at the front of the list (highest priority) and clears
// the cache.
func (p *Policy) Prepend(rules ...Rule) {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	t := p.table.Load()
	merged := make([]Rule, 0, len(t.rules)+len(rules))
	merged = append(append(merged, rules...), t.rules...)
	p.table.Store(&policyTable{rules: merged, useCache: t.useCache})
}

// DropInstance removes every rule naming inst and clears the cache. Hosts
// call it when the instance leaves, so its grants do not outlive it.
// Wildcard (AnyInstance) rules are kept.
func (p *Policy) DropInstance(inst vtpm.InstanceID) {
	if inst == AnyInstance {
		return
	}
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	t := p.table.Load()
	kept := make([]Rule, 0, len(t.rules))
	for _, r := range t.rules {
		if r.Instance != inst {
			kept = append(kept, r)
		}
	}
	p.table.Store(&policyTable{rules: kept, useCache: t.useCache})
}

// Len returns the rule count.
func (p *Policy) Len() int {
	return len(p.table.Load().rules)
}

// CacheStats reports decision-cache hits and misses.
func (p *Policy) CacheStats() (hits, misses uint64) {
	return p.hits.Load(), p.misses.Load()
}

// Evaluate returns the effect for one request under the requesting
// instance's command profile. The path is lock-free: one atomic table load,
// a probe of the instance's cache shard, and (on miss) a scan of the
// immutable rule list.
func (p *Policy) Evaluate(profile tpm.Profile, id xen.LaunchDigest, inst vtpm.InstanceID, ordinal uint32) Effect {
	t := p.table.Load()
	key := policyKey{id: id, inst: inst, profile: profile, ordinal: ordinal}
	shard := &t.shards[uint32(inst)&(policyShardCount-1)]
	if t.useCache {
		if m := shard.m.Load(); m != nil {
			if e, ok := (*m)[key]; ok {
				p.hits.Inc()
				return e
			}
		}
	}
	effect := Deny
	for _, r := range t.rules {
		if r.matches(profile, id, inst, ordinal) {
			effect = r.Effect
			break
		}
	}
	p.misses.Inc()
	if t.useCache {
		shard.insert(key, effect)
	}
	return effect
}

// String summarizes the policy for diagnostics.
func (p *Policy) String() string {
	t := p.table.Load()
	return fmt.Sprintf("policy(%d rules, default deny, cache=%v)", len(t.rules), t.useCache)
}
