package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// admitMatrixOrdinals is every ordinal the policy language knows plus one it
// does not (0xDEAD maps to GroupAdmin via the unknown-ordinal rule).
func admitMatrixOrdinals() []uint32 {
	ords := []uint32{0xDEAD}
	for _, group := range groupOrdinals {
		ords = append(ords, group...)
	}
	return ords
}

// admitOrdinal runs one command with the given ordinal through the guard's
// full admission path and reports the policy verdict.
func admitOrdinal(t *testing.T, g *ImprovedGuard, inst vtpm.InstanceInfo, codec vtpm.GuestCodec, ord uint32) Effect {
	t.Helper()
	w := tpm.NewWriter()
	w.U16(tpm.TagRQUCommand)
	w.U32(10)
	w.U32(ord)
	payload, _, err := codec.EncodeRequest(nil, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = g.AdmitCommand(inst, inst.BoundDom, inst.BoundLaunch, payload)
	switch {
	case err == nil:
		return Allow
	case errors.Is(err, vtpm.ErrDenied):
		return Deny
	}
	t.Fatalf("admit ordinal %#x: %v", ord, err)
	return Deny
}

// TestAdmitCacheEquivalence replays the full (identity × instance × ordinal)
// decision matrix against a cached policy and an uncached reference holding
// the same rules, in four states: cold, warm, after a rule edit, and after a
// rebind with no rule edit. Every cached verdict must equal the uncached
// Evaluate — the cache may never change a decision.
func TestAdmitCacheEquivalence(t *testing.T) {
	idA, idB := launchOf("guest-a"), launchOf("guest-b")
	identities := []xen.LaunchDigest{idA, idB, AnyIdentity}
	instances := []vtpm.InstanceID{1, 2, 17} // 1 and 17 share a shard (16 shards)
	ordinals := admitMatrixOrdinals()

	rules := append(DefaultGuestPolicy(idA, 1), Rule{Identity: idB, Instance: 2, Group: GroupRandom, Effect: Allow})
	cached, ref := NewPolicy(rules...), NewPolicy(rules...)
	ref.SetCache(false)

	replay := func(tag string) {
		t.Helper()
		for _, id := range identities {
			for _, inst := range instances {
				for _, ord := range ordinals {
					want := ref.Evaluate(tpm.Profile12, id, inst, ord)
					if got := cached.Evaluate(tpm.Profile12, id, inst, ord); got != want {
						t.Fatalf("%s: cached(%x…, %d, %#x) = %v, want %v", tag, id[:4], inst, ord, got, want)
					}
				}
			}
		}
	}
	matrix := uint64(len(identities) * len(instances) * len(ordinals))

	replay("cold")
	if hits, misses := cached.CacheStats(); hits != 0 || misses != matrix {
		t.Fatalf("cold replay: hits=%d misses=%d, want 0/%d", hits, misses, matrix)
	}
	replay("warm")
	if hits, _ := cached.CacheStats(); hits != matrix {
		t.Fatalf("warm replay: %d hits, want %d", hits, matrix)
	}

	// Rule edit: verdicts flip for idB; the table swap must drop the
	// verdicts derived from the old rules.
	edit := Rule{Identity: idB, Group: GroupRandom, Effect: Deny}
	cached.Prepend(edit)
	ref.Prepend(edit)
	replay("post-edit")

	// Rebind with no rule edit: instance 1 moves from idA to idB, as a
	// migration re-attach does, through the guard's admission path. The
	// bound identity is part of the cache key, so idA's warm Allow verdicts
	// cannot answer for idB and nothing needs flushing.
	_, keys := newPlatform(t, "admit-equivalence")
	g := NewImprovedGuard(keys, cached)
	rulesBefore := cached.Len()
	for _, launch := range []xen.LaunchDigest{idA, idB} {
		inst := vtpm.InstanceInfo{ID: 1, BoundDom: 5, BoundLaunch: launch}
		codec, err := g.EncoderFor(inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, ord := range ordinals {
			want := ref.Evaluate(tpm.Profile12, launch, 1, ord)
			if got := admitOrdinal(t, g, inst, codec, ord); got != want {
				t.Fatalf("rebind to %x…: admit %#x = %v, want %v", launch[:4], ord, got, want)
			}
		}
	}
	if cached.Len() != rulesBefore {
		t.Fatal("rebind edited the rules")
	}
	replay("post-rebind")
}

func TestAdmitCachePolicyMutationInvalidates(t *testing.T) {
	id := launchOf("guest")
	p := NewPolicy(Rule{Identity: id, Instance: 1, Group: GroupRandom, Effect: Allow})

	if e := p.Evaluate(tpm.Profile12, id, 1, tpm.OrdGetRandom); e != Allow {
		t.Fatalf("pre-edit = %v", e)
	}
	p.Evaluate(tpm.Profile12, id, 1, tpm.OrdGetRandom) // warm the entry
	if hits, _ := p.CacheStats(); hits != 1 {
		t.Fatal("verdict not cached")
	}
	p.Prepend(Rule{Identity: id, Instance: 1, Group: GroupRandom, Effect: Deny})
	if e := p.Evaluate(tpm.Profile12, id, 1, tpm.OrdGetRandom); e != Deny {
		t.Fatal("cached Allow survived a policy edit")
	}
}

// TestAdmitCacheInvalidateFlushesOnlyOwningShard checks the one flush that
// is not a table swap: a shard that reaches its cap restarts cold on the
// next insert, and the other shards keep their verdicts.
func TestAdmitCacheInvalidateFlushesOnlyOwningShard(t *testing.T) {
	id := launchOf("guest")
	p := NewPolicy(Rule{Effect: Allow}) // allow-all keeps the matrix simple
	p.Evaluate(tpm.Profile12, id, 2, tpm.OrdGetRandom)
	for ord := uint32(0); ord < policyCacheCap; ord++ {
		p.Evaluate(tpm.Profile12, id, 1, 0x10000+ord)
	}
	tbl := p.table.Load()
	owning, other := &tbl.shards[1], &tbl.shards[2]
	if n := len(*owning.m.Load()); n != policyCacheCap {
		t.Fatalf("owning shard holds %d verdicts, want %d", n, policyCacheCap)
	}
	// Instance 17 shares instance 1's shard: its insert overflows it.
	p.Evaluate(tpm.Profile12, id, 17, tpm.OrdGetRandom)
	if n := len(*owning.m.Load()); n != 1 {
		t.Fatalf("full shard kept %d verdicts, want a cold restart", n)
	}
	if m := other.m.Load(); m == nil || len(*m) != 1 {
		t.Fatal("unrelated shard was flushed too")
	}
}

// TestAdmitCacheResetChannelInvalidates rebinds an instance to a new
// identity through the guard and checks that the verdict warmed under the
// old binding does not answer for the new one.
func TestAdmitCacheResetChannelInvalidates(t *testing.T) {
	g, _ := newImproved(t, "admit-reset")
	inst := testInstance(3, "guest")
	g.Policy().Append(DefaultGuestPolicy(inst.BoundLaunch, inst.ID)...)
	codec, err := g.EncoderFor(inst)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if e := admitOrdinal(t, g, inst, codec, tpm.OrdGetRandom); e != Allow {
			t.Fatalf("bound guest refused: %v", e)
		}
	}
	if hits, _ := g.Policy().CacheStats(); hits == 0 {
		t.Fatal("cache not warmed")
	}
	// EncoderFor resets the channel: the rebind/migration entry point.
	rebound := testInstance(3, "impostor")
	codec, err = g.EncoderFor(rebound)
	if err != nil {
		t.Fatal(err)
	}
	if e := admitOrdinal(t, g, rebound, codec, tpm.OrdGetRandom); e != Deny {
		t.Fatal("rebound instance inherited its old identity's verdict")
	}
}

func TestAdmitCacheToggleOffFlushes(t *testing.T) {
	id := launchOf("guest")
	p := NewPolicy(Rule{Effect: Allow})
	p.Evaluate(tpm.Profile12, id, 1, tpm.OrdGetRandom)
	p.SetCache(false)
	tbl := p.table.Load()
	for i := range tbl.shards {
		if tbl.shards[i].m.Load() != nil {
			t.Fatalf("shard %d still holds verdicts after disable", i)
		}
	}
	p.Evaluate(tpm.Profile12, id, 1, tpm.OrdGetRandom)
	p.Evaluate(tpm.Profile12, id, 1, tpm.OrdGetRandom)
	if hits, _ := p.CacheStats(); hits != 0 || p.table.Load().shards[1].m.Load() != nil {
		t.Fatal("disabled cache still caching")
	}
	p.SetCache(true)
	p.Evaluate(tpm.Profile12, id, 1, tpm.OrdGetRandom)
	p.Evaluate(tpm.Profile12, id, 1, tpm.OrdGetRandom)
	if hits, _ := p.CacheStats(); hits != 1 {
		t.Fatal("re-enabled cache not caching")
	}
}

// TestPolicyCacheHitDoesNotAllocate pins the hit path at zero allocations:
// one table load and one probe of an immutable map with a struct key.
func TestPolicyCacheHitDoesNotAllocate(t *testing.T) {
	id := launchOf("guest")
	p := NewPolicy(DefaultGuestPolicy(id, 1)...)
	p.Evaluate(tpm.Profile12, id, 1, tpm.OrdExtend)
	if n := testing.AllocsPerRun(1000, func() {
		p.Evaluate(tpm.Profile12, id, 1, tpm.OrdExtend)
	}); n != 0 {
		t.Fatalf("cache hit allocates %.1f times", n)
	}
}

// TestAdmitCacheEvaluateDuringInvalidationRace hammers Evaluate from many
// goroutines while the rules change and the cache toggles concurrently.
// Run under -race this checks the lock-free hit path against the
// copy-on-write publishers; in any mode it checks that a verdict observed
// mid-flight is one the policy could have produced (the rule set only ever
// toggles GroupRandom for the hammered identity, so both effects are legal
// mid-edit but the call must never deadlock, panic or return junk).
func TestAdmitCacheEvaluateDuringInvalidationRace(t *testing.T) {
	id := launchOf("guest")
	p := NewPolicy(Rule{Identity: id, Group: GroupRandom, Effect: Allow})

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var evals atomic.Int64
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(inst vtpm.InstanceID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := p.Evaluate(tpm.Profile12, id, inst, tpm.OrdGetRandom)
				if e != Allow && e != Deny {
					t.Errorf("impossible effect %v", e)
					return
				}
				evals.Add(1)
			}
		}(vtpm.InstanceID(w + 1))
	}
	// Keep mutating until the readers have provably overlapped the edits.
	for i := 0; i < 200 || evals.Load() < 10000; i++ {
		switch i % 3 {
		case 0:
			p.Prepend(Rule{Identity: id, Instance: vtpm.InstanceID(i%readers + 1), Group: GroupRandom, Effect: Effect(i % 2)})
		case 1:
			p.DropInstance(vtpm.InstanceID(i%readers + 1))
		case 2:
			p.SetCache(i%2 == 0)
		}
	}
	close(stop)
	wg.Wait()
}

func TestPolicyDropInstance(t *testing.T) {
	idA, idB := launchOf("a"), launchOf("b")
	p := NewPolicy(DefaultGuestPolicy(idA, 1)...)
	p.Append(DefaultGuestPolicy(idB, 2)...)
	p.Append(Rule{Group: GroupRandom, Effect: Allow}) // wildcard instance
	if e := p.Evaluate(tpm.Profile12, idA, 1, tpm.OrdExtend); e != Allow {
		t.Fatalf("pre-drop = %v", e)
	}
	p.DropInstance(1)
	if n := p.Len(); n != 9 {
		t.Fatalf("%d rules after drop, want 9", n)
	}
	if e := p.Evaluate(tpm.Profile12, idA, 1, tpm.OrdExtend); e != Deny {
		t.Fatal("dropped instance still admitted")
	}
	if e := p.Evaluate(tpm.Profile12, idB, 2, tpm.OrdExtend); e != Allow {
		t.Fatal("other instance lost its rules")
	}
	p.DropInstance(AnyInstance)
	if n := p.Len(); n != 9 {
		t.Fatal("dropping AnyInstance removed wildcard rules")
	}
}
