package core

import (
	"errors"
	"runtime"
	"testing"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
)

func TestAuditAnchorRoundTrip(t *testing.T) {
	_, keys := newPlatform(t, "anchor1")
	log := NewAuditLog()
	anchor, err := NewAuditAnchor(keys)
	if err != nil {
		t.Fatalf("NewAuditAnchor: %v", err)
	}
	for i := 0; i < 5; i++ {
		log.Append(1, launchOf("g"), tpm.OrdExtend, Allow, "")
	}
	v1, err := anchor.Anchor(log)
	if err != nil {
		t.Fatalf("Anchor: %v", err)
	}
	if err := anchor.VerifyAgainstAnchor(log.Records()); err != nil {
		t.Fatalf("verify after anchor: %v", err)
	}
	// More records, re-anchor: counter grows.
	log.Append(1, launchOf("g"), tpm.OrdSeal, Deny, "policy")
	v2, err := anchor.Anchor(log)
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatalf("anchor counter did not grow: %d then %d", v1, v2)
	}
	if err := anchor.VerifyAgainstAnchor(log.Records()); err != nil {
		t.Fatal(err)
	}
}

func TestAuditAnchorDetectsReplacedLog(t *testing.T) {
	_, keys := newPlatform(t, "anchor2")
	log := NewAuditLog()
	anchor, err := NewAuditAnchor(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		log.Append(1, launchOf("g"), tpm.OrdExtend, Allow, "")
	}
	if _, err := anchor.Anchor(log); err != nil {
		t.Fatal(err)
	}
	// The attacker fabricates a shorter but internally consistent log.
	forged := NewAuditLog()
	forged.Append(1, launchOf("g"), tpm.OrdExtend, Allow, "")
	if err := forged.Verify(); err != nil {
		t.Fatal("forged log should be internally consistent")
	}
	if err := anchor.VerifyAgainstAnchor(forged.Records()); !errors.Is(err, ErrAnchorMismatch) {
		t.Fatalf("forged log err = %v, want ErrAnchorMismatch", err)
	}
	// Truncating the real log also fails.
	if err := anchor.VerifyAgainstAnchor(log.Records()[:4]); !errors.Is(err, ErrAnchorMismatch) {
		t.Fatalf("truncated log err = %v", err)
	}
}

func TestAuditAnchorDetectsStaleAnchor(t *testing.T) {
	_, keys := newPlatform(t, "anchor3")
	log := NewAuditLog()
	anchor, err := NewAuditAnchor(keys)
	if err != nil {
		t.Fatal(err)
	}
	log.Append(1, launchOf("g"), tpm.OrdExtend, Allow, "")
	if _, err := anchor.Anchor(log); err != nil {
		t.Fatal(err)
	}
	snapshot := log.Records()
	// Later activity is anchored again...
	log.Append(1, launchOf("g"), tpm.OrdSeal, Allow, "")
	if _, err := anchor.Anchor(log); err != nil {
		t.Fatal(err)
	}
	// ...so the old snapshot no longer verifies (its head is stale).
	if err := anchor.VerifyAgainstAnchor(snapshot); !errors.Is(err, ErrAnchorMismatch) {
		t.Fatalf("stale snapshot err = %v", err)
	}
}

func TestAuditAnchorCounterRollbackDetected(t *testing.T) {
	_, keys := newPlatform(t, "anchor4")
	log := NewAuditLog()
	anchor, err := NewAuditAnchor(keys)
	if err != nil {
		t.Fatal(err)
	}
	log.Append(1, launchOf("g"), tpm.OrdExtend, Allow, "")
	if _, err := anchor.Anchor(log); err != nil {
		t.Fatal(err)
	}
	// Simulate an attacker bumping the counter without re-anchoring (e.g.
	// replaying anchor traffic): the NV head is now stale relative to the
	// counter.
	if _, err := keys.hw.IncrementCounter(anchor.counterID, anchor.counterAuth); err != nil {
		t.Fatal(err)
	}
	if err := anchor.VerifyAgainstAnchor(log.Records()); !errors.Is(err, ErrAnchorMismatch) {
		t.Fatalf("counter-skew err = %v", err)
	}
}

func TestPolicyMarshalRoundTrip(t *testing.T) {
	id := launchOf("guest")
	p := NewPolicy(
		Rule{Identity: id, Instance: 3, Group: GroupPCR, Effect: Allow},
		Rule{Identity: id, Instance: 3, Ordinal: tpm.OrdOwnerClear, Effect: Deny},
		Rule{Group: GroupRandom, Effect: Allow},
	)
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	q, err := UnmarshalPolicy(blob)
	if err != nil {
		t.Fatalf("UnmarshalPolicy: %v", err)
	}
	if q.Len() != p.Len() {
		t.Fatalf("rule count %d, want %d", q.Len(), p.Len())
	}
	// Decisions identical across the round trip.
	cases := []struct {
		id   string
		inst vtpm.InstanceID
		ord  uint32
	}{
		{"guest", 3, tpm.OrdExtend},
		{"guest", 3, tpm.OrdOwnerClear},
		{"guest", 4, tpm.OrdExtend},
		{"other", 9, tpm.OrdGetRandom},
		{"other", 9, tpm.OrdSeal},
	}
	for _, c := range cases {
		want := p.Evaluate(tpm.Profile12, launchOf(c.id), c.inst, c.ord)
		got := q.Evaluate(tpm.Profile12, launchOf(c.id), c.inst, c.ord)
		if want != got {
			t.Fatalf("decision drift for %+v: %v vs %v", c, want, got)
		}
	}
}

func TestUnmarshalPolicyRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalPolicy([]byte("nonsense")); err == nil {
		t.Fatal("garbage accepted")
	}
	p := NewPolicy(Rule{Group: GroupPCR, Effect: Allow})
	blob, _ := p.MarshalBinary()
	if _, err := UnmarshalPolicy(blob[:len(blob)-2]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if _, err := UnmarshalPolicy(append(blob, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Invalid effect byte.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] = 7
	if _, err := UnmarshalPolicy(bad); err == nil {
		t.Fatal("invalid effect accepted")
	}
	// A 9-byte blob claiming 10^6 rules is refused without sizing an
	// allocation from the claim.
	claim := append(append([]byte(nil), blob[:len(policyMagic)]...), 0x00, 0x0f, 0x42, 0x40)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnmarshalPolicy(claim)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("over-claimed rule count accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("refusing a %d-byte policy allocated %d bytes", len(claim), d)
	}
}
