package core

import (
	"errors"
	"testing"
	"time"

	"xvtpm/internal/vtpm"
)

func TestTokenBucketRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTokenBucket(100, now)
	// Burst capacity: 100 ms of rate = 10 immediate takes, then dry.
	for i := 0; i < 10; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("take %d refused within burst", i)
		}
	}
	if ok, _ := b.take(now); ok {
		t.Fatal("take beyond burst allowed")
	}
	// 10 ms at 100/s refills one token.
	now = now.Add(10 * time.Millisecond)
	if ok, _ := b.take(now); !ok {
		t.Fatal("refilled token refused")
	}
	if ok, _ := b.take(now); ok {
		t.Fatal("second token without elapsed time")
	}
	// Long idle caps at capacity, not beyond.
	now = now.Add(time.Hour)
	granted := 0
	for ok, _ := b.take(now); ok; ok, _ = b.take(now) {
		granted++
	}
	if granted != 10 {
		t.Fatalf("after idle, %d tokens granted, want 10", granted)
	}
	// Rate below 10/s still gets at least one token of burst.
	small := newTokenBucket(2, now)
	if ok, _ := small.take(now); !ok {
		t.Fatal("minimum burst missing")
	}
}

func TestGuardRateLimitThrottles(t *testing.T) {
	g, _ := newImproved(t, "rate1")
	inst := testInstance(1, "guest")
	g.Policy().Append(DefaultGuestPolicy(inst.BoundLaunch, inst.ID)...)
	g.SetRateLimit(50)
	codec, err := g.EncoderFor(inst)
	if err != nil {
		t.Fatal(err)
	}
	admitted, throttled := 0, 0
	start := time.Now()
	for i := 0; i < 40; i++ {
		payload, _, _ := codec.EncodeRequest(nil, sampleCmd())
		_, _, err := g.AdmitCommand(inst, inst.BoundDom, inst.BoundLaunch, payload)
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, vtpm.ErrThrottled):
			throttled++
		default:
			t.Fatalf("unexpected err: %v", err)
		}
	}
	elapsed := time.Since(start)
	if admitted == 0 || throttled == 0 {
		t.Fatalf("admitted=%d throttled=%d, want both nonzero", admitted, throttled)
	}
	// Throttled calls tarpit, refilling tokens while they wait, so total
	// admissions approximate burst + rate×elapsed.
	budget := 5 + int(50*elapsed.Seconds()) + 2
	if admitted > budget {
		t.Fatalf("admitted %d over %.3fs, budget %d", admitted, elapsed.Seconds(), budget)
	}
	// The tarpit made throttled calls slow: the loop cannot have finished
	// instantly.
	if elapsed < 100*time.Millisecond {
		t.Fatalf("tarpit absent: 40 calls at 50/s finished in %v", elapsed)
	}
	// Throttle decisions are audited.
	found := false
	for _, r := range g.Audit().Records() {
		if r.Reason == "rate" && r.Decision == Deny {
			found = true
		}
	}
	if !found {
		t.Fatal("throttle decision not audited")
	}
	// Disabling the limit restores service.
	g.SetRateLimit(0)
	payload, _, _ := codec.EncodeRequest(nil, sampleCmd())
	if _, _, err := g.AdmitCommand(inst, inst.BoundDom, inst.BoundLaunch, payload); err != nil {
		t.Fatalf("after disable: %v", err)
	}
}

func TestGuardRateLimitIsPerInstance(t *testing.T) {
	g, _ := newImproved(t, "rate2")
	a := testInstance(1, "a")
	bInst := testInstance(2, "b")
	g.Policy().Append(DefaultGuestPolicy(a.BoundLaunch, a.ID)...)
	g.Policy().Append(DefaultGuestPolicy(bInst.BoundLaunch, bInst.ID)...)
	g.SetRateLimit(30)
	codecA, _ := g.EncoderFor(a)
	codecB, _ := g.EncoderFor(bInst)
	// Exhaust A's bucket (capacity 3) plus a couple of tarpitted calls.
	for i := 0; i < 6; i++ {
		payload, _, _ := codecA.EncodeRequest(nil, sampleCmd())
		g.AdmitCommand(a, a.BoundDom, a.BoundLaunch, payload) //nolint:errcheck // draining
	}
	// B is unaffected.
	payload, _, _ := codecB.EncodeRequest(nil, sampleCmd())
	if _, _, err := g.AdmitCommand(bInst, bInst.BoundDom, bInst.BoundLaunch, payload); err != nil {
		t.Fatalf("instance B throttled by A's flood: %v", err)
	}
}

// TestDropInstanceForgetsGuardState checks that a departed instance leaves
// nothing in the guard: its channel, bucket and rate override go, and an
// instance admitted again under the same ID starts from a fresh channel and
// the default rate.
func TestDropInstanceForgetsGuardState(t *testing.T) {
	g, _ := newImproved(t, "drop")
	inst := testInstance(1, "guest")
	g.Policy().Append(DefaultGuestPolicy(inst.BoundLaunch, inst.ID)...)
	g.SetRateLimitFor(inst.ID, 1)
	admit := func(codec vtpm.GuestCodec) error {
		payload, _, _ := codec.EncodeRequest(nil, sampleCmd())
		_, _, err := g.AdmitCommand(inst, inst.BoundDom, inst.BoundLaunch, payload)
		return err
	}
	old, err := g.EncoderFor(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := admit(old); err != nil {
		t.Fatal(err)
	}
	if got := g.InstanceStates(); got != 1 {
		t.Fatalf("instance states = %d, want 1", got)
	}
	g.DropInstance(inst.ID)
	if got := g.InstanceStates(); got != 0 {
		t.Fatalf("instance states after drop = %d, want 0", got)
	}
	if g.Policy().Len() != 0 {
		t.Fatalf("%d rules survive the drop", g.Policy().Len())
	}
	// Back under the same ID: fresh channel, no inherited 1/s override.
	g.Policy().Append(DefaultGuestPolicy(inst.BoundLaunch, inst.ID)...)
	fresh, err := g.EncoderFor(inst)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := admit(fresh); err != nil {
			t.Fatalf("command %d after re-admission: %v", i, err)
		}
	}
}
