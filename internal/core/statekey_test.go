package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
)

// The improved guard derives each instance's state key once and keeps the
// expanded 48 bytes in the instance's guard state (see stateCipherFor).
// These tests pin what that cache must preserve: the same envelopes as a
// fresh derivation, one key per instance, a key that outlives channel resets
// but not DropInstance, and a derivation root that cannot change under it.
// g.stateFor(id) stands in for an instance's first admitted command, which
// is what gives it guard state on a host.

// TestStateKeyCacheMatchesDerivation: an envelope sealed through an
// instance's cached key opens under a fresh derivation of that instance's
// key and vice versa, and no other instance's key — cached or fresh — opens
// it.
func TestStateKeyCacheMatchesDerivation(t *testing.T) {
	g, keys := newImproved(t, "cache-match")
	state := []byte("vtpm state with the EK inside")
	blobs := map[vtpm.InstanceID][]byte{}
	for _, id := range []vtpm.InstanceID{1, 2, 17} {
		g.stateFor(id)
		inst := vtpm.InstanceInfo{ID: id}
		cached, err := g.ProtectState(inst, nil, state)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := stateOpen(keys.InstanceKey(id), cached); err != nil || !bytes.Equal(got, state) {
			t.Fatalf("instance %d: cached-key envelope does not open under a fresh derivation: %v", id, err)
		}
		fresh, err := stateSeal(keys.InstanceKey(id), state)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := g.RecoverState(inst, fresh); err != nil || !bytes.Equal(got, state) {
			t.Fatalf("instance %d: freshly derived envelope does not open under the cached key: %v", id, err)
		}
		blobs[id] = cached
	}
	if a, b := g.stateFor(1).stateKey, g.stateFor(2).stateKey; a == b {
		t.Fatal("instances 1 and 2 cache the same state key")
	}
	for id, blob := range blobs {
		for _, other := range []vtpm.InstanceID{1, 2, 17, 99} {
			if other == id {
				continue
			}
			if _, err := g.RecoverState(vtpm.InstanceInfo{ID: other}, blob); !errors.Is(err, vtpm.ErrStateSealed) {
				t.Fatalf("instance %d's envelope opened as instance %d: err = %v", id, other, err)
			}
		}
	}
}

// TestStateKeyLifetime: sealing or opening state never creates guard state;
// a cached key survives a channel reset; DropInstance zeroes it and forgets
// the instance, and envelopes sealed before the drop still open.
func TestStateKeyLifetime(t *testing.T) {
	g, _ := newImproved(t, "cache-life")
	inst := vtpm.InstanceInfo{ID: 5}
	state := []byte("instance five")
	early, err := g.ProtectState(inst, nil, state)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.InstanceStates(); n != 0 {
		t.Fatalf("protecting state created guard state for %d instances", n)
	}
	st := g.stateFor(inst.ID)
	blob, err := g.ProtectState(inst, nil, state)
	if err != nil {
		t.Fatal(err)
	}
	if !st.keyed || st.stateKey == (stateKeys{}) {
		t.Fatal("ProtectState on an admitted instance did not cache its key")
	}
	key := st.stateKey
	g.ResetChannel(inst.ID)
	if !st.keyed || st.stateKey != key {
		t.Fatal("ResetChannel discarded the cached state key")
	}
	g.DropInstance(inst.ID)
	if st.keyed || st.stateKey != (stateKeys{}) {
		t.Fatalf("DropInstance left the state key in place: keyed=%v key=%x", st.keyed, st.stateKey)
	}
	if n := g.InstanceStates(); n != 0 {
		t.Fatalf("%d instance states after DropInstance, want 0", n)
	}
	for _, b := range [][]byte{early, blob} {
		if got, err := g.RecoverState(inst, b); err != nil || !bytes.Equal(got, state) {
			t.Fatalf("envelope sealed before the drop does not open after it: %v", err)
		}
	}
	if st.stateKey != (stateKeys{}) || g.InstanceStates() != 0 {
		t.Fatal("recovering a dropped instance's state cached a key again")
	}
}

// fedSecret wraps a federation master to keys' bind key.
func fedSecret(t testing.TB, keys *PlatformKeys, secret []byte) []byte {
	t.Helper()
	wrapped, err := tpm.BindEncrypt(nil, keys.BindPub(), secret)
	if err != nil {
		t.Fatal(err)
	}
	return wrapped
}

// TestFederationJoinRefusedAfterStateKey: once a host has derived any state
// key, switching the derivation root would strand every envelope sealed
// under the old one (and every cached key), so the join is refused and the
// old envelopes keep opening. A join before any derivation still works, and
// members joined to one master derive the same instance keys.
func TestFederationJoinRefusedAfterStateKey(t *testing.T) {
	// 16 bytes: OAEP under the test's 512-bit bind key caps the message.
	secret := deriveBytes([]byte("federation"), "master")[:16]

	late, lateKeys := newImproved(t, "late-join")
	inst := vtpm.InstanceInfo{ID: 3}
	late.stateFor(inst.ID)
	blob, err := late.ProtectState(inst, nil, []byte("sealed before the join"))
	if err != nil {
		t.Fatal(err)
	}
	if err := lateKeys.JoinFederation(fedSecret(t, lateKeys, secret)); !errors.Is(err, ErrLateFederationJoin) {
		t.Fatalf("join after a state key was derived: err = %v, want ErrLateFederationJoin", err)
	}
	if got, err := late.RecoverState(inst, blob); err != nil || string(got) != "sealed before the join" {
		t.Fatalf("envelope sealed before a refused join no longer opens: %v", err)
	}

	_, a := newPlatform(t, "early-join-a")
	_, b := newPlatform(t, "early-join-b")
	for _, pk := range []*PlatformKeys{a, b} {
		if err := pk.JoinFederation(fedSecret(t, pk, secret)); err != nil {
			t.Fatalf("join before any derivation: %v", err)
		}
	}
	if !bytes.Equal(a.InstanceKey(3), b.InstanceKey(3)) {
		t.Fatal("two members of one federation derive different instance keys")
	}
	if err := a.JoinFederation(fedSecret(t, a, secret)); !errors.Is(err, ErrLateFederationJoin) {
		t.Fatalf("second join after deriving: err = %v, want ErrLateFederationJoin", err)
	}
}

// TestStateKeyCacheConcurrentDrop races ProtectState/RecoverState round
// trips — several goroutines on one shared instance, one goroutine each on
// distinct instances — against a goroutine that keeps admitting and
// dropping those instances. Every round trip must succeed, since an
// instance's key never changes; afterwards the guard holds no state and
// every dropped state object's key bytes are zero, including any a seal or
// open was using when the drop landed. Run under -race (make
// race-checkpoint).
func TestStateKeyCacheConcurrentDrop(t *testing.T) {
	g, _ := newImproved(t, "cache-race")
	const (
		shared   = vtpm.InstanceID(100)
		distinct = 4
		sharers  = 3
		rounds   = 150
	)
	ids := []vtpm.InstanceID{shared}
	for i := 1; i <= distinct; i++ {
		ids = append(ids, vtpm.InstanceID(i))
	}
	roundTrip := func(id vtpm.InstanceID, n int) error {
		inst := vtpm.InstanceInfo{ID: id}
		for i := 0; i < n; i++ {
			state := []byte(fmt.Sprintf("instance %d round %d", id, i))
			blob, err := g.ProtectState(inst, nil, state)
			if err != nil {
				return err
			}
			got, err := g.RecoverState(inst, blob)
			if err != nil {
				return fmt.Errorf("instance %d round %d: %w", id, i, err)
			}
			if !bytes.Equal(got, state) {
				return fmt.Errorf("instance %d round %d: recovered %q", id, i, got)
			}
		}
		return nil
	}

	var (
		workers sync.WaitGroup
		errs    = make(chan error, sharers+distinct)
	)
	for i := 0; i < sharers; i++ {
		workers.Add(1)
		go func() { defer workers.Done(); errs <- roundTrip(shared, rounds) }()
	}
	for _, id := range ids[1:] {
		workers.Add(1)
		go func(id vtpm.InstanceID) { defer workers.Done(); errs <- roundTrip(id, rounds) }(id)
	}
	done := make(chan struct{})
	var seen []*instanceState
	dropper := make(chan struct{})
	go func() {
		defer close(dropper)
		for {
			for _, id := range ids {
				seen = append(seen, g.stateFor(id))
				g.DropInstance(id)
			}
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	workers.Wait()
	close(done)
	<-dropper
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		g.DropInstance(id)
	}
	if n := g.InstanceStates(); n != 0 {
		t.Fatalf("%d instance states after every instance was dropped, want 0", n)
	}
	for _, st := range seen {
		st.mu.Lock()
		keyed, key := st.keyed, st.stateKey
		st.mu.Unlock()
		if keyed || key != (stateKeys{}) {
			t.Fatalf("a dropped instance state still holds key bytes %x", key)
		}
	}
}
