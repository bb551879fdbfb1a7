package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xvtpm/internal/vtpm"
)

// The failure detector: members heartbeat the directory; a member that
// misses beats long enough turns Suspect, then Condemned. Condemnation is
// one-way — the member's fenced store is sealed (its late writes die), its
// instances are fenced on its own manager (its guests' late dispatches are
// redirected), and every guest it owned is revived on a survivor from its
// last committed checkpoint at a freshly bumped epoch. Time is passed in
// explicitly so experiments drive the state machine without real waiting.

// A member silent for suspectAfter turns Suspect; silent for condemnAfter
// longer, it is Condemned.
const (
	suspectAfter = 2 * time.Second
	condemnAfter = 2 * time.Second
)

// FailState is one member's liveness verdict.
type FailState int

const (
	// Alive members heartbeat on schedule.
	Alive FailState = iota
	// Suspect members have missed beats for suspectAfter; they take no new
	// placements but are not yet acted on (a stall may recover).
	Suspect
	// Condemned members missed beats for suspectAfter+condemnAfter; they
	// are fenced, sealed and evacuated, and never return.
	Condemned
)

// String implements fmt.Stringer.
func (s FailState) String() string {
	switch s {
	case Suspect:
		return "suspect"
	case Condemned:
		return "condemned"
	}
	return "alive"
}

// Beat records a heartbeat from a member at time now. A Suspect member
// recovers to Alive; a Condemned member does not (its beat is the zombie
// talking).
func (c *Cluster) Beat(name string, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.byName[name]
	if !ok || m.fail == Condemned {
		return
	}
	m.lastBeat = now
	m.fail = Alive
}

// failStateOf reads one member's liveness under the cluster mutex.
func (c *Cluster) failStateOf(m *Member) FailState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return m.fail
}

// FailStateOf returns a member's liveness verdict.
func (c *Cluster) FailStateOf(name string) (FailState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.byName[name]
	if !ok {
		return Alive, false
	}
	return m.fail, true
}

// CheckFailures advances the detector to time now and returns the names of
// members newly condemned by this check (already-condemned members are not
// repeated). The caller decides when to Evacuate them — typically
// immediately.
func (c *Cluster) CheckFailures(now time.Time) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var condemned []string
	for _, m := range c.members {
		if m.fail == Condemned {
			continue
		}
		silent := now.Sub(m.lastBeat)
		switch {
		case silent > suspectAfter+condemnAfter:
			m.fail = Condemned
			condemned = append(condemned, m.Name)
		case silent > suspectAfter:
			m.fail = Suspect
		default:
			m.fail = Alive
		}
	}
	return condemned
}

// Condemn marks a member Condemned directly (operator action or test
// harness); the usual path is CheckFailures.
func (c *Cluster) Condemn(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("cluster: no member %q", name)
	}
	m.fail = Condemned
	return nil
}

// EvacStats summarizes one evacuation.
type EvacStats struct {
	Requested int
	Revived   int
	Failed    int
	Elapsed   time.Duration
	// ZombieStoreRejects is the dead member's fenced-store rejection count
	// after sealing — every one a late write that would have resurrected
	// stale state.
	ZombieStoreRejects uint64
}

// Evacuate revives every guest a condemned member owned on the survivors,
// from the last committed checkpoint in the shared store:
//
//   - the dead member's store is sealed (zombie writes rejected);
//   - per guest: the committed blob is read from the shared log under the
//     dead member's prefix, adopted by a survivor (the federation master
//     lets it open the envelope), re-registered in the directory at a
//     bumped epoch, and bound + checkpointed under the survivor's prefix;
//   - the instance is fenced on the dead member's own manager, so a zombie
//     host's guests get redirects, not execution.
//
// Work fans out over a bounded worker pool. The member must already be
// Condemned (by CheckFailures or Condemn).
func (c *Cluster) Evacuate(hostName string, workers int) (EvacStats, error) {
	m, ok := c.Member(hostName)
	if !ok {
		return EvacStats{}, fmt.Errorf("cluster: no member %q", hostName)
	}
	if c.failStateOf(m) != Condemned {
		return EvacStats{}, fmt.Errorf("cluster: member %q is not condemned", hostName)
	}
	m.fs.seal()

	// Prefer alive, non-draining members like Drain does; if every
	// survivor is draining, revive there anyway — an evacuation is an
	// emergency, and a draining member beats losing the guests.
	c.mu.Lock()
	var survivors, fallback []*Member
	for _, t := range c.members {
		if t == m || t.fail == Condemned {
			continue
		}
		fallback = append(fallback, t)
		if t.fail == Alive && !t.draining {
			survivors = append(survivors, t)
		}
	}
	c.mu.Unlock()
	if len(survivors) == 0 {
		survivors = fallback
	}
	if len(survivors) == 0 {
		return EvacStats{}, errors.New("cluster: no survivor to evacuate to")
	}
	if workers <= 0 {
		workers = 16
	}
	keys := c.keysOn(hostName)
	stats := EvacStats{Requested: len(keys)}
	start := time.Now()

	var revived, failed atomic.Int64
	var next atomic.Int64
	work := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range work {
				dst := survivors[int(next.Add(1))%len(survivors)]
				if err := c.evacuateOne(key, m, dst); err != nil {
					failed.Add(1)
					continue
				}
				revived.Add(1)
			}
		}()
	}
	for _, key := range keys {
		work <- key
	}
	close(work)
	wg.Wait()
	stats.Revived = int(revived.Load())
	stats.Failed = int(failed.Load())
	stats.Elapsed = time.Since(start)
	stats.ZombieStoreRejects = m.fs.Rejects()
	return stats, nil
}

// evacuateOne revives one guest of a condemned member on dst.
func (c *Cluster) evacuateOne(key string, dead, dst *Member) error {
	rec, err := c.record(key)
	if err != nil {
		return err
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	c.mu.Lock()
	stillHere := rec.host == dead.Name
	c.mu.Unlock()
	if !stillHere {
		// A racing migration committed this guest elsewhere first.
		return nil
	}
	pl, ok := c.dir.Lookup(key)
	if !ok {
		return fmt.Errorf("cluster: key %q lost its placement", key)
	}
	// The authoritative bytes: the dead member's last *committed*
	// checkpoint, read straight from the shared log under its prefix.
	blob, err := c.shared.Get(dead.fs.qualify(vtpm.StateName(pl.LocalID)))
	if err != nil {
		return fmt.Errorf("cluster: committed checkpoint of %q: %w", key, err)
	}
	g, err := dst.Host.AdoptGuest(rec.spec, pl.LocalID, blob)
	if err != nil {
		return fmt.Errorf("cluster: %s adopting %q: %w", dst.Name, key, err)
	}
	epoch, err := c.dir.Reassign(key, dst.Name, g.Instance)
	if err != nil {
		dst.Host.DestroyGuest(g) //nolint:errcheck // unwinding a lost reassignment race
		return err
	}
	// Fence the zombie's copy on its own manager: a dead host that is
	// merely partitioned still rejects and redirects its guests' dispatches
	// instead of executing against superseded state.
	dead.Host.Manager.FenceInstance(pl.LocalID, dst.Name, epoch) //nolint:errcheck // instance may already be gone
	if err := dst.Host.Manager.SetEpoch(g.Instance, epoch); err != nil {
		return err
	}
	dst.fs.bind(vtpm.StateName(g.Instance), key)
	if err := dst.Host.Manager.Checkpoint(g.Instance); err != nil {
		return fmt.Errorf("cluster: fenced checkpoint of revived %q: %w", key, err)
	}
	c.mu.Lock()
	rec.host, rec.guest = dst.Name, g
	c.mu.Unlock()
	c.evacuated.Inc()
	return nil
}
