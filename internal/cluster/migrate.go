package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xvtpm"
	"xvtpm/internal/faults"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// errTransferFault is the injected transfer-leg failure (classification is
// applied per verdict at the injection site).
var errTransferFault = errors.New("cluster: transfer leg failed")

// ErrMigrationDiverged reports that the destination's revived vTPM did not
// match the source's PCR bank — the source copy is preserved and the
// destination copy destroyed.
var ErrMigrationDiverged = errors.New("cluster: migrated vTPM diverged from source PCR bank")

// Phase is one step of a move; Migrate times each one of every committed
// move into its own histogram (Stats.Phases).
type Phase int

// The six phases of a move, in order.
const (
	PhaseQuiesce Phase = iota
	PhaseShip
	PhaseRevive
	PhaseAttach
	PhaseVerify
	PhaseCommit
	// NumPhases counts the phases.
	NumPhases
)

var phaseNames = [NumPhases]string{"quiesce", "ship", "revive", "attach", "verify", "commit"}

// String implements fmt.Stringer.
func (p Phase) String() string { return phaseNames[p] }

// Migrate moves one guest to dst through the fenced two-phase handoff:
//
//  1. Quiesce: the source instance is fenced (dispatch rejected with a
//     redirect) and checkpointed at the current epoch — the checkpoint the
//     move ships. The directory then bumps the epoch and enters Moving, the
//     fence and the instance are re-stamped with the move epoch, and the
//     domain is saved.
//  2. Ship: the coordinator reads that committed checkpoint from the shared
//     log under the source's prefix, as evacuation reads a dead member's
//     (bounded retry/backoff/deadline and the OpTransfer chaos hook per
//     attempt). The envelope is the at-rest seal under the federation's
//     state root; the saved domain image is handed over in memory.
//  3. Revive: the destination adopts the checkpoint — it opens the envelope
//     and restores the engine, setting up its RSA keys. It writes nothing:
//     the destination copy's first checkpoint is the fenced one of step 5.
//  4. Attach: the saved domain is restored and the guest's device attached.
//  5. Verify: the destination's PCR bank must equal the quiesced source's
//     before anything else happens; then the move epoch is stamped on the
//     instance, its checkpoint name is bound (epoch-checked from then on)
//     and its first fenced checkpoint written.
//  6. Commit: the directory flips ownership, and only then do the source
//     copies die.
//
// Any failure after the epoch moves rolls back deterministically: the
// directory aborts the move at a fresh epoch (fencing off straggler writes
// stamped with the move epoch), the destination copy is destroyed, and the
// source guest is restored, unfenced and re-checkpointed — exactly one live
// owner on every path.
func (c *Cluster) Migrate(key, dstName string) error {
	rec, err := c.record(key)
	if err != nil {
		return err
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()

	c.mu.Lock()
	srcName, g := rec.host, rec.guest
	c.mu.Unlock()
	if srcName == dstName {
		return nil
	}
	src, ok := c.Member(srcName)
	if !ok {
		return fmt.Errorf("cluster: no member %q", srcName)
	}
	dst, ok := c.Member(dstName)
	if !ok {
		return fmt.Errorf("cluster: no member %q", dstName)
	}
	if c.failStateOf(dst) == Condemned {
		return fmt.Errorf("cluster: destination %q is condemned", dstName)
	}
	if c.failStateOf(src) == Condemned {
		return fmt.Errorf("cluster: source %q is condemned — evacuate, don't migrate", srcName)
	}

	c.migStarted.Inc()
	start := time.Now()
	var took [NumPhases]time.Duration
	mark := start
	done := func(p Phase) {
		now := time.Now()
		took[p], mark = now.Sub(mark), now
	}

	// 1. Quiesce before the epoch moves: fence (the redirect's epoch is
	// refined once the move is open), drain the in-flight dispatch, and
	// commit the checkpoint the move ships while the current epoch still
	// admits this member's writes — so no checkpoint is ever in flight with
	// a stale stamp once the directory bumps.
	if err := src.Host.Manager.FenceInstance(g.Instance, dstName, 0); err != nil {
		return err
	}
	if err := src.Host.Manager.Checkpoint(g.Instance); err != nil {
		src.Host.Manager.UnfenceInstance(g.Instance) //nolint:errcheck // fence rollback
		return fmt.Errorf("cluster: pre-move flush of %q: %w", key, err)
	}
	epoch, err := c.dir.BeginMove(key, srcName, dstName)
	if err != nil {
		src.Host.Manager.UnfenceInstance(g.Instance) //nolint:errcheck // fence rollback
		return err
	}
	src.Host.Manager.FenceInstance(g.Instance, dstName, epoch) //nolint:errcheck // refines the epoch-0 fence just installed
	if err := src.Host.Manager.SetEpoch(g.Instance, epoch); err != nil {
		return c.rollback(rec, src, g, nil, epoch, err)
	}
	domImg, err := src.Host.BeginMigration(g)
	if err != nil {
		return c.rollback(rec, src, g, nil, epoch, err)
	}
	srcPCRs, err := src.Host.Manager.PCRDigest(g.Instance)
	if err != nil {
		return c.rollback(rec, src, g, domImg, epoch, err)
	}
	done(PhaseQuiesce)

	// 2. Ship the committed checkpoint, with the chaos injector deciding
	// each attempt's fate.
	committed := src.fs.qualify(vtpm.StateName(g.Instance))
	var blob []byte
	err = c.retry.Do("transfer", func(attempt int) error {
		if attempt > 1 {
			c.migRetried.Inc()
		}
		if c.inj != nil {
			switch c.inj.Decide(faults.OpTransfer) {
			case faults.OutcomeOK:
			case faults.OutcomePermanent:
				return faults.Permanent(fmt.Errorf("%w: permanent, %s→%s", errTransferFault, srcName, dstName))
			default:
				return faults.Transient(fmt.Errorf("%w: torn mid-flight, %s→%s", errTransferFault, srcName, dstName))
			}
		}
		var gerr error
		blob, gerr = c.shared.Get(committed)
		return gerr
	})
	if err != nil {
		return c.rollback(rec, src, g, domImg, epoch, err)
	}
	done(PhaseShip)

	// 3. Revive and 4. attach.
	id, err := dst.Host.Manager.AdoptCheckpoint(g.Instance, blob)
	if err != nil {
		return c.rollback(rec, src, g, domImg, epoch, err)
	}
	done(PhaseRevive)
	g2, err := dst.Host.AttachMigrated(domImg, id)
	if err != nil {
		return c.rollback(rec, src, g, domImg, epoch, err)
	}
	done(PhaseAttach)

	// 5. Verify, then arm the durable fence on the destination copy.
	dstPCRs, err := dst.Host.Manager.PCRDigest(g2.Instance)
	if err == nil && dstPCRs != srcPCRs {
		err = ErrMigrationDiverged
	}
	if err == nil {
		err = dst.Host.Manager.SetEpoch(g2.Instance, epoch)
	}
	if err == nil {
		dst.fs.bind(vtpm.StateName(g2.Instance), key)
		if cerr := dst.Host.Manager.Checkpoint(g2.Instance); cerr != nil {
			dst.fs.unbind(vtpm.StateName(g2.Instance))
			err = fmt.Errorf("cluster: first fenced checkpoint on %s: %w", dstName, cerr)
		}
	}
	if err != nil {
		dst.Host.DestroyGuest(g2) //nolint:errcheck // discarding the unverified copy
		return c.rollback(rec, src, g, domImg, epoch, err)
	}
	done(PhaseVerify)

	// 6. Commit. After this, the source is a bystander: its copy dies, but
	// even if teardown fails the directory and the epoch fence already
	// exclude it.
	if err := c.dir.CommitMove(key, dstName, g2.Instance, epoch); err != nil {
		dst.fs.unbind(vtpm.StateName(g2.Instance))
		dst.Host.DestroyGuest(g2) //nolint:errcheck // discarding the uncommitted copy
		return c.rollback(rec, src, g, domImg, epoch, err)
	}
	c.mu.Lock()
	rec.host, rec.guest = dstName, g2
	c.mu.Unlock()
	c.blackout.Record(time.Since(start))
	c.migCommitted.Inc()

	src.fs.unbind(vtpm.StateName(g.Instance))
	err = src.Host.FinishMigration(g)
	done(PhaseCommit)
	for p, d := range took {
		c.phases[p].Record(d)
	}
	if err != nil {
		return fmt.Errorf("cluster: source teardown after committed move of %q: %w", key, err)
	}
	return nil
}

// rollback unwinds a failed handoff to exactly one owner: directory abort
// at a fresh epoch, source guest restored (from its saved image if the
// domain was already suspended, by reattach otherwise), fence lifted, and a
// forced checkpoint stamping the post-abort epoch durable.
func (c *Cluster) rollback(rec *record, src *Member, g *xvtpm.Guest, domImg *xen.DomainImage, moveEpoch uint64, cause error) error {
	c.migAborted.Inc()
	newEpoch, dirErr := c.dir.AbortMove(rec.key, moveEpoch)

	var rg *xvtpm.Guest
	var restoreErr error
	if domImg != nil {
		rg, restoreErr = src.Host.CancelMigration(g, domImg)
	} else {
		rg, restoreErr = src.Host.ReattachGuest(g)
	}
	if restoreErr == nil && dirErr == nil {
		var errs []error
		if err := src.Host.Manager.SetEpoch(rg.Instance, newEpoch); err != nil {
			errs = append(errs, err)
		}
		if err := src.Host.Manager.UnfenceInstance(rg.Instance); err != nil {
			errs = append(errs, err)
		}
		if err := src.Host.Manager.Checkpoint(rg.Instance); err != nil {
			errs = append(errs, fmt.Errorf("cluster: post-abort checkpoint of %q: %w", rec.key, err))
		}
		c.mu.Lock()
		rec.guest = rg
		c.mu.Unlock()
		if len(errs) > 0 {
			return errors.Join(append([]error{cause}, errs...)...)
		}
		return cause
	}
	return errors.Join(cause, dirErr, restoreErr)
}

// DrainStats summarizes one Drain.
type DrainStats struct {
	Requested int
	Moved     int
	Failed    int
	Elapsed   time.Duration
}

// Throughput returns moved instances per second.
func (s DrainStats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Moved) / s.Elapsed.Seconds()
}

// Drain evacuates every guest off one member through a bounded-concurrency
// migration pipeline, spreading them round-robin over the schedulable
// members. Guests keep dispatching throughout — each instance pauses only
// for its own handoff window, never for the host's. The member is marked
// draining so the placer stops handing it new guests; it stays alive and
// serves its remaining guests until their turn comes.
func (c *Cluster) Drain(hostName string, workers int) (DrainStats, error) {
	m, ok := c.Member(hostName)
	if !ok {
		return DrainStats{}, fmt.Errorf("cluster: no member %q", hostName)
	}
	c.mu.Lock()
	m.draining = true
	var targets []string
	for _, t := range c.members {
		if t != m && t.fail == Alive && !t.draining {
			targets = append(targets, t.Name)
		}
	}
	c.mu.Unlock()
	if len(targets) == 0 {
		return DrainStats{}, errors.New("cluster: nowhere to drain to")
	}
	if workers <= 0 {
		workers = 16
	}
	keys := c.keysOn(hostName)
	stats := DrainStats{Requested: len(keys)}
	start := time.Now()

	var moved, failed atomic.Int64
	var next atomic.Int64
	work := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range work {
				dst := targets[int(next.Add(1))%len(targets)]
				if err := c.Migrate(key, dst); err != nil {
					failed.Add(1)
					continue
				}
				moved.Add(1)
			}
		}()
	}
	for _, key := range keys {
		work <- key
	}
	close(work)
	wg.Wait()
	stats.Moved = int(moved.Load())
	stats.Failed = int(failed.Load())
	stats.Elapsed = time.Since(start)
	return stats, nil
}
