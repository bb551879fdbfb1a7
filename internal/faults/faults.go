// Package faults is the deterministic fault-injection layer of the
// reproduction: a seeded, policy-driven injector that store wrappers and
// driver hooks consult to decide whether one operation fails, stalls, tears
// or corrupts, plus the error-classification vocabulary the recovery
// machinery keys its retry and quarantine decisions on.
//
// The threat model (DESIGN.md §3) assumes a hostile or unreliable dom0:
// state files live on dom0 storage, ring notifications travel through dom0
// code, and any of it can fail at any moment. The injector makes those
// failures reproducible — every decision is drawn from a PRNG seeded
// explicitly, one draw per operation, so the same seed replays the same
// fault schedule regardless of which fault kinds are enabled.
//
// The package is deliberately standalone (stdlib only, no internal
// imports): internal/vtpm consumes the classification vocabulary, while
// experiments and tests wire the injector into stores and driver hooks.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Class partitions failures by the recovery action they permit.
type Class int

const (
	// ClassNone marks a nil error.
	ClassNone Class = iota
	// ClassTransient failures may succeed on retry (I/O hiccup, stall,
	// torn write that a rewrite repairs). The retry layer backs off and
	// tries again, bounded by attempts and deadline.
	ClassTransient
	// ClassPermanent failures will not succeed on retry (missing blob,
	// configuration error). Retrying wastes the deadline; fail now.
	ClassPermanent
	// ClassCorrupt failures mean the data itself is damaged (truncated
	// blob, broken envelope). Retrying re-reads the same damage; the
	// instance must be fenced until an operator or a fresh checkpoint
	// replaces the state.
	ClassCorrupt
)

// String returns the class name used in health reports.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	case ClassCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// classified wraps an error with its recovery class.
type classified struct {
	class Class
	err   error
}

func (e *classified) Error() string { return e.err.Error() }
func (e *classified) Unwrap() error { return e.err }

// Transient marks err as retryable. Nil stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &classified{class: ClassTransient, err: err}
}

// Permanent marks err as not worth retrying. Nil stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &classified{class: ClassPermanent, err: err}
}

// Corrupt marks err as data damage. Nil stays nil.
func Corrupt(err error) error {
	if err == nil {
		return nil
	}
	return &classified{class: ClassCorrupt, err: err}
}

// Classify returns the recovery class of err. Unmarked non-nil errors
// default to ClassTransient: an unknown store failure is worth one bounded
// round of retries before escalating, whereas misclassifying a transient
// hiccup as permanent would fail instances that one retry saves. Callers
// with stronger knowledge (a known not-found sentinel, say) check those
// sentinels before consulting Classify.
func Classify(err error) Class {
	if err == nil {
		return ClassNone
	}
	var c *classified
	if errors.As(err, &c) {
		return c.class
	}
	return ClassTransient
}

// Op names one injectable operation kind. Each Op has its own policy and
// its own deterministic decision stream.
type Op int

const (
	// OpPut is a store write.
	OpPut Op = iota
	// OpGet is a store read.
	OpGet
	// OpDelete is a store delete.
	OpDelete
	// OpList is a store enumeration.
	OpList
	// OpNotify is an event-channel notification send.
	OpNotify
	// OpFrame is a ring frame dequeue.
	OpFrame
	// OpTransfer is one cross-host migration transfer leg — shipping a
	// guest's committed checkpoint between hosts. The cluster's fenced
	// handoff consults it per attempt, so a fault storm tears migrations
	// mid-flight without touching the store or ring schedules.
	OpTransfer
	numOps
)

// String returns the operation name used in stats tables.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpList:
		return "list"
	case OpNotify:
		return "notify"
	case OpFrame:
		return "frame"
	case OpTransfer:
		return "transfer"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Outcome is the injector's verdict for one operation.
type Outcome int

const (
	// OutcomeOK lets the operation through untouched.
	OutcomeOK Outcome = iota
	// OutcomeError fails the operation with a transient injected error.
	OutcomeError
	// OutcomePermanent fails the operation with a permanent injected error.
	OutcomePermanent
	// OutcomeTorn applies to writes: a prefix of the data lands, then the
	// operation errors — the crash-mid-write model.
	OutcomeTorn
	// OutcomeShort applies to reads: a truncated blob comes back with no
	// error — silent corruption the consumer must detect itself.
	OutcomeShort
	// OutcomeDrop applies to notifications: the event vanishes.
	OutcomeDrop
	// OutcomeTruncate applies to ring frames: the payload is cut short.
	OutcomeTruncate
	// OutcomeStall delays the operation by the policy's Latency, then lets
	// it through.
	OutcomeStall
)

// Policy sets the fault mix for one Op. Rates are probabilities in [0, 1]
// and are applied as cumulative, mutually exclusive bands over a single
// uniform draw per operation — so enabling one fault kind never perturbs
// the schedule of another, and rate sums above 1 are a configuration error.
type Policy struct {
	// ErrorRate injects transient failures.
	ErrorRate float64
	// PermanentRate injects permanent failures.
	PermanentRate float64
	// TornRate injects torn writes (OpPut: prefix lands, then error).
	TornRate float64
	// ShortRate injects short reads (OpGet: truncated data, nil error).
	ShortRate float64
	// DropRate injects dropped notifications (OpNotify).
	DropRate float64
	// TruncateRate injects truncated frames (OpFrame).
	TruncateRate float64
	// StallRate injects latency of Latency per hit.
	StallRate float64
	// Latency is the injected stall duration.
	Latency time.Duration
}

// errInjected is the root of every injected failure, so tests can assert a
// failure came from the harness and not from real machinery.
var errInjected = errors.New("faults: injected failure")

// IsInjected reports whether err originated in an Injector.
func IsInjected(err error) bool { return errors.Is(err, errInjected) }

// OpStats counts one operation kind's traffic and verdicts.
type OpStats struct {
	Ops      uint64 // operations decided
	Injected uint64 // non-OK verdicts
}

// Injector is the seeded decision engine. One Injector serves a whole test
// or experiment run; every wrapped component consults it through Decide.
// Decisions are serialized under a mutex: a run that issues operations in a
// deterministic order gets a fully deterministic schedule, and even
// concurrent runs keep a deterministic *set* of faulted operation indices
// per Op (each Op consumes its own decision stream).
type Injector struct {
	mu       sync.Mutex
	seed     int64
	rngs     [numOps]*rand.Rand
	policies [numOps]Policy
	stats    [numOps]OpStats
	disabled bool
}

// NewInjector creates an injector whose whole schedule is a pure function
// of seed. Each Op draws from its own PRNG (seeded from the root seed and
// the Op number) so interleaving Put traffic never shifts the Get schedule.
func NewInjector(seed int64) *Injector {
	inj := &Injector{seed: seed}
	for op := Op(0); op < numOps; op++ {
		inj.rngs[op] = rand.New(rand.NewSource(seed ^ (int64(op+1) * 0x5851f42d4c957f2d)))
	}
	return inj
}

// Seed returns the root seed, for failure reports ("reproduce with ...").
func (inj *Injector) Seed() int64 { return inj.seed }

// SetPolicy installs the fault mix for one Op. Policies may be swapped
// mid-run (e.g. disabling faults for a verification phase); the decision
// stream position is preserved.
func (inj *Injector) SetPolicy(op Op, p Policy) {
	inj.mu.Lock()
	inj.policies[op] = p
	inj.mu.Unlock()
}

// SetDisabled turns the whole injector off (every Decide returns OutcomeOK
// without consuming a draw) — the post-storm verification switch.
func (inj *Injector) SetDisabled(d bool) {
	inj.mu.Lock()
	inj.disabled = d
	inj.mu.Unlock()
}

// Stats returns the per-Op traffic counters.
func (inj *Injector) Stats() map[Op]OpStats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[Op]OpStats, numOps)
	for op := Op(0); op < numOps; op++ {
		if inj.stats[op].Ops > 0 {
			out[op] = inj.stats[op]
		}
	}
	return out
}

// InjectedTotal sums injected faults across all Ops.
func (inj *Injector) InjectedTotal() uint64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var n uint64
	for op := Op(0); op < numOps; op++ {
		n += inj.stats[op].Injected
	}
	return n
}

// Decide draws one verdict for an operation of kind op. The stall outcome
// sleeps here, inside Decide, so callers treat every non-OK verdict as a
// pure value.
func (inj *Injector) Decide(op Op) Outcome {
	inj.mu.Lock()
	if inj.disabled {
		inj.mu.Unlock()
		return OutcomeOK
	}
	p := inj.policies[op]
	inj.stats[op].Ops++
	u := inj.rngs[op].Float64()
	out := verdict(op, p, u)
	var stall time.Duration
	if out == OutcomeStall {
		stall = p.Latency
	}
	if out != OutcomeOK {
		inj.stats[op].Injected++
	}
	inj.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	return out
}

// verdict maps one uniform draw onto the policy's cumulative bands.
func verdict(op Op, p Policy, u float64) Outcome {
	bands := []struct {
		rate float64
		out  Outcome
	}{
		{p.ErrorRate, OutcomeError},
		{p.PermanentRate, OutcomePermanent},
		{p.TornRate, OutcomeTorn},
		{p.ShortRate, OutcomeShort},
		{p.DropRate, OutcomeDrop},
		{p.TruncateRate, OutcomeTruncate},
		{p.StallRate, OutcomeStall},
	}
	var cum float64
	for _, b := range bands {
		cum += b.rate
		if b.rate > 0 && u < cum {
			return b.out
		}
	}
	return OutcomeOK
}

// errFor builds the classified error for an injected failure.
func errFor(op Op, out Outcome) error {
	switch out {
	case OutcomeError, OutcomeTorn:
		return Transient(fmt.Errorf("%w: %s %s", errInjected, op, out.describe()))
	case OutcomePermanent:
		return Permanent(fmt.Errorf("%w: %s %s", errInjected, op, out.describe()))
	}
	return nil
}

func (o Outcome) describe() string {
	switch o {
	case OutcomeError:
		return "transient error"
	case OutcomePermanent:
		return "permanent error"
	case OutcomeTorn:
		return "torn write"
	case OutcomeShort:
		return "short read"
	case OutcomeDrop:
		return "dropped notification"
	case OutcomeTruncate:
		return "truncated frame"
	case OutcomeStall:
		return "stall"
	}
	return "ok"
}

// ShouldDropNotify decides one OpNotify operation — the adapter driver
// hooks close over (the hook signature stays free of this package's types).
func (inj *Injector) ShouldDropNotify() bool {
	return inj.Decide(OpNotify) == OutcomeDrop
}

// TruncateFrame decides one OpFrame operation and applies it: a truncated
// verdict cuts the payload roughly in half (at least one byte shorter), so
// downstream framing and envelope checks must catch it.
func (inj *Injector) TruncateFrame(payload []byte) []byte {
	if inj.Decide(OpFrame) != OutcomeTruncate || len(payload) == 0 {
		return payload
	}
	return payload[:len(payload)/2]
}
