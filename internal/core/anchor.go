package core

import (
	"bytes"
	"errors"
	"fmt"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
)

// Audit anchoring: the hash-chained audit log detects edits, but an
// attacker who controls the manager's storage can replace the whole log
// with a shorter, internally consistent one. Anchoring defeats that by
// committing the chain head into the hardware TPM — an NV area holds the
// latest head, and a monotonic counter (which can never decrease, even
// across state rollback) versions each commit. A verifier who reads the
// anchor out of the hardware TPM can check any presented log against it.

// ErrAnchorMismatch reports an audit log that does not match the hardware
// anchor.
var ErrAnchorMismatch = errors.New("core: audit log does not match hardware anchor")

// anchorNVIndex is the NV index the audit anchor occupies.
const anchorNVIndex uint32 = 0x00A0D17

// anchorNVSize is head hash (32) + anchor counter value (4).
const anchorNVSize = 32 + 4

// AuditAnchor commits audit heads into the host's hardware TPM.
type AuditAnchor struct {
	keys        *PlatformKeys
	counterID   uint32
	counterAuth [tpm.AuthSize]byte
}

// NewAuditAnchor provisions the anchor: an owner-writable, world-readable
// NV area and a monotonic counter.
func NewAuditAnchor(keys *PlatformKeys) (*AuditAnchor, error) {
	a := &AuditAnchor{keys: keys}
	copy(a.counterAuth[:], deriveBytes(keys.master, "audit-anchor-counter")[:tpm.AuthSize])
	if err := keys.hw.NVDefineSpace(keys.ownerAuth, anchorNVIndex, anchorNVSize,
		tpm.NVPerOwnerWrite, [tpm.AuthSize]byte{}); err != nil {
		return nil, fmt.Errorf("core: defining anchor NV: %w", err)
	}
	id, _, err := keys.hw.CreateCounter(keys.ownerAuth, a.counterAuth, [4]byte{'A', 'U', 'D', 'T'})
	if err != nil {
		return nil, fmt.Errorf("core: creating anchor counter: %w", err)
	}
	a.counterID = id
	return a, nil
}

// Anchor commits the log's current head, returning the anchor counter value
// that versions it.
func (a *AuditAnchor) Anchor(log *AuditLog) (uint32, error) {
	head := log.Head()
	v, err := a.keys.hw.IncrementCounter(a.counterID, a.counterAuth)
	if err != nil {
		return 0, fmt.Errorf("core: bumping anchor counter: %w", err)
	}
	w := tpm.NewWriter()
	w.Raw(head[:])
	w.U32(v)
	if err := a.keys.hw.NVWrite(anchorNVIndex, 0, w.Bytes(), &a.keys.ownerAuth); err != nil {
		return 0, fmt.Errorf("core: writing anchor: %w", err)
	}
	return v, nil
}

// ReadAnchor returns the currently anchored head and its counter value.
// World-readable: any verifier with TPM access can call it.
func (a *AuditAnchor) ReadAnchor() (head [32]byte, counterValue uint32, err error) {
	data, err := a.keys.hw.NVRead(anchorNVIndex, 0, anchorNVSize, nil)
	if err != nil {
		return head, 0, err
	}
	r := tpm.NewReader(data)
	copy(head[:], r.Raw(32))
	counterValue = r.U32()
	return head, counterValue, r.Err()
}

// VerifyAgainstAnchor checks a presented audit log against the hardware
// anchor: the chain must be internally consistent AND end at the anchored
// head, and the live anchor counter must equal the anchored value (a higher
// live counter with a stale NV head means someone rolled the anchor NV
// back).
func (a *AuditAnchor) VerifyAgainstAnchor(records []AuditRecord) error {
	head, anchoredCtr, err := a.ReadAnchor()
	if err != nil {
		return err
	}
	if err := VerifyTail(records, head); err != nil {
		return fmt.Errorf("%w: %v", ErrAnchorMismatch, err)
	}
	_, liveCtr, err := a.keys.hw.ReadCounter(a.counterID)
	if err != nil {
		return err
	}
	if liveCtr != anchoredCtr {
		return fmt.Errorf("%w: anchor counter %d, live counter %d (rollback?)",
			ErrAnchorMismatch, anchoredCtr, liveCtr)
	}
	return nil
}

// Policy serialization: the management plane persists policies across
// manager restarts and ships them between hosts. The format is the tpm wire
// style: count ∥ rules(identity 20 ∥ instance 4 ∥ profile 1 ∥ group B16 ∥
// ordinal 4 ∥ effect 1), prefixed with a magic. XPOL1 blobs (pre-profile,
// no profile byte) still parse; their rules load with the AnyProfile
// wildcard, which preserves their original meaning.

var (
	policyMagic       = []byte("XPOL2")
	policyMagicLegacy = []byte("XPOL1")
)

// MarshalBinary serializes the policy's rules (cache state is not
// persisted).
func (p *Policy) MarshalBinary() ([]byte, error) {
	t := p.table.Load()
	w := tpm.NewWriter()
	w.Raw(policyMagic)
	w.U32(uint32(len(t.rules)))
	for _, r := range t.rules {
		w.Raw(r.Identity[:])
		w.U32(uint32(r.Instance))
		w.U8(byte(r.Profile))
		w.B16([]byte(r.Group))
		w.U32(r.Ordinal)
		w.U8(byte(r.Effect))
	}
	return w.Bytes(), nil
}

// UnmarshalPolicy parses a MarshalBinary blob into a fresh policy.
func UnmarshalPolicy(data []byte) (*Policy, error) {
	r := tpm.NewReader(data)
	magic := r.Raw(len(policyMagic))
	legacy := false
	if r.Err() == nil && bytes.Equal(magic, policyMagicLegacy) {
		legacy = true
	} else if r.Err() != nil || !bytes.Equal(magic, policyMagic) {
		return nil, fmt.Errorf("core: not a policy blob")
	}
	n := r.U32()
	// The rule count comes off the wire: bound it by the bytes that remain
	// (identity, instance, profile unless legacy, empty group, ordinal,
	// effect per rule) before it sizes an allocation.
	minRule := len(AnyIdentity) + 4 + 1 + 2 + 4 + 1
	if legacy {
		minRule--
	}
	if r.Err() == nil && uint64(n)*uint64(minRule) > uint64(r.Remaining()) {
		return nil, fmt.Errorf("core: %d rules claimed in %d bytes", n, r.Remaining())
	}
	rules := make([]Rule, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		var rule Rule
		copy(rule.Identity[:], r.Raw(len(rule.Identity)))
		rule.Instance = vtpm.InstanceID(r.U32())
		if !legacy {
			rule.Profile = tpm.Profile(r.U8())
			if rule.Profile != tpm.AnyProfile && rule.Profile != tpm.Profile12 && rule.Profile != tpm.Profile20 {
				return nil, fmt.Errorf("core: rule %d names unknown profile %d", i, uint8(rule.Profile))
			}
		}
		rule.Group = Group(r.B16())
		rule.Ordinal = r.U32()
		rule.Effect = Effect(r.U8())
		if rule.Effect != Allow && rule.Effect != Deny {
			return nil, fmt.Errorf("core: rule %d has invalid effect", i)
		}
		rules = append(rules, rule)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes in policy blob", r.Remaining())
	}
	return NewPolicy(rules...), nil
}
