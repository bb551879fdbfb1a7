package core

import (
	"fmt"

	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// BaselineGuard reproduces the stock Xen vTPM access control the paper
// measures against: the manager routes commands to the instance mapped to
// the requesting domain ID and performs no further checks. State is stored
// and mirrored in plaintext, command plaintext lingers in manager memory,
// and migration ships raw TPM state. Every weakness here is the deployed
// behaviour, not a strawman: domain IDs are the only binding the stock
// manager kept, and its state files were plaintext on dom0 disk.
type BaselineGuard struct{}

// NewBaselineGuard returns the stock-Xen guard.
func NewBaselineGuard() *BaselineGuard { return &BaselineGuard{} }

// Name implements vtpm.Guard.
func (*BaselineGuard) Name() string { return "baseline" }

// AdmitCommand implements vtpm.Guard: the only check is the instance↔domid
// table, which the manager already consulted to route here — so the claimed
// domain ID is simply trusted.
func (*BaselineGuard) AdmitCommand(inst vtpm.InstanceInfo, claimedFrom xen.DomID, claimedLaunch xen.LaunchDigest, payload []byte) ([]byte, vtpm.ResponseFinisher, error) {
	if inst.BoundDom != claimedFrom {
		return nil, nil, fmt.Errorf("%w: instance %d serves dom%d", vtpm.ErrNotBound, inst.ID, inst.BoundDom)
	}
	finish := func(resp []byte) ([]byte, error) { return resp, nil }
	return payload, finish, nil
}

// EncoderFor implements vtpm.Guard: commands travel in the clear.
func (*BaselineGuard) EncoderFor(inst vtpm.InstanceInfo) (vtpm.GuestCodec, error) {
	return vtpm.PlainCodec{}, nil
}

// ProtectState implements vtpm.Guard: plaintext, as the stock manager
// persisted it.
func (*BaselineGuard) ProtectState(inst vtpm.InstanceInfo, dst, state []byte) ([]byte, error) {
	return append(dst, state...), nil
}

// RecoverState implements vtpm.Guard.
func (*BaselineGuard) RecoverState(inst vtpm.InstanceInfo, blob []byte) ([]byte, error) {
	return append([]byte(nil), blob...), nil
}

// RetainsPlaintext implements vtpm.Guard: the stock manager's buffers
// lingered.
func (*BaselineGuard) RetainsPlaintext() bool { return true }
