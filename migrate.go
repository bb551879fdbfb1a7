package xvtpm

// Host-level migration primitives. They decompose a move into prepare /
// receive / finish / cancel steps so internal/cluster's fenced two-phase
// handoff — the only coordinator that moves a guest between hosts — can
// verify the destination copy before the source copy dies, and roll back
// deterministically when the transfer tears mid-flight. The vTPM state
// crosses hosts as vtpm.EncodeInstanceImage bytes, sealed by the guard to
// the destination's MigrationIdentity; the saved domain image is handed
// over in memory.

import (
	"crypto/rsa"
	"errors"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// MigrationIdentity is the public key migration envelopes to this host are
// encrypted to (nil in baseline mode, which ships plaintext).
func (h *Host) MigrationIdentity() *rsa.PublicKey { return h.guard.MigrationIdentity() }

// FederationJoin installs a cluster-wide state-key master delivered wrapped
// to this host's migration bind key (see core.PlatformKeys.JoinFederation).
// A baseline host persists plaintext and needs no shared key; the call is a
// no-op there.
func (h *Host) FederationJoin(wrapped []byte) error {
	if h.keys == nil {
		return nil
	}
	return h.keys.JoinFederation(wrapped)
}

// BeginMigration quiesces a guest for departure: the frontend closes, the
// device detaches, the instance unbinds (a write-behind flush barrier — the
// store agrees with the engine before anything travels), and the domain is
// saved. The domain object and the vTPM instance both stay registered on
// this host until FinishMigration or CancelMigration decides their fate.
func (h *Host) BeginMigration(g *Guest) (*xen.DomainImage, error) {
	g.Frontend.Close()
	if err := h.Backend.DetachDevice(g.Dom.ID()); err != nil && !errors.Is(err, vtpm.ErrNotConnected) {
		return nil, err
	}
	if err := h.Manager.UnbindInstance(g.Instance); err != nil && !errors.Is(err, vtpm.ErrUnbound) {
		return nil, err
	}
	domImg, err := h.HV.SaveDomain(xen.Dom0, g.Dom.ID())
	if err != nil {
		return nil, err
	}
	domImg.SrcHost = h.Name
	return domImg, nil
}

// FinishMigration destroys the source copies of a migrated guest — called
// only after the destination copy is activated and verified.
func (h *Host) FinishMigration(g *Guest) error {
	if err := h.destroyInstance(g.Instance); err != nil {
		return err
	}
	h.mu.Lock()
	delete(h.guests, g.Dom.ID())
	h.mu.Unlock()
	if err := h.HV.DestroyDomain(xen.Dom0, g.Dom.ID()); err != nil {
		return err
	}
	h.forgetDomain(g.Dom.ID())
	return nil
}

// CancelMigration rolls a prepared source back to a running guest after a
// failed transfer: the suspended domain is recreated from its saved image
// (a suspended domain cannot simply resume in place, exactly as a torn live
// migration restarts from the checkpoint) and the still-registered instance
// is rebound and reconnected.
func (h *Host) CancelMigration(g *Guest, img *xen.DomainImage) (*Guest, error) {
	h.mu.Lock()
	delete(h.guests, g.Dom.ID())
	h.mu.Unlock()
	if err := h.HV.DestroyDomain(xen.Dom0, g.Dom.ID()); err != nil {
		return nil, err
	}
	h.forgetDomain(g.Dom.ID())
	dom, err := h.HV.RestoreDomain(xen.Dom0, img)
	if err != nil {
		return nil, err
	}
	return h.attachGuest(dom, g.Instance, false)
}

// ReattachGuest rebinds and reconnects a guest whose device was torn down
// but whose domain never suspended — the rollback path for a migration that
// failed before the domain was saved.
func (h *Host) ReattachGuest(g *Guest) (*Guest, error) {
	return h.attachGuest(g.Dom, g.Instance, false)
}

// ReceiveImage activates a migrated guest from in-memory images — the
// destination half the cluster's transfer leg hands over after shipping the
// encoded instance image between hosts. A partial failure leaves nothing
// behind: the imported instance is destroyed again if the domain restore or
// device attach fails.
func (h *Host) ReceiveImage(domImg *xen.DomainImage, img *vtpm.InstanceImage) (*Guest, error) {
	id, err := h.Manager.ImportInstance(img)
	if err != nil {
		return nil, err
	}
	dom, err := h.HV.RestoreDomain(xen.Dom0, domImg)
	if err != nil {
		h.Manager.DestroyInstance(id) //nolint:errcheck // unwinding a partial import
		return nil, err
	}
	g, err := h.attachGuest(dom, id, true)
	if err != nil {
		h.HV.DestroyDomain(xen.Dom0, dom.ID()) //nolint:errcheck // unwinding a partial import
		h.destroyInstance(id)                  //nolint:errcheck // unwinding a partial import
		return nil, err
	}
	return g, nil
}

// AdoptGuest revives a guest from another host's committed checkpoint blob —
// the failure-driven evacuation path. origID is the instance's ID on the
// host that wrote the blob; spec recreates the guest domain (the launch
// measurement must match the original, or the improved guard's binding will
// refuse the new domain's commands).
func (h *Host) AdoptGuest(spec GuestConfig, origID vtpm.InstanceID, blob []byte) (*Guest, error) {
	if len(spec.Kernel) == 0 {
		return nil, errors.New("xvtpm: adopted guest needs a kernel to be measured")
	}
	id, err := h.Manager.AdoptCheckpoint(origID, blob)
	if err != nil {
		return nil, err
	}
	dom, err := h.HV.CreateDomain(xen.DomainConfig{
		Name: spec.Name, Kernel: spec.Kernel, Initrd: spec.Initrd, Cmdline: spec.Cmdline, Pages: spec.Pages,
	})
	if err != nil {
		h.Manager.DestroyInstance(id) //nolint:errcheck // unwinding a partial adoption
		return nil, err
	}
	g, err := h.attachGuest(dom, id, true)
	if err != nil {
		h.HV.DestroyDomain(xen.Dom0, dom.ID()) //nolint:errcheck // unwinding a partial adoption
		h.destroyInstance(id)                  //nolint:errcheck // unwinding a partial adoption
		return nil, err
	}
	return g, nil
}

// InstancePCRDigest fingerprints a local instance's full PCR bank.
func (h *Host) InstancePCRDigest(id vtpm.InstanceID) ([tpm.DigestSize]byte, error) {
	return h.Manager.PCRDigest(id)
}
