package xvtpm

// Host-level migration primitives. They decompose a move into prepare /
// receive / finish / cancel steps so internal/cluster's fenced two-phase
// handoff — the only coordinator that moves a guest between hosts — can
// verify the destination copy before the source copy dies, and roll back
// deterministically when the transfer tears mid-flight. The vTPM state
// crosses hosts as the source's committed checkpoint, sealed at rest under
// the federation's state root that every member took at join (Federate),
// and the destination revives it as it revives a dead member's
// (Manager.AdoptCheckpoint); the saved domain image is handed over in
// memory.

import (
	"errors"
	"fmt"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// Federate makes hosts members of one federation: master, the root every
// member's state-envelope keys derive from, reaches each improved host
// wrapped to its hardware-TPM-resident bind key and is opened there by one
// TPM_UnBind (core.PlatformKeys.JoinFederation). Any member can then open
// any member's committed checkpoints, which is how a vTPM moves or is
// evacuated. A host must join before it seals any instance state. Baseline
// hosts persist plaintext and need no shared key; they are skipped.
func Federate(master []byte, hosts ...*Host) error {
	for _, h := range hosts {
		if h.keys == nil {
			continue
		}
		wrapped, err := tpm.BindEncrypt(nil, h.keys.BindPub(), master)
		if err != nil {
			return fmt.Errorf("xvtpm: wrapping federation master for %s: %w", h.Name, err)
		}
		if err := h.keys.JoinFederation(wrapped); err != nil {
			return fmt.Errorf("xvtpm: %s joining federation: %w", h.Name, err)
		}
	}
	return nil
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

// AttachMigrated restores a moving guest's saved domain on this host and
// attaches it to id, the instance this host adopted from the source's
// committed checkpoint. A failure leaves nothing behind: the domain and the
// instance are destroyed again.
func (h *Host) AttachMigrated(domImg *xen.DomainImage, id vtpm.InstanceID) (*Guest, error) {
	return h.attachAdopted(id, func() (*xen.Domain, error) { return h.HV.RestoreDomain(xen.Dom0, domImg) })
}

// AdoptGuest revives a guest from another host's committed checkpoint blob —
// the failure-driven evacuation path. origID is the instance's ID on the
// host that wrote the blob; spec recreates the guest domain (the launch
// measurement must match the original, or the improved guard's binding will
// refuse the new domain's commands). The adopted instance is checkpointed
// under its new name before its domain is built: evacuation reassigns the
// guest to this host before it writes the fenced checkpoint, and if this
// host dies in between, that blob is the only state under the guest's new
// name. If the checkpoint fails, the instance is destroyed again.
func (h *Host) AdoptGuest(spec GuestConfig, origID vtpm.InstanceID, blob []byte) (*Guest, error) {
	if len(spec.Kernel) == 0 {
		return nil, errors.New("xvtpm: adopted guest needs a kernel to be measured")
	}
	id, err := h.Manager.AdoptCheckpoint(origID, blob)
	if err != nil {
		return nil, err
	}
	if err := h.Manager.Checkpoint(id); err != nil {
		h.Manager.DestroyInstance(id) //nolint:errcheck // the checkpoint failure is the error to report
		return nil, err
	}
	return h.attachAdopted(id, func() (*xen.Domain, error) {
		return h.HV.CreateDomain(xen.DomainConfig{
			Name: spec.Name, Kernel: spec.Kernel, Initrd: spec.Initrd, Cmdline: spec.Cmdline, Pages: spec.Pages,
		})
	})
}

// attachAdopted attaches an adopted instance to the domain newDom builds,
// destroying both again if either step fails.
func (h *Host) attachAdopted(id vtpm.InstanceID, newDom func() (*xen.Domain, error)) (*Guest, error) {
	dom, err := newDom()
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
