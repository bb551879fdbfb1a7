package attack

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"sync"

	"xvtpm"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// Scenario drives one attack against a prepared host+guest and reports the
// outcome. Scenarios may consume the guest (migration moves it away).
type Scenario func(h *xvtpm.Host, g *xvtpm.Guest, peer *xvtpm.Host) (Result, error)

// guestAuth are the guest-side TPM secrets scenarios provision with.
func guestAuth(role string) (a [tpm.AuthSize]byte) {
	h := sha1.Sum([]byte("attack-guest|" + role))
	copy(a[:], h[:])
	return a
}

// plantedSecret is the application secret scenarios push through the vTPM;
// finding it in attacker-visible data is the leak criterion.
var plantedSecret = []byte("PLANTED-SECRET-0xFEEDFACE-DO-NOT-LEAK")

// provisionAndExercise owns the guest's vTPM and runs a seal/unseal so the
// secret transits the full command path (ring, backend, manager buffers).
func provisionAndExercise(g *xvtpm.Guest) error {
	owner, srk, data := guestAuth("owner"), guestAuth("srk"), guestAuth("data")
	if _, err := g.TPM.TakeOwnership(owner, srk); err != nil {
		return fmt.Errorf("attack: provisioning guest vTPM: %w", err)
	}
	blob, err := g.TPM.Seal(tpm.KHSRK, srk, data, nil, plantedSecret)
	if err != nil {
		return err
	}
	got, err := g.TPM.Unseal(tpm.KHSRK, srk, data, blob)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, plantedSecret) {
		return fmt.Errorf("attack: unseal mismatch")
	}
	return nil
}

// MemDump dumps dom0 (manager working memory, mirrors, exchange buffers)
// and the guest, hunting for the planted secret and plaintext TPM state.
func MemDump(h *xvtpm.Host, g *xvtpm.Guest, _ *xvtpm.Host) (Result, error) {
	if err := provisionAndExercise(g); err != nil {
		return Result{}, err
	}
	probes := []Probe{
		{Name: "planted-secret", Pattern: plantedSecret},
		StateMagicProbe,
	}
	found, err := DumpAndScan(h.HV, xen.Dom0, probes)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		Kind:      KindMemDump,
		Guard:     h.Guard().Name(),
		Succeeded: len(found) > 0,
		Detail:    fmt.Sprintf("dom0 dump hits: %v", found),
	}
	return r, nil
}

// RingSpoof injects a forged PCR-extend into the victim's vTPM, claiming
// the victim's domain identity from the compromised dom0 code path. Success
// criterion: the victim's PCR changed.
func RingSpoof(h *xvtpm.Host, g *xvtpm.Guest, _ *xvtpm.Host) (Result, error) {
	before, err := g.TPM.PCRRead(10)
	if err != nil {
		return Result{}, err
	}
	evil := sha1.Sum([]byte("attacker-chosen-measurement"))
	cmd := tpm.NewWriter()
	cmd.U16(tpm.TagRQUCommand)
	cmd.U32(uint32(10 + 4 + len(evil)))
	cmd.U32(tpm.OrdExtend)
	cmd.U32(10)
	cmd.Raw(evil[:])
	// The spoofer claims the victim's identity outright.
	_, dispatchErr := h.Manager.Dispatch(g.Dom.ID(), g.Dom.Launch(), cmd.Bytes())
	after, err := g.TPM.PCRRead(10)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		Kind:      KindRingSpoof,
		Guard:     h.Guard().Name(),
		Succeeded: after != before,
		Detail:    fmt.Sprintf("dispatch err=%v, pcr changed=%v", dispatchErr, after != before),
	}
	return r, nil
}

// Replay captures one legitimate guest command from the dom0 vantage point
// and re-injects it. Success criterion: the duplicate executed (the PCR
// moved one extra step).
func Replay(h *xvtpm.Host, g *xvtpm.Guest, _ *xvtpm.Host) (Result, error) {
	var mu sync.Mutex
	var captured []byte
	h.Manager.OnDispatch(func(from xen.DomID, payload []byte) {
		mu.Lock()
		if captured == nil && from == g.Dom.ID() {
			captured = payload
		}
		mu.Unlock()
	})
	m := sha1.Sum([]byte("legitimate-measurement"))
	if _, err := g.TPM.Extend(11, m); err != nil {
		return Result{}, err
	}
	afterLegit, err := g.TPM.PCRRead(11)
	if err != nil {
		return Result{}, err
	}
	mu.Lock()
	payload := captured
	mu.Unlock()
	if payload == nil {
		return Result{}, fmt.Errorf("attack: no traffic captured")
	}
	_, dispatchErr := h.Manager.Dispatch(g.Dom.ID(), g.Dom.Launch(), payload)
	afterReplay, err := g.TPM.PCRRead(11)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		Kind:      KindReplay,
		Guard:     h.Guard().Name(),
		Succeeded: afterReplay != afterLegit,
		Detail:    fmt.Sprintf("dispatch err=%v, pcr moved=%v", dispatchErr, afterReplay != afterLegit),
	}
	return r, nil
}

// StateTheft copies the victim's vTPM state file off the host and tries to
// extract key material by deserializing it. Success criterion: the stolen
// blob parses as TPM state (which contains the EK/SRK private keys).
func StateTheft(h *xvtpm.Host, g *xvtpm.Guest, _ *xvtpm.Host) (Result, error) {
	if err := provisionAndExercise(g); err != nil {
		return Result{}, err
	}
	hits, err := ScanStore(h.Store, []Probe{StateMagicProbe})
	if err != nil {
		return Result{}, err
	}
	// Try full key extraction on every blob. The attacker knows the on-disk
	// format: strip the plaintext checkpoint header, then deserialize
	// whichever profile's state follows it.
	names, _ := h.Store.List()
	extracted := false
	for _, name := range names {
		blob, err := h.Store.Get(name)
		if err != nil {
			continue
		}
		_, envelope, err := vtpm.UnwrapCheckpoint(blob)
		if err != nil {
			continue
		}
		if _, err := tpm.RestoreEngine(envelope); err == nil {
			extracted = true
			break
		}
	}
	r := Result{
		Kind:      KindStateTheft,
		Guard:     h.Guard().Name(),
		Succeeded: extracted,
		Detail:    fmt.Sprintf("plaintext blobs: %d, keys extracted: %v", len(hits), extracted),
	}
	return r, nil
}

// MigIntercept migrates the guest to peer and scans the bytes that cross
// between the hosts for plaintext TPM state. The source quiesces and
// exports exactly as the cluster's fenced transfer leg does — the image
// sealed to the peer's MigrationIdentity, then vtpm.EncodeInstanceImage —
// and the eavesdropper reads that wire form in full before the peer decodes
// and activates it. The fence and directory steps around the leg never
// touch these bytes, so the capture is everything a tap on the link sees.
// Success criterion: the eavesdropper recovered vTPM state from the wire.
func MigIntercept(h *xvtpm.Host, g *xvtpm.Guest, peer *xvtpm.Host) (Result, error) {
	if peer == nil {
		return Result{}, fmt.Errorf("attack: migration intercept needs a peer host")
	}
	if err := provisionAndExercise(g); err != nil {
		return Result{}, err
	}
	domImg, err := h.BeginMigration(g)
	if err != nil {
		return Result{}, err
	}
	img, err := h.Manager.ExportInstance(g.Instance, peer.MigrationIdentity())
	if err != nil {
		return Result{}, err
	}
	wire := vtpm.EncodeInstanceImage(img)
	found := ScanBytes(wire, []Probe{StateMagicProbe})
	rimg, err := vtpm.DecodeInstanceImage(wire)
	if err != nil {
		return Result{}, err
	}
	if _, err := peer.ReceiveImage(domImg, rimg); err != nil {
		return Result{}, err
	}
	if err := h.FinishMigration(g); err != nil {
		return Result{}, err
	}
	r := Result{
		Kind:      KindMigIntercept,
		Guard:     h.Guard().Name(),
		Succeeded: len(found) > 0,
		Detail:    fmt.Sprintf("wire capture hits: %v (%d bytes observed)", found, len(wire)),
	}
	return r, nil
}

// MigTamper modifies the vTPM state envelope while it crosses the migration
// channel. The flipped byte lands inside the serialized PCR bank: with
// plaintext state the destination imports the corrupted instance without
// noticing (the guest now attests to measurements it never made); with the
// improved guard's MACed envelope the import fails closed. Success
// criterion: the destination accepted the tampered instance.
func MigTamper(h *xvtpm.Host, g *xvtpm.Guest, peer *xvtpm.Host) (Result, error) {
	if peer == nil {
		return Result{}, fmt.Errorf("attack: migration tamper needs a peer host")
	}
	if err := provisionAndExercise(g); err != nil {
		return Result{}, err
	}
	inst := g.Instance
	g.Frontend.Close()
	if err := h.Backend.DetachDevice(g.Dom.ID()); err != nil {
		return Result{}, err
	}
	if err := h.Manager.UnbindInstance(inst); err != nil {
		return Result{}, err
	}
	img, err := h.Manager.ExportInstance(inst, peer.Guard().MigrationIdentity())
	if err != nil {
		return Result{}, err
	}
	// Flip one byte well inside the payload — past the header, inside the
	// PCR bank of a plaintext blob.
	tampered := append([]byte(nil), img.StateEnvelope...)
	if len(tampered) < 64 {
		return Result{}, fmt.Errorf("attack: envelope too small to tamper")
	}
	tampered[40] ^= 0xFF
	forged := &vtpm.InstanceImage{Launch: img.Launch, StateEnvelope: tampered}
	_, importErr := peer.Manager.ImportInstance(forged)
	r := Result{
		Kind:      KindMigTamper,
		Guard:     h.Guard().Name(),
		Succeeded: importErr == nil,
		Detail:    fmt.Sprintf("destination import err=%v", importErr),
	}
	return r, nil
}

// Scenarios maps kinds to their implementations.
var Scenarios = map[Kind]Scenario{
	KindMemDump:      MemDump,
	KindRingSpoof:    RingSpoof,
	KindReplay:       Replay,
	KindStateTheft:   StateTheft,
	KindMigIntercept: MigIntercept,
	KindMigTamper:    MigTamper,
}

// HostFactory builds a fresh (host, guest, peer) triple for one scenario
// run; every scenario gets a pristine environment.
type HostFactory func() (*xvtpm.Host, *xvtpm.Guest, *xvtpm.Host, error)

// RunMatrix executes every scenario against hosts from the factory and
// returns the matrix rows in Kinds order.
func RunMatrix(factory HostFactory) ([]Result, error) {
	var results []Result
	for _, kind := range Kinds {
		h, g, peer, err := factory()
		if err != nil {
			return nil, fmt.Errorf("attack: building host for %s: %w", kind, err)
		}
		res, err := Scenarios[kind](h, g, peer)
		if err != nil {
			return nil, fmt.Errorf("attack: running %s: %w", kind, err)
		}
		results = append(results, res)
		h.Close()
		if peer != nil {
			peer.Close()
		}
	}
	return results, nil
}
