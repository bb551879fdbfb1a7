package vtpm_test

import (
	"testing"

	"xvtpm/internal/core"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// adoptRig is one manager over its own store: it commits the seed
// checkpoints and adopts the fuzzed ones, so both sides share one guard and
// so one state root.
type adoptRig struct {
	guard vtpm.Guard
	store vtpm.Store
	mgr   *vtpm.Manager
}

func newAdoptRig(f *testing.F, guard vtpm.Guard) *adoptRig {
	f.Helper()
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 2048})
	dom0, err := hv.Domain(xen.Dom0)
	if err != nil {
		f.Fatal(err)
	}
	store := vtpm.NewMemStore()
	mgr := vtpm.NewManager(hv, store, xen.NewArena(dom0), guard, vtpm.ManagerConfig{
		RSABits: 512, Seed: []byte("adopt-fuzz"),
	})
	f.Cleanup(func() { mgr.Close() }) //nolint:errcheck // test teardown
	return &adoptRig{guard: guard, store: store, mgr: mgr}
}

// committed creates an instance and returns its committed checkpoint.
func (r *adoptRig) committed(f *testing.F) []byte {
	f.Helper()
	id, err := r.mgr.CreateInstance()
	if err != nil {
		f.Fatal(err)
	}
	if id != fuzzOrigID {
		f.Fatalf("seed instance got ID %d, want %d", id, fuzzOrigID)
	}
	blob, err := r.store.Get(vtpm.StateName(id))
	if err != nil {
		f.Fatal(err)
	}
	return blob
}

// fuzzOrigID is the source ID every fuzzed checkpoint claims: the ID the
// seed checkpoints were committed under.
const fuzzOrigID vtpm.InstanceID = 1

// adopt holds one input to adoption's contract: refuse with an error and
// commit nothing, or revive an instance whose next checkpoint re-opens into
// state of the declared profile.
func (r *adoptRig) adopt(t *testing.T, b []byte) {
	t.Helper()
	before := len(r.mgr.Instances())
	names, err := r.store.List()
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.mgr.AdoptCheckpoint(fuzzOrigID, b)
	if err != nil {
		if n := len(r.mgr.Instances()); n != before {
			t.Fatalf("%s: refused adoption (%v) left %d instances, %d before", r.guard.Name(), err, n, before)
		}
		if after, _ := r.store.List(); len(after) != len(names) {
			t.Fatalf("%s: refused adoption (%v) left %d blobs, %d before", r.guard.Name(), err, len(after), len(names))
		}
		return
	}
	defer r.mgr.DestroyInstance(id) //nolint:errcheck // keeps the rig at its seed population
	if err := r.mgr.Checkpoint(id); err != nil {
		t.Fatalf("%s: checkpoint of adopted instance %d: %v", r.guard.Name(), id, err)
	}
	blob, err := r.store.Get(vtpm.StateName(id))
	if err != nil {
		t.Fatal(err)
	}
	p, _, env, err := vtpm.UnwrapCheckpointEpoch(blob)
	if err != nil {
		t.Fatalf("%s: adopted instance's checkpoint header: %v", r.guard.Name(), err)
	}
	state, err := r.guard.RecoverState(vtpm.InstanceInfo{ID: id, Profile: p}, env)
	if err != nil {
		t.Fatalf("%s: adopted instance's checkpoint does not re-open: %v", r.guard.Name(), err)
	}
	eng, err := tpm.RestoreEngine(state)
	if err != nil {
		t.Fatalf("%s: adopted instance's checkpoint does not restore: %v", r.guard.Name(), err)
	}
	if eng.Profile() != p {
		t.Fatalf("%s: checkpoint declares %s, state is %s", r.guard.Name(), p, eng.Profile())
	}
}

// improvedGuard boots a hardware TPM, provisions its platform keys and
// returns the improved guard over them.
func improvedGuard(f *testing.F) *core.ImprovedGuard {
	f.Helper()
	hw, err := tpm.New(tpm.Config{RSABits: 512, Seed: []byte("adopt-fuzz-hw")})
	if err != nil {
		f.Fatal(err)
	}
	cli := tpm.NewClient(tpm.DirectTransport{TPM: hw}, nil)
	if err := cli.Startup(tpm.STClear); err != nil {
		f.Fatal(err)
	}
	var owner, srk [tpm.AuthSize]byte
	copy(owner[:], "adopt-fuzz-owner")
	copy(srk[:], "adopt-fuzz-srk")
	keys, err := core.SetupPlatformKeys(cli, []byte("adopt-fuzz-platform"), owner, srk)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { keys.Close() }) //nolint:errcheck // test teardown
	return core.NewImprovedGuard(keys, core.NewPolicy())
}

// FuzzAdoptCheckpoint throws arbitrary bytes at AdoptCheckpoint, the one
// parser a destination runs on bytes that crossed between hosts — a move's
// shipped checkpoint or a dead member's — under both guards.
func FuzzAdoptCheckpoint(f *testing.F) {
	base := newAdoptRig(f, core.NewBaselineGuard())
	improved := newAdoptRig(f, improvedGuard(f))
	baseBlob := base.committed(f)
	f.Add(baseBlob)
	improvedBlob := improved.committed(f)
	f.Add(improvedBlob)
	_, _, headerless, err := vtpm.UnwrapCheckpointEpoch(baseBlob)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(headerless)
	f.Add(improvedBlob[:10]) // magic, version, profile and half the epoch
	f.Fuzz(func(t *testing.T, b []byte) {
		base.adopt(t, b)
		improved.adopt(t, b)
	})
}
