package vtpm_test

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"testing"

	"xvtpm/internal/core"
	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// exportedImage exports a fresh instance through guard, sealed to dest, and
// returns the image's wire form.
func exportedImage(f *testing.F, guard vtpm.Guard, dest *rsa.PublicKey) []byte {
	f.Helper()
	hv := xen.NewHypervisor(xen.DomainConfig{Name: "Domain-0", Pages: 2048})
	dom0, err := hv.Domain(xen.Dom0)
	if err != nil {
		f.Fatal(err)
	}
	mgr := vtpm.NewManager(hv, vtpm.NewMemStore(), xen.NewArena(dom0), guard, vtpm.ManagerConfig{
		RSABits: 512, Seed: []byte("image-fuzz"),
	})
	defer mgr.Close()
	id, err := mgr.CreateInstance()
	if err != nil {
		f.Fatal(err)
	}
	img, err := mgr.ExportInstance(id, dest)
	if err != nil {
		f.Fatal(err)
	}
	return vtpm.EncodeInstanceImage(img)
}

// improvedGuard boots a hardware TPM, provisions its platform keys and
// returns the improved guard over them.
func improvedGuard(f *testing.F) *core.ImprovedGuard {
	f.Helper()
	hw, err := tpm.New(tpm.Config{RSABits: 512, Seed: []byte("image-fuzz-hw")})
	if err != nil {
		f.Fatal(err)
	}
	cli := tpm.NewClient(tpm.DirectTransport{TPM: hw}, nil)
	if err := cli.Startup(tpm.STClear); err != nil {
		f.Fatal(err)
	}
	var owner, srk [tpm.AuthSize]byte
	copy(owner[:], "image-fuzz-owner")
	copy(srk[:], "image-fuzz-srk")
	keys, err := core.SetupPlatformKeys(cli, []byte("image-fuzz-platform"), owner, srk)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { keys.Close() }) //nolint:errcheck // test teardown
	return core.NewImprovedGuard(keys, core.NewPolicy())
}

// FuzzDecodeInstanceImage throws arbitrary bytes at the migration image
// parser, the one decoder a destination runs on bytes that crossed between
// hosts. Every rejection must wrap ErrBadImage, and every accepted input
// must be exactly one image: re-encoding it reproduces the input byte for
// byte, so nothing rides along unparsed.
func FuzzDecodeInstanceImage(f *testing.F) {
	f.Add(exportedImage(f, core.NewBaselineGuard(), nil))
	ig := improvedGuard(f)
	f.Add(exportedImage(f, ig, ig.MigrationIdentity()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		img, err := vtpm.DecodeInstanceImage(b)
		if err != nil {
			if !errors.Is(err, vtpm.ErrBadImage) {
				t.Fatalf("rejection %v does not wrap ErrBadImage", err)
			}
			return
		}
		if got := vtpm.EncodeInstanceImage(img); !bytes.Equal(got, b) {
			t.Fatalf("accepted image re-encodes to %x, input was %x", got, b)
		}
	})
}
