package vtpm

import (
	"crypto/sha1"
	"errors"
	"testing"

	"xvtpm/internal/tpm"
	"xvtpm/internal/xen"
)

// migrationRig builds a source manager with one unbound, stateful instance
// ready to export.
func migrationRig(t *testing.T) (*Manager, InstanceID) {
	t.Helper()
	hv, xs, mgr, _ := newTestRig(t, &passGuard{})
	dom := mkGuestDom(t, hv, xs, "m")
	id, err := mgr.CreateInstance()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.BindInstance(id, dom); err != nil {
		t.Fatal(err)
	}
	cli, _ := mgr.DirectClient(id)
	m := sha1.Sum([]byte("pre"))
	if _, err := cli.Extend(3, m); err != nil {
		t.Fatal(err)
	}
	if err := mgr.UnbindInstance(id); err != nil {
		t.Fatal(err)
	}
	return mgr, id
}

// TestInstanceImageWireRoundTrip drives the transfer leg a cluster move
// ships: export, encode, decode on the far side, import.
func TestInstanceImageWireRoundTrip(t *testing.T) {
	src, id := migrationRig(t)
	_, _, dst, _ := newTestRig(t, &passGuard{})
	img, err := src.ExportInstance(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	rimg, err := DecodeInstanceImage(EncodeInstanceImage(img))
	if err != nil {
		t.Fatalf("DecodeInstanceImage: %v", err)
	}
	inst, err := dst.ImportInstance(rimg)
	if err != nil {
		t.Fatalf("ImportInstance: %v", err)
	}
	cli, err := dst.DirectClient(inst)
	if err != nil {
		t.Fatal(err)
	}
	srcCli, _ := src.DirectClient(id)
	want, _ := srcCli.PCRRead(3)
	got, err := cli.PCRRead(3)
	if err != nil || got != want {
		t.Fatalf("imported PCR: %v %x want %x", err, got, want)
	}
}

// TestImportRejectsCorruptGuardOutput: a destination whose guard opens the
// envelope into something that is not TPM state refuses the import with
// ErrBadImage and keeps no instance registered.
func TestImportRejectsCorruptGuardOutput(t *testing.T) {
	src, id := migrationRig(t)
	_, _, dst, _ := newTestRig(t, &corruptingGuard{})
	img, err := src.ExportInstance(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportInstance(img); !errors.Is(err, ErrBadImage) {
		t.Fatalf("err = %v, want ErrBadImage", err)
	}
	if ids := dst.Instances(); len(ids) != 0 {
		t.Fatalf("refused import left instances %v registered", ids)
	}
}

// corruptingGuard breaks ImportState so the destination must refuse.
type corruptingGuard struct{ passGuard }

func (g *corruptingGuard) ImportState(blob []byte) ([]byte, error) {
	return []byte("not a tpm state blob"), nil
}

// TestDecodeInstanceImageRejects: the image parser refuses anything but
// exactly one well-formed image.
func TestDecodeInstanceImageRejects(t *testing.T) {
	good := EncodeInstanceImage(&InstanceImage{Profile: tpm.Profile12, Epoch: 3, StateEnvelope: []byte("envelope")})
	if _, err := DecodeInstanceImage(good); err != nil {
		t.Fatalf("well-formed image refused: %v", err)
	}
	badProfile := append([]byte(nil), good...)
	badProfile[len(xen.LaunchDigest{})] = 7
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"appended byte", append(append([]byte(nil), good...), 0)},
		{"truncated envelope", good[:len(good)-1]},
		{"bad profile", badProfile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if img, err := DecodeInstanceImage(tc.b); !errors.Is(err, ErrBadImage) {
				t.Fatalf("DecodeInstanceImage = %+v, %v; want ErrBadImage", img, err)
			}
		})
	}
}

func TestManagerAccessors(t *testing.T) {
	_, _, mgr, _ := newTestRig(t, &passGuard{})
	if mgr.Guard() == nil || mgr.Guard().Name() != "pass" {
		t.Fatal("Guard accessor broken")
	}
	id, err := mgr.CreateInstance()
	if err != nil {
		t.Fatal(err)
	}
	// EncoderFor surfaces the guard's codec.
	codec, err := mgr.EncoderFor(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := codec.(PlainCodec); !ok {
		t.Fatalf("codec = %T", codec)
	}
	if _, err := mgr.EncoderFor(id + 99); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("unknown instance err = %v", err)
	}
	// OnDispatch observers fire.
	hv2, xs2, mgr2, _ := newTestRig(t, &passGuard{})
	dom := mkGuestDom(t, hv2, xs2, "t")
	id2, _ := mgr2.CreateInstance()
	mgr2.BindInstance(id2, dom)
	var seen int
	mgr2.OnDispatch(func(from xen.DomID, payload []byte) { seen++ })
	if _, err := mgr2.Dispatch(dom.ID(), dom.Launch(), extendCmd(5, 1)); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("dispatch observer fired %d times", seen)
	}
}
