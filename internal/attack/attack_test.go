package attack

import (
	"fmt"
	"testing"

	"xvtpm"
	"xvtpm/internal/vtpm"
)

const testBits = 512

var hostCtr int

func factoryFor(t *testing.T, mode xvtpm.Mode) HostFactory {
	t.Helper()
	return func() (*xvtpm.Host, *xvtpm.Host, error) {
		hostCtr++
		h, err := xvtpm.NewHost(xvtpm.HostConfig{
			Name: fmt.Sprintf("atk-%s-%d", mode, hostCtr), Mode: mode, RSABits: testBits,
		})
		if err != nil {
			return nil, nil, err
		}
		hostCtr++
		peer, err := xvtpm.NewHost(xvtpm.HostConfig{
			Name: fmt.Sprintf("atk-peer-%s-%d", mode, hostCtr), Mode: mode, RSABits: testBits,
		})
		if err != nil {
			return nil, nil, err
		}
		return h, peer, nil
	}
}

// TestMatrixBaselineAllSucceed is the left column of reconstructed Table 2:
// every attack works against stock Xen vTPM access control.
func TestMatrixBaselineAllSucceed(t *testing.T) {
	results, err := RunMatrix(factoryFor(t, xvtpm.ModeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Succeeded {
			t.Errorf("%s should succeed against baseline: %s", r.Kind, r.Detail)
		}
	}
}

// TestMatrixImprovedAllBlocked is the right column: the improved design
// blocks all five attacks.
func TestMatrixImprovedAllBlocked(t *testing.T) {
	results, err := RunMatrix(factoryFor(t, xvtpm.ModeImproved))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Succeeded {
			t.Errorf("%s should be blocked by improved guard: %s", r.Kind, r.Detail)
		}
	}
}

func TestScanBytesFindsPatterns(t *testing.T) {
	data := []byte("xxxxSECRETyyyy")
	found := ScanBytes(data, []Probe{
		{Name: "hit", Pattern: []byte("SECRET")},
		{Name: "miss", Pattern: []byte("ABSENT")},
		{Name: "empty", Pattern: nil},
	})
	if len(found) != 1 || found[0] != "hit" {
		t.Fatalf("found = %v", found)
	}
}

func TestScanStoreReportsPerBlob(t *testing.T) {
	s := vtpm.NewMemStore()
	s.Put("clean", []byte("nothing here"))
	s.Put("dirty", []byte("prefix-MARKER-suffix"))
	hits, err := ScanStore(s, []Probe{{Name: "m", Pattern: []byte("MARKER")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || len(hits["dirty"]) != 1 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Kind: KindReplay, Guard: "baseline", Succeeded: true, Detail: "d"}
	if s := r.String(); s == "" {
		t.Fatal("empty string")
	}
	r2 := Result{Kind: KindReplay, Guard: "improved", Succeeded: false, Detail: "d"}
	if r.String() == r2.String() {
		t.Fatal("outcomes render identically")
	}
}
