package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"xvtpm"
	"xvtpm/internal/cluster"
)

// quickCfg keeps experiment runs small enough for the test suite while
// still validating the *shape* claims DESIGN.md makes for each table and
// figure.
func quickCfg(buf *bytes.Buffer) Config {
	return Config{RSABits: 512, Quick: true, Out: buf}
}

func TestE1ShapeAndRendering(t *testing.T) {
	var buf bytes.Buffer
	rows, err := E1PerCommand(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Baseline <= 0 || r.Improved <= 0 {
			t.Fatalf("non-positive latency in %+v", r)
		}
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("table not rendered")
	}
}

func TestE2ShapeMonotonicLoad(t *testing.T) {
	var buf bytes.Buffer
	points, err := E2Scalability(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for mode, ps := range points {
		if len(ps) == 0 {
			t.Fatalf("no points for %v", mode)
		}
		for _, p := range ps {
			if p.Throughput <= 0 {
				t.Fatalf("%v: non-positive throughput at %d guests", mode, p.Guests)
			}
		}
	}
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Fatal("series not rendered")
	}
}

func TestE3BothVariantsMeasured(t *testing.T) {
	var buf bytes.Buffer
	points, err := E3InstanceCreation(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []string{"no-pool", "ek-pool"} {
		if len(points[variant]) == 0 {
			t.Fatalf("variant %s not measured", variant)
		}
	}
}

func TestE4MatrixShape(t *testing.T) {
	var buf bytes.Buffer
	results, err := E4AttackMatrix(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results[xvtpm.ModeBaseline] {
		if !r.Succeeded {
			t.Errorf("baseline should lose %s: %s", r.Kind, r.Detail)
		}
	}
	for _, r := range results[xvtpm.ModeImproved] {
		if r.Succeeded {
			t.Errorf("improved should block %s: %s", r.Kind, r.Detail)
		}
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("matrix not rendered")
	}
}

func TestE5CacheFlattensCost(t *testing.T) {
	var buf bytes.Buffer
	points, err := E5PolicyCost(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	cached := points["cached"]
	uncached := points["uncached"]
	if len(cached) == 0 || len(uncached) == 0 {
		t.Fatal("missing variants")
	}
	// Shape: at the largest rule count, the cached decision is cheaper
	// than the uncached one.
	lastC := cached[len(cached)-1]
	lastU := uncached[len(uncached)-1]
	if lastC.Latency >= lastU.Latency {
		t.Errorf("cache not cheaper at %d rules: cached %v, uncached %v",
			lastU.Rules, lastC.Latency, lastU.Latency)
	}
}

func TestE6BothModesMigrate(t *testing.T) {
	var buf bytes.Buffer
	phases, err := E6Migration(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("phases for %d modes", len(phases))
	}
	for _, p := range phases {
		if p.Total <= 0 || p.WireBytes <= 0 {
			t.Fatalf("degenerate measurement: %+v", p)
		}
		var sum time.Duration
		for ph, d := range p.Phases {
			if d <= 0 {
				t.Fatalf("%s: phase %s not measured: %+v", p.Mode, cluster.Phase(ph), p)
			}
			sum += d
		}
		// The phases are consecutive stretches of one Migrate call.
		if sum > p.Total {
			t.Fatalf("phase accounting inconsistent: phases sum to %v, Migrate took %v: %+v", sum, p.Total, p)
		}
	}
}

func TestE7ImprovedReducesExposure(t *testing.T) {
	var buf bytes.Buffer
	points, err := E7ExposureWindow(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	base := points[xvtpm.ModeBaseline]
	impr := points[xvtpm.ModeImproved]
	if len(base) == 0 || len(impr) == 0 {
		t.Fatal("missing modes")
	}
	// Shape: the baseline's plaintext mirror makes exposure ~constant and
	// high; the improved guard's exposure must be strictly lower.
	if base[0].ExposedFraction < 0.5 {
		t.Errorf("baseline exposure %.2f, expected high (plaintext mirror always resident)",
			base[0].ExposedFraction)
	}
	if impr[0].ExposedFraction >= base[0].ExposedFraction {
		t.Errorf("improved exposure %.2f not below baseline %.2f",
			impr[0].ExposedFraction, base[0].ExposedFraction)
	}
}

func TestE9FloodLimitCutsFlooder(t *testing.T) {
	var buf bytes.Buffer
	rows, err := E9FloodControl(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]E9Row{}
	for _, r := range rows {
		byName[r.Scenario] = r
		if r.VictimThroughput <= 0 {
			t.Fatalf("degenerate victim throughput in %s", r.Scenario)
		}
	}
	// The robust shape claim (even in short quick-mode windows): the rate
	// limit cuts the flooder's admitted volume hard.
	unl := byName["flood-unlimited"].FlooderAdmitted
	lim := byName["flood-limited"].FlooderAdmitted
	// The limiter (2000/s + 200 burst over a ~300 ms quick window) can only
	// bind when the unlimited flooder actually got scheduled well past that
	// budget; under heavy instrumentation (-race) it sometimes does not.
	if unl < 1200 {
		t.Skipf("flooder admitted only %d in this window; no binding signal", unl)
	}
	if lim >= unl {
		t.Fatalf("limit did not reduce flooder volume: %d vs %d", lim, unl)
	}
}

func TestE10RecoveryRevivesEverything(t *testing.T) {
	// The shape assertion compares two sub-millisecond measurements, so a
	// single descheduling (common under -race on loaded machines) can blow
	// the band; retry the whole experiment before declaring a failure.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		var buf bytes.Buffer
		rows, err := E10Recovery(quickCfg(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatal("no rows")
		}
		if !strings.Contains(buf.String(), "E10") {
			t.Fatal("table not rendered")
		}
		lastErr = nil
		for _, r := range rows {
			if r.Baseline <= 0 || r.Improved <= 0 {
				t.Fatalf("degenerate recovery time: %+v", r)
			}
			// Shape: the envelope work is tiny against the per-instance RSA
			// validation, so improved recovery stays within 3× of baseline
			// even under scheduler noise.
			if r.Improved > 3*r.Baseline {
				lastErr = fmt.Errorf("improved recovery %v vs baseline %v at %d instances",
					r.Improved, r.Baseline, r.Instances)
				break
			}
		}
		if lastErr == nil {
			return
		}
	}
	t.Fatal(lastErr)
}

func TestE8EnvelopeOverheadSmallAndConstant(t *testing.T) {
	var buf bytes.Buffer
	rows, err := E8StorageOverhead(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PlainBytes <= 0 || r.EnvelopeBytes <= r.PlainBytes {
			t.Fatalf("envelope must add bounded overhead: %+v", r)
		}
		if r.EnvelopeBytes-r.PlainBytes > 256 {
			t.Fatalf("envelope overhead too large: %+v", r)
		}
		// The envelope is a fixed header and tag: its overhead does not
		// grow with the state it wraps.
		if d, d0 := r.EnvelopeBytes-r.PlainBytes, rows[0].EnvelopeBytes-rows[0].PlainBytes; d != d0 {
			t.Fatalf("envelope overhead %+d at %d NV areas, %+d at %d", d, r.NVAreas, d0, rows[0].NVAreas)
		}
	}
	// More NV areas → bigger blobs.
	if rows[len(rows)-1].PlainBytes <= rows[0].PlainBytes {
		t.Fatal("NV growth not reflected in blob size")
	}
	// Seeded hosts store identical blobs: a second run gives the same
	// table, byte for byte.
	again, err := E8StorageOverhead(Config{RSABits: 512, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(again) != fmt.Sprint(rows) {
		t.Fatalf("E8 rows differ between runs:\n%+v\n%+v", rows, again)
	}
}
