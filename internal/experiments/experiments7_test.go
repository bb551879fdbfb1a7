package experiments

import (
	"bytes"
	"strings"
	"testing"

	"xvtpm/internal/vtpm"
)

func TestE12AllPoliciesMeasuredAndLeakFree(t *testing.T) {
	var buf bytes.Buffer
	rows, err := E12CheckpointPolicy(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 policy rows, got %d", len(rows))
	}
	seen := make(map[vtpm.CheckpointPolicy]bool)
	for _, r := range rows {
		seen[r.Policy] = true
		if r.Throughput <= 0 {
			t.Fatalf("%s: non-positive throughput", r.Policy)
		}
		if r.ThroughputMin > r.Throughput || r.Throughput > r.ThroughputMax {
			t.Fatalf("%s: median %.0f outside its range %.0f–%.0f",
				r.Policy, r.Throughput, r.ThroughputMin, r.ThroughputMax)
		}
		if r.Checkpoints == 0 || r.Bytes == 0 {
			// Every run ends with a forced CheckpointAll, so even deferred
			// must have written protected state.
			t.Fatalf("%s: no checkpoints recorded (ckpts=%d bytes=%d)", r.Policy, r.Checkpoints, r.Bytes)
		}
		if r.LeakedBlobs != 0 {
			t.Fatalf("%s: %d stored blobs carry plaintext state magic", r.Policy, r.LeakedBlobs)
		}
	}
	for _, pol := range []vtpm.CheckpointPolicy{vtpm.CheckpointEager, vtpm.CheckpointWriteback, vtpm.CheckpointDeferred} {
		if !seen[pol] {
			t.Fatalf("policy %s missing from rows", pol)
		}
	}
	if !strings.Contains(buf.String(), "E12") {
		t.Fatal("table not rendered")
	}
}
