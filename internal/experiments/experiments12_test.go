package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestE20SignPoolShape(t *testing.T) {
	var buf bytes.Buffer
	rep, err := E20SignPool(quickCfg(&buf))
	if err != nil {
		t.Fatalf("E20: %v", err)
	}
	if rep.EquivalenceFailures != 0 {
		t.Fatalf("%d quotes failed verification", rep.EquivalenceFailures)
	}
	if rep.QuotesVerified == 0 {
		t.Fatal("no quote verified")
	}
	if rep.InlineQuoteUs <= 0 || rep.PooledQuoteUs <= 0 {
		t.Fatalf("missing quote-cost measurements: inline %.0f pooled %.0f",
			rep.InlineQuoteUs, rep.PooledQuoteUs)
	}
	if rep.CreateNoPoolSecs <= 0 || rep.CreatePoolSecs < 0 || rep.FleetN == 0 {
		t.Fatalf("fleet-create phase did not run: %d instances, %.3fs/%.3fs",
			rep.FleetN, rep.CreateNoPoolSecs, rep.CreatePoolSecs)
	}
	out := buf.String()
	for _, want := range []string{"E20", "quote+verify median", "attestation", "fleet create"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}
