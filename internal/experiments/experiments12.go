package experiments

// E20 — signing pool (extension; DESIGN.md §14). The signing pool moves
// RSA private-key operations off the dispatch critical path: quotes
// snapshot their digest under the instance lock, release it, and complete
// when a pooled worker delivers the plain signature. E20 proves the pooled
// quote verifies like the inline one and measures what the pools cost:
//
//   - Quote cost: per-quote cost inline vs pooled, measured end-to-end
//     through AIK enrollment and attest.Verifier — every quote must
//     verify, with zero equivalence failures.
//   - Fleet create: instance creation against the background-replenished
//     key pool vs cold keygen (the E3 ablation at fleet granularity).

import (
	"fmt"
	"time"

	"xvtpm"
	"xvtpm/internal/attest"
	"xvtpm/internal/metrics"
	"xvtpm/internal/tpm"
)

// E20Report is the measured summary.
type E20Report struct {
	// Real-engine quote cost, end to end (enroll-verified), in µs.
	InlineQuoteUs float64
	PooledQuoteUs float64
	// Attestation outcomes over every quote issued above.
	QuotesVerified      int
	EquivalenceFailures int

	// Fleet create against the background key pool.
	FleetN           int
	CreateNoPoolSecs float64
	CreatePoolSecs   float64
	CreateSpeedup    float64
}

// e20Rig is one direct-transport engine with an enrolled AIK and a
// pinned verifier: the full attestation loop of examples/attestation,
// minus the guest transport, so the quote path under test is the engine
// plus (optionally) the signing pool.
type e20Rig struct {
	cli      *tpm.Client
	verifier *attest.Verifier
	cert     *attest.AIKCert
	aik      uint32
	aikAuth  [tpm.AuthSize]byte
	sel      tpm.PCRSelection
}

func newE20Rig(bits int, seed string, pool *tpm.SignPool) (*e20Rig, error) {
	eng, err := tpm.NewEngine(tpm.Profile12, tpm.Config{
		RSABits: bits, Seed: []byte(seed), Signer: pool,
	})
	if err != nil {
		return nil, err
	}
	cli := tpm.NewClient(tpm.DirectTransport{TPM: eng}, nil)
	if err := cli.Startup(tpm.STClear); err != nil {
		return nil, err
	}
	ekPub, err := cli.ReadPubek()
	if err != nil {
		return nil, err
	}
	var owner, srk, aikAuth [tpm.AuthSize]byte
	copy(owner[:], "e20-owner")
	copy(srk[:], "e20-srk")
	copy(aikAuth[:], "e20-aik")
	if _, err := cli.TakeOwnership(owner, srk); err != nil {
		return nil, err
	}
	ca, err := attest.NewPrivacyCA(bits)
	if err != nil {
		return nil, err
	}
	cert, aik, err := attest.Enroll(cli, ca, ekPub, owner, srk, aikAuth, "e20-aik")
	if err != nil {
		return nil, fmt.Errorf("enrollment: %w", err)
	}
	return &e20Rig{
		cli: cli, verifier: attest.NewVerifier(ca.PublicKey(), nil),
		cert: cert, aik: aik, aikAuth: aikAuth,
		sel: tpm.NewPCRSelection(0, 1, 10),
	}, nil
}

// quote runs one challenge → quote → verify round trip.
func (r *e20Rig) quote() error {
	nonce, err := r.verifier.Challenge()
	if err != nil {
		return err
	}
	q, err := r.cli.Quote(r.aik, r.aikAuth, nonce, r.sel)
	if err != nil {
		return err
	}
	return r.verifier.VerifyQuote(r.cert, nonce, q)
}

// E20SignPool runs the two phases and renders the summary table.
func E20SignPool(cfg Config) (*E20Report, error) {
	rep := &E20Report{}
	var err error

	// Phase 1 — real engine, end to end through the attest package.
	reps := cfg.reps(60, 8)
	seqRun := func(seed string, pool *tpm.SignPool) (float64, error) {
		rig, err := newE20Rig(cfg.bits(), seed, pool)
		if err != nil {
			return 0, err
		}
		rec := metrics.NewRecorder()
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := rig.quote(); err != nil {
				rep.EquivalenceFailures++
				return 0, err
			}
			rec.Add(time.Since(start))
			rep.QuotesVerified++
		}
		return float64(rec.Percentile(50).Nanoseconds()) / 1e3, nil
	}
	if rep.InlineQuoteUs, err = seqRun("e20-inline", nil); err != nil {
		return nil, fmt.Errorf("E20 inline quotes: %w", err)
	}
	pool := tpm.NewSignPool(tpm.SignPoolConfig{})
	rep.PooledQuoteUs, err = seqRun("e20-pooled", pool)
	pool.Close()
	if err != nil {
		return nil, fmt.Errorf("E20 pooled quotes: %w", err)
	}

	// Phase 2 — fleet create with and without the background key pool.
	rep.FleetN = cfg.reps(32, 6)
	for _, poolSize := range []int{0, rep.FleetN} {
		h, err := newHost(cfg, xvtpm.ModeImproved, func(hc *xvtpm.HostConfig) {
			hc.EKPoolSize = poolSize
			hc.Dom0Pages = 32768
		})
		if err != nil {
			return nil, fmt.Errorf("E20 fleet host: %w", err)
		}
		if poolSize > 0 {
			// Let the background filler stock the pool, as a host that has
			// been up for more than a burst would be.
			time.Sleep(cfg.durOrQuick(500*time.Millisecond, 100*time.Millisecond))
		}
		start := time.Now()
		for i := 0; i < rep.FleetN; i++ {
			if _, err := h.Manager.CreateInstance(); err != nil {
				h.Close() //nolint:errcheck // error path
				return nil, fmt.Errorf("E20 fleet create: %w", err)
			}
		}
		secs := time.Since(start).Seconds()
		if poolSize == 0 {
			rep.CreateNoPoolSecs = secs
		} else {
			rep.CreatePoolSecs = secs
		}
		h.Close()
	}
	if rep.CreatePoolSecs > 0 {
		rep.CreateSpeedup = rep.CreateNoPoolSecs / rep.CreatePoolSecs
	}

	if cfg.Out != nil {
		row := func(metric, value string) []string { return []string{metric, value} }
		metrics.Table(cfg.Out, "E20 (extension) — signing pool: offloaded quotes, key pool",
			[]string{"metric", "value"}, [][]string{
				row("quote+verify median", fmt.Sprintf("inline %.0fµs, pooled %.0fµs", rep.InlineQuoteUs, rep.PooledQuoteUs)),
				row("attestation", fmt.Sprintf("%d verified, %d failures",
					rep.QuotesVerified, rep.EquivalenceFailures)),
				row("fleet create", fmt.Sprintf("%d instances: %.3fs cold keygen → %.3fs key pool (%.1fx)",
					rep.FleetN, rep.CreateNoPoolSecs, rep.CreatePoolSecs, rep.CreateSpeedup)),
			})
	}
	return rep, nil
}
