// Signing-pool stress: concurrent quote storms racing steady Extend
// traffic and create/migrate/destroy churn across the two members of a
// federation. Every quote must verify against the signing key, migrated
// guests must keep quoting on the destination member (the pool re-attach
// path for imported engines), and the whole test runs under
// `go test -race`.
//
// Per-guest ring devices serialize commands (one serve loop per device,
// and improved-mode channels are a strictly monotonic sequence stream),
// so storm quotes here exercise the deferred two-phase dispatch: the lane
// is released while the pool signs.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xvtpm"
	"xvtpm/internal/tpm"
)

func TestSignPoolStormUnderChurn(t *testing.T) {
	c := testCluster(t, 2, func(cfg *Config) { cfg.Dom0Pages = 16384 })
	h0, _ := c.Member("h0")
	h1, _ := c.Member("h1")
	src, dst := h0.Host, h1.Host
	create := func(name, kernel string) (*xvtpm.Guest, error) {
		return c.CreateGuestOn("h0", xvtpm.GuestConfig{Name: name, Kernel: []byte(kernel)})
	}

	var owner, srk, keyAuth [tpm.AuthSize]byte
	copy(owner[:], "storm-owner")
	copy(srk[:], "storm-srk")
	copy(keyAuth[:], "storm-key")
	sel := tpm.NewPCRSelection(0, 1, 10)

	// provision takes ownership of a guest's vTPM and loads one signing
	// key, returning its handle, the wrapped blob (to re-load after a
	// migration — loaded handles are volatile and do not survive one) and
	// a verified-quote helper.
	provision := func(g *xvtpm.Guest) (uint32, []byte, func(tc *tpm.Client, key uint32, n uint64) error) {
		t.Helper()
		if _, err := g.TPM.TakeOwnership(owner, srk); err != nil {
			t.Fatalf("TakeOwnership: %v", err)
		}
		blob, err := g.TPM.CreateWrapKey(tpm.KHSRK, srk, keyAuth, tpm.KeyParams{
			Usage: tpm.KeyUsageSigning, Scheme: tpm.SSRSASSAPKCS1v15SHA1, Bits: 512,
		})
		if err != nil {
			t.Fatalf("CreateWrapKey: %v", err)
		}
		key, err := g.TPM.LoadKey2(tpm.KHSRK, srk, blob)
		if err != nil {
			t.Fatalf("LoadKey2: %v", err)
		}
		pub, err := g.TPM.GetPubKey(key, keyAuth)
		if err != nil {
			t.Fatalf("GetPubKey: %v", err)
		}
		quote := func(tc *tpm.Client, key uint32, n uint64) error {
			var nonce [tpm.NonceSize]byte
			nonce[0], nonce[1], nonce[2] = byte(n), byte(n>>8), byte(n>>16)
			q, err := tc.Quote(key, keyAuth, nonce, sel)
			if err != nil {
				return err
			}
			psel, vals, err := tpm.ParseQuoteComposite(q.Composite)
			if err != nil {
				return err
			}
			return tpm.VerifySHA1(pub, tpm.QuoteInfoDigest(tpm.CompositeHash(psel, vals), nonce), q.Signature)
		}
		return key, blob, quote
	}

	stop := make(chan struct{})
	var wg, churnWg sync.WaitGroup
	errCh := make(chan error, 16)
	var quotes atomic.Int64

	// Quote storms: two guests, three concurrent streams each through the
	// guest's frontend — every signature routed through the shared pool.
	const quoteGuests = 2
	const streamsPerGuest = 3
	for gi := 0; gi < quoteGuests; gi++ {
		g, err := create(fmt.Sprintf("quote-%d", gi), fmt.Sprintf("quote-k-%d", gi))
		if err != nil {
			t.Fatalf("CreateGuest(quote-%d): %v", gi, err)
		}
		key, _, quote := provision(g)
		cli := g.TPM
		for s := 0; s < streamsPerGuest; s++ {
			wg.Add(1)
			go func(gi, s int, tc *tpm.Client) {
				defer wg.Done()
				// Each stream gets its own client over the guest's
				// transport; the engine serializes phase 1, the pool
				// overlaps the signatures.
				if s > 0 {
					tc = tpm.NewClient(tc.Transport(), nil)
				}
				for n := uint64(uint(gi)<<24 | uint(s)<<20); ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := quote(tc, key, n); err != nil {
						errCh <- fmt.Errorf("quote-%d stream %d: %w", gi, s, err)
						return
					}
					quotes.Add(1)
				}
			}(gi, s, cli)
		}
	}

	// Steady Extend traffic on separate instances: the storm must not
	// stall the cheap path.
	const steadyGuests = 2
	for i := 0; i < steadyGuests; i++ {
		g, err := create(fmt.Sprintf("steady-%d", i), fmt.Sprintf("steady-k-%d", i))
		if err != nil {
			t.Fatalf("CreateGuest(steady-%d): %v", i, err)
		}
		wg.Add(1)
		go func(i int, g *xvtpm.Guest) {
			defer wg.Done()
			m := [tpm.DigestSize]byte{byte(i)}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				m[1] = byte(n)
				if _, err := g.TPM.Extend(uint32(10+i), m); err != nil {
					errCh <- fmt.Errorf("steady-%d extend %d: %w", i, n, err)
					return
				}
			}
		}(i, g)
	}

	// Churners: create, quote, migrate to the peer member, quote again —
	// the imported engine must come back attached to dst's signing pool —
	// then destroy.
	const churners = 2
	const churnIters = 3
	for ch := 0; ch < churners; ch++ {
		churnWg.Add(1)
		go func(ch int) {
			defer churnWg.Done()
			for n := 0; n < churnIters; n++ {
				name := fmt.Sprintf("churn-%d-%d", ch, n)
				g, err := create(name, "k-"+name)
				if err != nil {
					errCh <- fmt.Errorf("%s create: %w", name, err)
					return
				}
				key, blob, quote := provision(g)
				if err := quote(g.TPM, key, uint64(n)); err != nil {
					errCh <- fmt.Errorf("%s pre-migrate quote: %w", name, err)
					return
				}
				if err := c.Migrate(name, "h1"); err != nil {
					errCh <- fmt.Errorf("%s migrate: %w", name, err)
					return
				}
				host, mg, err := c.Owner(name)
				if err != nil || host != "h1" {
					errCh <- fmt.Errorf("%s owner after migrate = %q, %v", name, host, err)
					return
				}
				// Loaded handles are volatile: re-load the wrapped key on
				// the destination before quoting there.
				key2, err := mg.TPM.LoadKey2(tpm.KHSRK, srk, blob)
				if err != nil {
					errCh <- fmt.Errorf("%s post-migrate LoadKey2: %w", name, err)
					return
				}
				if err := quote(mg.TPM, key2, uint64(n)+1000); err != nil {
					errCh <- fmt.Errorf("%s post-migrate quote: %w", name, err)
					return
				}
				if err := c.DestroyGuest(name); err != nil {
					errCh <- fmt.Errorf("%s destroy on dst: %w", name, err)
					return
				}
			}
		}(ch)
	}

	// Run the churn to completion under the storm, keep the storm up for
	// at least half a second so the pool sees sustained overlap, then stop
	// everything.
	churnDone := make(chan struct{})
	go func() { churnWg.Wait(); close(churnDone) }()
	minStorm := time.After(500 * time.Millisecond)
	var firstErr error
	select {
	case firstErr = <-errCh:
	case <-churnDone:
		select {
		case firstErr = <-errCh:
		case <-minStorm:
		}
	}
	close(stop)
	wg.Wait()
	churnWg.Wait()
	if firstErr == nil {
		select {
		case firstErr = <-errCh:
		default:
		}
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	if quotes.Load() == 0 {
		t.Fatal("storm issued no quotes")
	}
	t.Logf("storm: %d quotes verified", quotes.Load())
	sd := src.Manager.SignDebug()
	if sd == nil {
		t.Fatal("sign pool not running on src")
	}
	if sd.Errors != 0 {
		t.Fatalf("sign pool reported %d errors", sd.Errors)
	}
	if sd.Submitted == 0 {
		t.Fatalf("storm quotes bypassed the signing pool: %+v", sd)
	}
	if sd.Completed != sd.Submitted {
		t.Fatalf("pool lost responses: submitted %d, completed %d", sd.Submitted, sd.Completed)
	}
	if dd := dst.Manager.SignDebug(); dd == nil || dd.Submitted == 0 {
		t.Fatal("migrated guests' quotes did not reach dst's signing pool")
	}
}
