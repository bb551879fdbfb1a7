// Concurrency stress: lifecycle churn (create/destroy/migrate) racing a
// steady command workload on other instances of a two-member federation.
// The per-instance dispatch model must keep the steady guests' admissions
// unaffected — no deadlock, no cross-instance admission errors — and the
// whole test runs under `go test -race`.
package cluster

import (
	"fmt"
	"sync"
	"testing"

	"xvtpm"
)

func TestConcurrentLifecycleAndWorkload(t *testing.T) {
	for _, mode := range []xvtpm.Mode{xvtpm.ModeBaseline, xvtpm.ModeImproved} {
		t.Run(mode.String(), func(t *testing.T) {
			c := testCluster(t, 2, func(cfg *Config) {
				cfg.Mode = mode
				cfg.Dom0Pages = 16384
			})
			create := func(name, kernel string) (*xvtpm.Guest, error) {
				return c.CreateGuestOn("h0", xvtpm.GuestConfig{Name: name, Kernel: []byte(kernel)})
			}

			// Steady guests: a continuous Extend stream each (Extend is the
			// worst case — it holds the instance lock across engine work AND
			// an eager checkpoint).
			const steadyGuests = 3
			steady := make([]*xvtpm.Guest, steadyGuests)
			for i := range steady {
				g, err := create(fmt.Sprintf("steady-%d", i), fmt.Sprintf("steady-k-%d", i))
				if err != nil {
					t.Fatalf("CreateGuest(steady-%d): %v", i, err)
				}
				steady[i] = g
			}

			stop := make(chan struct{})
			var steadyWg, churnWg sync.WaitGroup
			errCh := make(chan error, steadyGuests+4)
			for i, g := range steady {
				steadyWg.Add(1)
				go func(i int, g *xvtpm.Guest) {
					defer steadyWg.Done()
					m := [20]byte{byte(i)}
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

			// Churners: create a guest, exercise it, then alternately destroy
			// it locally or migrate it to the peer member and destroy it there.
			const churners = 2
			const churnIters = 4
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
						if _, err := g.TPM.GetRandom(16); err != nil {
							errCh <- fmt.Errorf("%s getrandom: %w", name, err)
							return
						}
						if n%2 == 0 {
							if err := c.DestroyGuest(name); err != nil {
								errCh <- fmt.Errorf("%s destroy: %w", name, err)
								return
							}
							continue
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
						if _, err := mg.TPM.GetRandom(16); err != nil {
							errCh <- fmt.Errorf("%s post-migrate getrandom: %w", name, err)
							return
						}
						if err := c.DestroyGuest(name); err != nil {
							errCh <- fmt.Errorf("%s destroy on dst: %w", name, err)
							return
						}
					}
				}(ch)
			}

			// Let the churn complete (or fail) under steady load, then stop
			// the steady workers; any error from either side fails the test.
			churnDone := make(chan struct{})
			go func() { churnWg.Wait(); close(churnDone) }()
			var firstErr error
			select {
			case firstErr = <-errCh:
			case <-churnDone:
			}
			close(stop)
			steadyWg.Wait()
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

			// The steady instances must still be live, bound, and admitting.
			for i, g := range steady {
				if _, err := g.TPM.PCRRead(uint32(10 + i)); err != nil {
					t.Fatalf("steady-%d post-stress PCRRead: %v", i, err)
				}
			}
		})
	}
}
