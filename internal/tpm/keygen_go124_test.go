//go:build go1.24

package tpm

import (
	"crypto/rsa"
	"fmt"
	"math/big"
	"testing"
)

// stdlibReader is the stream the reference crypto/rsa.GenerateKey reads: it
// answers the one-byte read that Go's randutil.MaybeReadByte makes at
// random before each prime candidate without advancing the DRBG, so Go
// draws its candidates from the bytes GenerateKey draws them from.
type stdlibReader struct{ d *drbg }

func (r stdlibReader) Read(p []byte) (int, error) {
	if len(p) == 1 {
		p[0] = 0
		return 1, nil
	}
	return r.d.Read(p)
}

// TestGenerateKeyMatchesStdlib: fed the same DRBG stream, GenerateKey makes
// the key Go 1.24's crypto/rsa.GenerateKey makes — the same N, D, primes
// and CRT values — for 20 seeds at 512 and at 1,024 bits and 3 at 2,048.
// Go 1.22's generator takes d modulo (p−1)(q−1) rather than λ(N), so the
// reference is pinned to Go 1.24's.
func TestGenerateKeyMatchesStdlib(t *testing.T) {
	for _, c := range []struct{ bits, seeds int }{{512, 20}, {1024, 20}, {2048, 3}} {
		t.Run(fmt.Sprintf("bits=%d", c.bits), func(t *testing.T) {
			for i := 0; i < c.seeds; i++ {
				seed := []byte(fmt.Sprintf("stdlib-%d-%d", c.bits, i))
				want, err := rsa.GenerateKey(stdlibReader{newDRBG(seed)}, c.bits)
				if err != nil {
					t.Fatal(err)
				}
				got, err := GenerateKey(newDRBG(seed), c.bits)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range []struct {
					name      string
					got, want *big.Int
				}{
					{"N", got.N, want.N},
					{"D", got.D, want.D},
					{"P", got.Primes[0], want.Primes[0]},
					{"Q", got.Primes[1], want.Primes[1]},
					{"Dp", got.Precomputed.Dp, want.Precomputed.Dp},
					{"Dq", got.Precomputed.Dq, want.Precomputed.Dq},
					{"Qinv", got.Precomputed.Qinv, want.Precomputed.Qinv},
				} {
					if v.got.Cmp(v.want) != 0 {
						t.Fatalf("seed %q: %s differs from crypto/rsa's", seed, v.name)
					}
				}
			}
		})
	}
}
