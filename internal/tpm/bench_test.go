package tpm

import (
	"crypto/sha1"
	"fmt"
	"testing"
)

// benchTPM builds an owned engine + client for benchmarks.
func benchTPM(b *testing.B) (*TPM, *Client) {
	b.Helper()
	eng, err := New(Config{RSABits: 512, Seed: []byte("bench")})
	if err != nil {
		b.Fatal(err)
	}
	cli := NewClient(DirectTransport{TPM: eng}, newDRBG([]byte("bench-cli")))
	if err := cli.Startup(STClear); err != nil {
		b.Fatal(err)
	}
	if _, err := cli.TakeOwnership(ownerAuth, srkAuth); err != nil {
		b.Fatal(err)
	}
	return eng, cli
}

// BenchmarkEngineGetRandom is the floor of the engine's command dispatch.
func BenchmarkEngineGetRandom(b *testing.B) {
	_, cli := benchTPM(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.GetRandom(32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineExtend measures the PCR-extend path (no auth).
func BenchmarkEngineExtend(b *testing.B) {
	_, cli := benchTPM(b)
	m := sha1.Sum([]byte("m"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Extend(10, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSealUnseal measures the RSA-bound seal/unseal pair.
func BenchmarkEngineSealUnseal(b *testing.B) {
	_, cli := benchTPM(b)
	secret := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := cli.Seal(KHSRK, srkAuth, dataAuth, nil, secret)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cli.Unseal(KHSRK, srkAuth, dataAuth, blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineAuthSession isolates the OIAP open + one authorized
// command (the cost the session cache removes).
func BenchmarkEngineAuthSession(b *testing.B) {
	_, cli := benchTPM(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.GetPubKey(KHSRK, srkAuth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaveState measures persistent-state serialization (the unit of
// every manager checkpoint).
func BenchmarkSaveState(b *testing.B) {
	eng, _ := benchTPM(b)
	b.ReportAllocs()
	b.ResetTimer()
	var blob []byte
	for i := 0; i < b.N; i++ {
		blob = eng.SaveState()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(blob)), "state-bytes")
}

// BenchmarkRestoreState measures state revival (the unit of recovery).
func BenchmarkRestoreState(b *testing.B) {
	eng, _ := benchTPM(b)
	blob := eng.SaveState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreState(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContextSwap measures one save+load context round (resource-
// manager slot multiplexing).
func BenchmarkContextSwap(b *testing.B) {
	_, cli := benchTPM(b)
	blob, err := cli.CreateWrapKey(KHSRK, srkAuth, keyAuth, KeyParams{
		Usage: KeyUsageSigning, Scheme: SSRSASSAPKCS1v15SHA1, Bits: 512,
	})
	if err != nil {
		b.Fatal(err)
	}
	h, err := cli.LoadKey2(KHSRK, srkAuth, blob)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, err := cli.SaveContext(h)
		if err != nil {
			b.Fatal(err)
		}
		h, err = cli.LoadContext(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnmarshalPrivateKey measures setting up one restored RSA key —
// parse, CRT derivation and Go's consistency check — which every engine
// restore pays for its EK and SRK.
func BenchmarkUnmarshalPrivateKey(b *testing.B) {
	for _, bits := range []int{DefaultRSABits, 2048} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			blob := marshalPrivateKey(seededKey(b, bits, fmt.Sprintf("bench-key-%d", bits)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := unmarshalPrivateKey(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
