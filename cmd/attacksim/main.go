// Command attacksim runs the six attack scenarios of the threat model
// against a chosen access-control guard (or both) and prints the outcome of
// each — the standalone version of experiment E4.
//
// Usage:
//
//	attacksim [-mode baseline|improved|both] [-bits 512]
//
// Exit status is 0 when the outcomes match the expectation (baseline loses
// everything, improved blocks everything) and 1 otherwise, so the binary
// doubles as a regression check.
package main

import (
	"flag"
	"fmt"
	"os"

	"xvtpm"
	"xvtpm/internal/attack"
)

// factory boots seeded hosts under fixed names, so every run prints the same
// evidence; the seed mixes in the name, so source and peer keep distinct
// keys.
func factory(mode xvtpm.Mode, bits int) attack.HostFactory {
	seed := []byte("attacksim")
	return func() (*xvtpm.Host, *xvtpm.Guest, *xvtpm.Host, error) {
		h, err := xvtpm.NewHost(xvtpm.HostConfig{
			Name: "sim-" + mode.String(), Mode: mode, RSABits: bits, Seed: seed,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		g, err := h.CreateGuest(xvtpm.GuestConfig{Name: "victim", Kernel: []byte("victim-kernel")})
		if err != nil {
			return nil, nil, nil, err
		}
		peer, err := xvtpm.NewHost(xvtpm.HostConfig{
			Name: "sim-peer-" + mode.String(), Mode: mode, RSABits: bits, Seed: seed,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		return h, g, peer, nil
	}
}

func runMode(mode xvtpm.Mode, bits int) (ok bool) {
	fmt.Printf("== attacks vs %s guard ==\n", mode)
	results, err := attack.RunMatrix(factory(mode, bits))
	if err != nil {
		fmt.Fprintf(os.Stderr, "attack run failed: %v\n", err)
		return false
	}
	ok = true
	for _, r := range results {
		fmt.Printf("  %s\n", r)
		wantSuccess := mode == xvtpm.ModeBaseline
		if r.Succeeded != wantSuccess {
			ok = false
		}
	}
	fmt.Println()
	return ok
}

func main() {
	modeFlag := flag.String("mode", "both", "guard under attack: baseline, improved or both")
	bits := flag.Int("bits", 512, "RSA modulus size")
	flag.Parse()

	ok := true
	switch *modeFlag {
	case "baseline":
		ok = runMode(xvtpm.ModeBaseline, *bits)
	case "improved":
		ok = runMode(xvtpm.ModeImproved, *bits)
	case "both":
		ok = runMode(xvtpm.ModeBaseline, *bits) && runMode(xvtpm.ModeImproved, *bits)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "UNEXPECTED OUTCOMES (see above)")
		os.Exit(1)
	}
	fmt.Println("all outcomes as expected: baseline compromised, improved holds")
}
