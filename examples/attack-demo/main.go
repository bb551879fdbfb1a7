// Attack demo: the paper's headline scenario, side by side. A dump-capable
// host attacker (the abstract's "CPU and memory dump software") goes after
// a guest's vTPM secrets on two otherwise identical hosts — one running the
// stock Xen vTPM access control, one running the improved design — and the
// full six-attack matrix is printed for both.
package main

import (
	"fmt"
	"log"

	"xvtpm"
	"xvtpm/internal/attack"
)

// factory boots a seeded host pair under fixed names, so every run prints
// the same evidence; the seed mixes in the name, so source and peer keep
// distinct keys.
func factory(mode xvtpm.Mode) attack.HostFactory {
	seed := []byte("attack-demo")
	return func() (*xvtpm.Host, *xvtpm.Host, error) {
		h, err := xvtpm.NewHost(xvtpm.HostConfig{
			Name: "demo-" + mode.String(), Mode: mode, RSABits: 512, Seed: seed,
		})
		if err != nil {
			return nil, nil, err
		}
		peer, err := xvtpm.NewHost(xvtpm.HostConfig{
			Name: "demo-peer-" + mode.String(), Mode: mode, RSABits: 512, Seed: seed,
		})
		if err != nil {
			return nil, nil, err
		}
		return h, peer, nil
	}
}

func main() {
	fmt.Println("The victim guest seals a secret through its vTPM; the attacker holds")
	fmt.Println("dom0 privileges (memory dumps, state files, the migration channel).")
	fmt.Println()
	for _, mode := range []xvtpm.Mode{xvtpm.ModeBaseline, xvtpm.ModeImproved} {
		fmt.Printf("=== host running %s access control ===\n", mode)
		results, err := attack.RunMatrix(factory(mode))
		if err != nil {
			log.Fatalf("attack run: %v", err)
		}
		wins := 0
		for _, r := range results {
			fmt.Printf("  %s\n", r)
			if r.Succeeded {
				wins++
			}
		}
		fmt.Printf("  → attacker won %d of %d attacks\n\n", wins, len(results))
	}
	fmt.Println("Summary: every attack that succeeds against the stock design is")
	fmt.Println("blocked by the improved access control — the paper's claim.")
}
