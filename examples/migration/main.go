// Live migration: move a guest and its vTPM between the two members of a
// federation. The guest seals a secret on h0, migrates through the fenced
// two-phase handoff (Cluster.Migrate), and unseals it on h1 — the vTPM
// state travels intact. With the improved guard the state crosses between
// hosts encrypted to h1's hardware-TPM-resident bind key; examples/attack-demo
// shows what an eavesdropper on that transfer sees in each mode.
package main

import (
	"crypto/sha1"
	"fmt"
	"log"

	"xvtpm"
	"xvtpm/internal/cluster"
	"xvtpm/internal/tpm"
)

func auth(s string) (a [tpm.AuthSize]byte) {
	h := sha1.Sum([]byte(s))
	copy(a[:], h[:])
	return a
}

func run(mode xvtpm.Mode) {
	fmt.Printf("=== migration under %s access control ===\n", mode)
	c, err := cluster.New(cluster.Config{Hosts: 2, Mode: mode, RSABits: 512})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	guest, err := c.CreateGuestOn("h0", xvtpm.GuestConfig{Name: "stateful-vm", Kernel: []byte("vmlinuz-app")})
	if err != nil {
		log.Fatal(err)
	}
	ownerAuth, srkAuth, dataAuth := auth("o"), auth("s"), auth("d")
	if _, err := guest.TPM.TakeOwnership(ownerAuth, srkAuth); err != nil {
		log.Fatal(err)
	}
	if _, err := guest.TPM.Extend(9, sha1.Sum([]byte("pre-migration-state"))); err != nil {
		log.Fatal(err)
	}
	sealed, err := guest.TPM.Seal(tpm.KHSRK, srkAuth, dataAuth, nil, []byte("travels-with-the-vm"))
	if err != nil {
		log.Fatal(err)
	}
	pcrBefore, _ := guest.TPM.PCRRead(9)
	fmt.Printf("on h0: sealed a secret, PCR9 = %x…\n", pcrBefore[:8])

	if err := c.Migrate("stateful-vm", "h1"); err != nil {
		log.Fatalf("migrate: %v", err)
	}
	host, migrated, err := c.Owner("stateful-vm")
	if err != nil {
		log.Fatal(err)
	}
	pl, _ := c.Directory().Lookup("stateful-vm")
	fmt.Printf("migrated to %s at ownership epoch %d: new dom%d, new instance %d\n",
		host, pl.Epoch, migrated.Dom.ID(), migrated.Instance)

	// State integrity: PCRs and sealed data survived.
	pcrAfter, err := migrated.TPM.PCRRead(9)
	if err != nil || pcrAfter != pcrBefore {
		log.Fatalf("PCR state lost: %v", err)
	}
	secret, err := migrated.TPM.Unseal(tpm.KHSRK, srkAuth, dataAuth, sealed)
	if err != nil {
		log.Fatalf("unseal after migration: %v", err)
	}
	fmt.Printf("secret unsealed on the destination: %q\n\n", secret)
}

func main() {
	run(xvtpm.ModeBaseline)
	run(xvtpm.ModeImproved)
}
