package cluster_test

import (
	"crypto/sha1"
	"fmt"
	"log"

	"xvtpm"
	"xvtpm/internal/cluster"
	"xvtpm/internal/tpm"
)

// ExampleCluster_Migrate moves a guest and its vTPM between the two members
// of a federation; sealed data created before the move unseals after it.
func ExampleCluster_Migrate() {
	c, err := cluster.New(cluster.Config{Hosts: 2, Mode: xvtpm.ModeImproved, RSABits: 512})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	guest, err := c.CreateGuestOn("h0", xvtpm.GuestConfig{Name: "mover", Kernel: []byte("k")})
	if err != nil {
		log.Fatal(err)
	}
	owner, srk, data := sha1.Sum([]byte("o")), sha1.Sum([]byte("s")), sha1.Sum([]byte("d"))
	if _, err := guest.TPM.TakeOwnership(owner, srk); err != nil {
		log.Fatal(err)
	}
	blob, err := guest.TPM.Seal(tpm.KHSRK, srk, data, nil, []byte("travels"))
	if err != nil {
		log.Fatal(err)
	}

	if err := c.Migrate("mover", "h1"); err != nil {
		log.Fatal(err)
	}
	_, moved, err := c.Owner("mover")
	if err != nil {
		log.Fatal(err)
	}
	out, err := moved.TPM.Unseal(tpm.KHSRK, srk, data, blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after migration: %s\n", out)
	// Output:
	// after migration: travels
}
