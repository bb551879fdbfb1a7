package xvtpm_test

import (
	"crypto/sha1"
	"fmt"
	"log"

	"xvtpm"
	"xvtpm/internal/tpm"
)

// Example walks the core flow: boot an improved-mode host, create a guest,
// measure into a PCR, take ownership and seal/unseal a secret through the
// full guarded path.
func Example() {
	host, err := xvtpm.NewHost(xvtpm.HostConfig{
		Name: "example-host", Mode: xvtpm.ModeImproved, RSABits: 512,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer host.Close()

	guest, err := host.CreateGuest(xvtpm.GuestConfig{
		Name: "app", Kernel: []byte("vmlinuz-example"),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("guard:", host.Guard().Name())

	if _, err := guest.TPM.Extend(10, sha1.Sum([]byte("app-binary"))); err != nil {
		log.Fatal(err)
	}
	owner := sha1.Sum([]byte("owner"))
	srk := sha1.Sum([]byte("srk"))
	data := sha1.Sum([]byte("data"))
	if _, err := guest.TPM.TakeOwnership(owner, srk); err != nil {
		log.Fatal(err)
	}
	blob, err := guest.TPM.Seal(tpm.KHSRK, srk, data, nil, []byte("the secret"))
	if err != nil {
		log.Fatal(err)
	}
	out, err := guest.TPM.Unseal(tpm.KHSRK, srk, data, blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unsealed: %s\n", out)
	// Output:
	// guard: improved
	// unsealed: the secret
}
