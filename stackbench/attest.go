package main

import (
	"crypto/sha1"
	"errors"
	"fmt"
	"io"

	"xvtpm"
	"xvtpm/internal/attest"
	"xvtpm/internal/tpm"
)

// bootPCRs are the registers each attest guest measures its boot chain into
// at set-up; every quote covers them.
var bootPCRs = []int{0, 1, 2}

func secret(label string) (a [tpm.AuthSize]byte) {
	h := sha1.Sum([]byte("stackbench|" + label))
	copy(a[:], h[:])
	return a
}

var (
	ownerAuth = secret("owner")
	srkAuth   = secret("srk")
	aikAuth   = secret("aik")
)

type attestGuest struct {
	g      *xvtpm.Guest
	cli    *tpm.Client
	v      *attest.Verifier
	cert   *attest.AIKCert
	handle uint32
}

// quoteCheck verifies one quote. The attest workload uses
// (*attest.Verifier).VerifyQuote; self-tests substitute a check against the
// wrong nonce.
type quoteCheck func(v *attest.Verifier, cert *attest.AIKCert, nonce [tpm.NonceSize]byte, q *tpm.QuoteResult) error

type attestSys struct {
	host   *xvtpm.Host
	guests []*attestGuest
	sel    tpm.PCRSelection
	check  quoteCheck
}

func attestNext(r *rng, mine []int) op {
	return op{guest: mine[r.intn(len(mine))]}
}

// bootAttest provisions each guest as a cloud verifier expects to find it:
// owned, boot chain measured, AIK enrolled with a privacy CA.
func bootAttest(seed uint64, guests int) (system, error) {
	h, err := newHost()
	if err != nil {
		return nil, err
	}
	s := &attestSys{host: h, sel: tpm.NewPCRSelection(bootPCRs...), check: (*attest.Verifier).VerifyQuote}
	ca, err := attest.NewPrivacyCA(0)
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	r := newRNG(seed, "guests|attest")
	for i := 0; i < guests; i++ {
		ag, err := s.provision(ca, &r, i)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("provisioning guest %d: %w", i, err), s.close())
		}
		// Warm-up: one verified quote.
		if err := s.quote(nil, ag); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up quote on guest %d: %w", i, err), s.close())
		}
	}
	return s, nil
}

func (s *attestSys) provision(ca *attest.PrivacyCA, r *rng, i int) (*attestGuest, error) {
	g, err := s.host.CreateGuest(guestSpec(r, i))
	if err != nil {
		return nil, err
	}
	ag := &attestGuest{g: g, cli: g.TPM}
	s.guests = append(s.guests, ag)
	ekPub, err := g.TPM.ReadPubek()
	if err != nil {
		return nil, err
	}
	if _, err := g.TPM.TakeOwnership(ownerAuth, srkAuth); err != nil {
		return nil, err
	}
	expected := make(map[int][tpm.DigestSize]byte, len(bootPCRs))
	for _, pcr := range bootPCRs {
		v, err := g.TPM.Extend(uint32(pcr), r.digest())
		if err != nil {
			return nil, err
		}
		expected[pcr] = v
	}
	ag.cert, ag.handle, err = attest.Enroll(g.TPM, ca, ekPub, ownerAuth, srkAuth, aikAuth, g.Name+"-aik")
	if err != nil {
		return nil, err
	}
	ag.v = attest.NewVerifier(ca.PublicKey(), expected)
	return ag, nil
}

func (s *attestSys) trace(c *client) {
	for _, i := range c.mine {
		ag := s.guests[i]
		ag.cli = tracedClient(ag.g, s.host, c.tr)
	}
}

// quote is one attestation round: the verifier's fresh nonce, OIAP and Quote
// on the guest's vTPM, then the verifier's check of the quote.
func (s *attestSys) quote(t *tracer, ag *attestGuest) error {
	nonce, err := ag.v.Challenge()
	if err != nil {
		return fmt.Errorf("challenge: %w", err)
	}
	q, err := ag.cli.Quote(ag.handle, aikAuth, nonce, s.sel)
	if err != nil {
		return fmt.Errorf("quote: %w", err)
	}
	if t == nil {
		return s.check(ag.v, ag.cert, nonce, q)
	}
	idx := t.open(kVerify)
	err = s.check(ag.v, ag.cert, nonce, q)
	t.close(idx)
	return err
}

func (s *attestSys) do(c *client, o op) error { return s.quote(c.tr, s.guests[o.guest]) }

func (s *attestSys) verify(io.Writer) int { return 0 }

func (s *attestSys) layers(final bool) counters {
	return readHosts([]*xvtpm.Host{s.host}, final)
}

func (s *attestSys) close() error {
	var errs []error
	for _, ag := range s.guests {
		if err := s.host.DestroyGuest(ag.g); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.host.Close(); err != nil {
		errs = append(errs, fmt.Errorf("closing host: %w", err))
	}
	return errors.Join(errs...)
}
