package main

import (
	"crypto/sha1"
	"errors"
	"fmt"
	"io"

	"xvtpm"
	"xvtpm/internal/tpm"
)

// Op kinds of the measure workload.
const (
	opExtend uint8 = iota
	opPCRRead
	opRandom
)

// measurePCRs are the registers the measure workload extends: the static,
// locality-0 PCRs above the boot chain, all zero after TPM startup.
const (
	measurePCRBase = 8
	measurePCRs    = 8
)

// extendChain is the TPM 1.2 extend function: SHA1(old ∥ digest).
func extendChain(old, digest [20]byte) [20]byte {
	var buf [40]byte
	copy(buf[:20], old[:])
	copy(buf[20:], digest[:])
	return sha1.Sum(buf[:])
}

// guestSpec draws guest i's name and kernel image from the seed.
func guestSpec(r *rng, i int) xvtpm.GuestConfig {
	return xvtpm.GuestConfig{
		Name:   fmt.Sprintf("g%02d-%08x", i, uint32(r.next())),
		Kernel: append([]byte("vmlinuz-"), r.bytes(56)...),
	}
}

// newHost boots a host with the shipped defaults: only the name and the
// improved guard are set.
func newHost() (*xvtpm.Host, error) {
	return xvtpm.NewHost(xvtpm.HostConfig{Name: "stackbench", Mode: xvtpm.ModeImproved})
}

// tracedClient is a TPM client whose commands are timed as client.transmit
// spans on the tracer.
func tracedClient(g *xvtpm.Guest, h *xvtpm.Host, t *tracer) *tpm.Client {
	return tpm.NewClient(&timingTransport{next: g.Frontend, tr: t, lane: lane{h.Manager, g.Instance}}, nil)
}

type measureGuest struct {
	g      *xvtpm.Guest
	cli    *tpm.Client
	shadow [measurePCRs][20]byte
}

type measureSys struct {
	host   *xvtpm.Host
	guests []*measureGuest
}

func measureNext(r *rng, mine []int) op {
	o := op{guest: mine[r.intn(len(mine))], pcr: uint32(measurePCRBase + r.intn(measurePCRs))}
	switch x := r.intn(100); {
	case x < 70:
		o.kind = opExtend
		o.digest = r.digest()
	case x < 85:
		o.kind = opPCRRead
	default:
		o.kind = opRandom
		o.size = 8 + r.intn(57)
	}
	return o
}

func bootMeasure(seed uint64, guests int) (system, error) {
	h, err := newHost()
	if err != nil {
		return nil, err
	}
	s := &measureSys{host: h}
	r := newRNG(seed, "guests|measure")
	for i := 0; i < guests; i++ {
		g, err := h.CreateGuest(guestSpec(&r, i))
		if err != nil {
			return nil, errors.Join(fmt.Errorf("creating guest %d: %w", i, err), s.close())
		}
		mg := &measureGuest{g: g, cli: g.TPM}
		s.guests = append(s.guests, mg)
		// Warm-up: the first register must read zero, as the shadow assumes.
		v, err := g.TPM.PCRRead(measurePCRBase)
		if err != nil || v != [20]byte{} {
			return nil, errors.Join(fmt.Errorf("warm-up read on guest %d: %x, %v", i, v, err), s.close())
		}
	}
	return s, nil
}

func (s *measureSys) trace(c *client) {
	for _, i := range c.mine {
		mg := s.guests[i]
		mg.cli = tracedClient(mg.g, s.host, c.tr)
	}
}

func (s *measureSys) do(c *client, o op) error {
	mg := s.guests[o.guest]
	reg := &mg.shadow[o.pcr-measurePCRBase]
	switch o.kind {
	case opExtend:
		want := extendChain(*reg, o.digest)
		got, err := mg.cli.Extend(o.pcr, o.digest)
		if err != nil {
			if v, rerr := mg.cli.PCRRead(o.pcr); rerr == nil {
				*reg = v
			}
			return fmt.Errorf("extend PCR %d: %w", o.pcr, err)
		}
		if got != want {
			*reg = got
			return fmt.Errorf("extend PCR %d returned %x, shadow chain expects %x", o.pcr, got, want)
		}
		*reg = want
	case opPCRRead:
		got, err := mg.cli.PCRRead(o.pcr)
		if err != nil {
			return fmt.Errorf("read PCR %d: %w", o.pcr, err)
		}
		if got != *reg {
			want := *reg
			*reg = got
			return fmt.Errorf("PCR %d reads %x, shadow chain expects %x", o.pcr, got, want)
		}
	case opRandom:
		b, err := mg.cli.GetRandom(o.size)
		if err != nil {
			return fmt.Errorf("get random: %w", err)
		}
		if len(b) != o.size {
			return fmt.Errorf("get random returned %d bytes, asked %d", len(b), o.size)
		}
	}
	return nil
}

// verify reads every register of every guest back against its shadow.
func (s *measureSys) verify(out io.Writer) int {
	bad := 0
	for i, mg := range s.guests {
		for k := range mg.shadow {
			v, err := mg.g.TPM.PCRRead(uint32(measurePCRBase + k))
			if err != nil || v != mg.shadow[k] {
				fmt.Fprintf(out, "verify: guest %d PCR %d reads %x (%v), shadow %x\n", i, measurePCRBase+k, v, err, mg.shadow[k])
				bad++
				break
			}
		}
	}
	return bad
}

func (s *measureSys) layers(final bool) counters {
	return readHosts([]*xvtpm.Host{s.host}, final)
}

func (s *measureSys) close() error {
	var errs []error
	for _, mg := range s.guests {
		if err := s.host.DestroyGuest(mg.g); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.host.Close(); err != nil {
		errs = append(errs, fmt.Errorf("closing host: %w", err))
	}
	return errors.Join(errs...)
}
