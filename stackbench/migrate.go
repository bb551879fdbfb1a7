package main

import (
	"errors"
	"fmt"
	"io"

	"xvtpm"
	"xvtpm/internal/cluster"
)

// migratePCR is the register every migrate op extends after the move.
const migratePCR = 10

type migrateSys struct {
	c      *cluster.Cluster
	keys   []string
	sess   []*cluster.Session
	shadow [][20]byte
}

func migrateNext(r *rng, mine []int) op {
	return op{guest: mine[r.intn(len(mine))], digest: r.digest()}
}

// bootMigrate boots a two-member federation with the shipped defaults and
// places the guests round-robin across it.
func bootMigrate(seed uint64, guests int) (system, error) {
	c, err := cluster.New(cluster.Config{Hosts: 2, Mode: xvtpm.ModeImproved})
	if err != nil {
		return nil, err
	}
	s := &migrateSys{c: c}
	r := newRNG(seed, "guests|migrate")
	for i := 0; i < guests; i++ {
		spec := guestSpec(&r, i)
		if _, err := c.CreateGuest(spec); err != nil {
			return nil, errors.Join(fmt.Errorf("creating guest %d: %w", i, err), s.close())
		}
		s.keys = append(s.keys, spec.Name)
		sess := c.Session(spec.Name)
		s.sess = append(s.sess, sess)
		// Warm-up: the session learns the register's chain with its first
		// extend.
		d := r.digest()
		v, err := sess.Extend(migratePCR, d)
		if err == nil && v != extendChain([20]byte{}, d) {
			err = fmt.Errorf("PCR %d extended to %x", migratePCR, v)
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up extend on guest %d: %w", i, err), s.close())
		}
		s.shadow = append(s.shadow, v)
	}
	return s, nil
}

// trace has nothing to wire up front: each move builds a new guest, whose
// client do wraps after the move.
func (s *migrateSys) trace(*client) {}

// do moves the guest to the other member, then extends its PCR once on the
// new owner through its session and checks the chain.
func (s *migrateSys) do(c *client, o op) error {
	key := s.keys[o.guest]
	owner, _, err := s.c.Owner(key)
	if err != nil {
		return err
	}
	dst := "h0"
	if owner == "h0" {
		dst = "h1"
	}
	if c.tr == nil {
		err = s.c.Migrate(key, dst)
	} else {
		idx := c.tr.open(kMigrate)
		err = s.c.Migrate(key, dst)
		c.tr.close(idx)
		if err == nil {
			err = s.wrap(c.tr, key, dst)
		}
	}
	if err != nil {
		return fmt.Errorf("migrate %s to %s: %w", key, dst, err)
	}
	want := extendChain(s.shadow[o.guest], o.digest)
	var got [20]byte
	if c.tr == nil {
		got, err = s.sess[o.guest].Extend(migratePCR, o.digest)
	} else {
		idx := c.tr.open(kSessionExtend)
		got, err = s.sess[o.guest].Extend(migratePCR, o.digest)
		c.tr.close(idx)
	}
	if err != nil {
		return fmt.Errorf("session extend on %s: %w", key, err)
	}
	s.shadow[o.guest] = got
	if got != want {
		return fmt.Errorf("session extend on %s returned %x, shadow chain expects %x", key, got, want)
	}
	return nil
}

// wrap points the moved guest's TPM client at a timing transport, so the
// session's commands on the new owner are traced.
func (s *migrateSys) wrap(t *tracer, key, host string) error {
	_, g, err := s.c.Owner(key)
	if err != nil {
		return err
	}
	m, ok := s.c.Member(host)
	if !ok {
		return fmt.Errorf("no member %s", host)
	}
	g.TPM = tracedClient(g, m.Host, t)
	return nil
}

// verify checks every session's chain on its final owner, that exactly one
// member holds each guest and the directory agrees with it, and that the
// members hold every guest once between them.
func (s *migrateSys) verify(out io.Writer) int {
	holders := make(map[string]int)
	live := 0
	for _, m := range s.c.Members() {
		for _, g := range m.Host.Guests() {
			holders[g.Name]++
			live++
		}
	}
	bad := 0
	for i, key := range s.keys {
		host, _, err := s.c.Owner(key)
		pl, ok := s.c.Directory().Lookup(key)
		switch {
		case err != nil:
			fmt.Fprintf(out, "verify: %s has no owner: %v\n", key, err)
		case holders[key] != 1 || !ok || pl.Host != host || pl.State != cluster.Owned:
			fmt.Fprintf(out, "verify: %s held by %d members, directory %+v, record on %s\n", key, holders[key], pl, host)
		default:
			if err := s.sess[i].Verify(); err != nil {
				fmt.Fprintf(out, "verify: %s: %v\n", key, err)
			} else {
				continue
			}
		}
		bad++
	}
	if live != len(s.keys) {
		fmt.Fprintf(out, "verify: members hold %d live guests, want %d\n", live, len(s.keys))
		bad++
	}
	return bad
}

func (s *migrateSys) layers(final bool) counters {
	var hs []*xvtpm.Host
	for _, m := range s.c.Members() {
		hs = append(hs, m.Host)
	}
	c := readHosts(hs, final)
	st := s.c.ClusterStats()
	c.cluster = &st
	return c
}

func (s *migrateSys) close() error {
	var errs []error
	for _, key := range s.keys {
		if err := s.c.DestroyGuest(key); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.c.Close(); err != nil {
		errs = append(errs, fmt.Errorf("closing cluster: %w", err))
	}
	return errors.Join(errs...)
}
