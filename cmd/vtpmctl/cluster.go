package main

// Cluster mode: `vtpmctl -cluster N` boots an N-member federation
// (internal/cluster, DESIGN.md §12) instead of a single host, and swaps the
// console's command set for the federation's operational surface: placing
// and moving guests, draining and condemning members, and inspecting the
// ownership table and migration/blackout statistics the directory and
// epoch fence maintain.

import (
	"bufio"
	"crypto/sha1"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"xvtpm"
	"xvtpm/internal/cluster"
	"xvtpm/internal/metrics"
)

type clusterConsole struct {
	c        *cluster.Cluster
	reg      *metrics.Registry
	sessions map[string]*cluster.Session
	out      *bufio.Writer
}

func (cc *clusterConsole) printf(format string, args ...interface{}) {
	fmt.Fprintf(cc.out, format, args...)
}

// session returns the persistent exactly-once command handle for a key.
func (cc *clusterConsole) session(key string) *cluster.Session {
	s, ok := cc.sessions[key]
	if !ok {
		s = cc.c.Session(key)
		cc.sessions[key] = s
	}
	return s
}

func (cc *clusterConsole) handle(line string) bool {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return true
	}
	switch fields[0] {
	case "help":
		cc.printf("commands: create <name> [host] | owners | members | stats | metrics\n")
		cc.printf("          migrate <name> <host> | drain <host> | condemn <host> | evacuate <host>\n")
		cc.printf("          extend <name> <pcr> <text> | pcrread <name> <pcr> | random <name> <n>\n")
		cc.printf("          destroy <name> | quit\n")
	case "create":
		if len(fields) != 2 && len(fields) != 3 {
			cc.printf("usage: create <name> [host]\n")
			break
		}
		name := fields[1]
		spec := xvtpm.GuestConfig{Name: name, Kernel: []byte("vmlinuz-" + name), Pages: 16}
		var err error
		var g *xvtpm.Guest
		if len(fields) == 3 {
			g, err = cc.c.CreateGuestOn(fields[2], spec)
		} else {
			g, err = cc.c.CreateGuest(spec)
		}
		if err != nil {
			cc.printf("create: %v\n", err)
			break
		}
		owner, _, _ := cc.c.Owner(name)
		cc.printf("guest %q placed on %s (instance %d, epoch 1)\n", name, owner, g.Instance)
	case "owners":
		pls := make([][]string, 0, 8)
		for _, key := range cc.c.Keys() {
			pl, ok := cc.c.Directory().Lookup(key)
			if !ok {
				continue
			}
			dest := "-"
			if pl.Dest != "" {
				dest = pl.Dest
			}
			pls = append(pls, []string{
				key, pl.Host, pl.State.String(), dest,
				fmt.Sprintf("%d", pl.Epoch), fmt.Sprintf("%d", pl.LocalID),
			})
		}
		if len(pls) == 0 {
			cc.printf("(no guests)\n")
			break
		}
		metrics.Table(cc.out, "placement directory",
			[]string{"key", "host", "state", "dest", "epoch", "instance"}, pls)
	case "members":
		rows := make([][]string, 0, 4)
		for _, m := range cc.c.ClusterStats().Members {
			rows = append(rows, []string{
				m.Name, m.Fail.String(), fmt.Sprintf("%v", m.Draining),
				fmt.Sprintf("%d", m.Guests),
				fmt.Sprintf("%d", m.FenceRejects), fmt.Sprintf("%d", m.StoreRejects),
			})
		}
		metrics.Table(cc.out, "federation members",
			[]string{"member", "state", "draining", "guests", "fence rejects", "store rejects"}, rows)
	case "stats":
		st := cc.c.ClusterStats()
		cc.printf("guests=%d migrations: %d started, %d committed, %d aborted, %d transfer retries\n",
			st.Guests, st.MigStarted, st.MigCommitted, st.MigAborted, st.MigRetried)
		cc.printf("evacuated=%d instances\n", st.Evacuated)
		if st.Blackout.Count > 0 {
			cc.printf("blackout per committed move: p50 %v  p99 %v (%d moves)\n",
				st.Blackout.Quantile(0.50), st.Blackout.Quantile(0.99), st.Blackout.Count)
			line := "mean phase per committed move:"
			for p, h := range st.Phases {
				if h.Count > 0 {
					line += fmt.Sprintf(" %s %v", cluster.Phase(p), h.Sum/time.Duration(h.Count))
				}
			}
			cc.printf("%s\n", line)
		} else {
			cc.printf("blackout: no committed moves yet\n")
		}
	case "metrics":
		if err := cc.reg.WritePrometheus(cc.out); err != nil {
			cc.printf("metrics: %v\n", err)
		}
	case "migrate":
		if len(fields) != 3 {
			cc.printf("usage: migrate <name> <host>\n")
			break
		}
		start := time.Now()
		if err := cc.c.Migrate(fields[1], fields[2]); err != nil {
			cc.printf("migrate: %v\n", err)
			break
		}
		owner, _, _ := cc.c.Owner(fields[1])
		pl, _ := cc.c.Directory().Lookup(fields[1])
		cc.printf("guest %q now on %s at epoch %d (%v)\n", fields[1], owner, pl.Epoch, time.Since(start).Round(time.Microsecond))
	case "drain":
		if len(fields) != 2 {
			cc.printf("usage: drain <host>\n")
			break
		}
		ds, err := cc.c.Drain(fields[1], 16)
		if err != nil {
			cc.printf("drain: %v\n", err)
			break
		}
		cc.printf("drained %s: %d moved, %d failed in %v (%.0f moves/s)\n",
			fields[1], ds.Moved, ds.Failed, ds.Elapsed.Round(time.Millisecond), ds.Throughput())
	case "condemn":
		if len(fields) != 2 {
			cc.printf("usage: condemn <host>\n")
			break
		}
		if err := cc.c.Condemn(fields[1]); err != nil {
			cc.printf("condemn: %v\n", err)
			break
		}
		cc.printf("member %s condemned (evacuate to revive its guests)\n", fields[1])
	case "evacuate":
		if len(fields) != 2 {
			cc.printf("usage: evacuate <host>\n")
			break
		}
		es, err := cc.c.Evacuate(fields[1], 16)
		if err != nil {
			cc.printf("evacuate: %v\n", err)
			break
		}
		cc.printf("evacuated %s: %d of %d revived (%d failed) in %v; %d zombie writes rejected\n",
			fields[1], es.Revived, es.Requested, es.Failed,
			es.Elapsed.Round(time.Millisecond), es.ZombieStoreRejects)
	case "extend":
		if len(fields) != 4 {
			cc.printf("usage: extend <name> <pcr> <text>\n")
			break
		}
		pcr, err := strconv.Atoi(fields[2])
		if err != nil || pcr < 0 {
			cc.printf("bad pcr %q\n", fields[2])
			break
		}
		v, err := cc.session(fields[1]).Extend(uint32(pcr), sha1.Sum([]byte(fields[3])))
		if err != nil {
			cc.printf("extend: %v\n", err)
			break
		}
		cc.printf("PCR%d = %x\n", pcr, v)
	case "pcrread":
		if len(fields) != 3 {
			cc.printf("usage: pcrread <name> <pcr>\n")
			break
		}
		pcr, err := strconv.Atoi(fields[2])
		if err != nil || pcr < 0 {
			cc.printf("bad pcr %q\n", fields[2])
			break
		}
		v, err := cc.session(fields[1]).PCRRead(uint32(pcr))
		if err != nil {
			cc.printf("pcrread: %v\n", err)
			break
		}
		cc.printf("PCR%d = %x\n", pcr, v)
	case "random":
		if len(fields) != 3 {
			cc.printf("usage: random <name> <n>\n")
			break
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 || n > 64 {
			cc.printf("bad count %q (1..64)\n", fields[2])
			break
		}
		b, err := cc.session(fields[1]).GetRandom(n)
		if err != nil {
			cc.printf("random: %v\n", err)
			break
		}
		cc.printf("%x\n", b)
	case "destroy":
		if len(fields) != 2 {
			cc.printf("usage: destroy <name>\n")
			break
		}
		if err := cc.c.DestroyGuest(fields[1]); err != nil {
			cc.printf("destroy: %v\n", err)
			break
		}
		delete(cc.sessions, fields[1])
		cc.printf("guest %q destroyed cluster-wide\n", fields[1])
	case "quit", "exit":
		return false
	default:
		cc.printf("unknown command %q (try 'help')\n", fields[0])
	}
	return true
}

// runCluster boots the federation console and drives it from script or
// stdin, mirroring the single-host console's loop.
func runCluster(hosts, bits int, mode xvtpm.Mode, script string) error {
	c, err := cluster.New(cluster.Config{
		Hosts:     hosts,
		Mode:      mode,
		RSABits:   bits,
		Seed:      []byte("vtpmctl-cluster"),
		Dom0Pages: 1 << 16,
	})
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck // a condemned member's final flush is expected to fail
	reg := metrics.NewRegistry()
	if err := c.RegisterMetrics(reg); err != nil {
		return err
	}
	cc := &clusterConsole{
		c: c, reg: reg,
		sessions: make(map[string]*cluster.Session),
		out:      bufio.NewWriter(os.Stdout),
	}
	defer cc.out.Flush()
	cc.printf("vtpmctl: %d-member federation up (%s mode). Type 'help'.\n", hosts, mode)
	runLoop(cc.handle, cc.out, script)
	return nil
}
