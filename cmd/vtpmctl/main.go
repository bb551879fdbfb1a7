// Command vtpmctl is an interactive management console for a simulated
// host: the xm/vtpm-manager front-end of this reproduction. It boots one
// host and accepts commands on stdin to create guests, drive their vTPMs,
// edit the access-control policy at runtime and inspect the audit log.
//
// Usage:
//
//	vtpmctl [-mode improved] [-bits 512] [-store flat|log] [-cluster N] [-script "cmd; cmd; ..."]
//
// Commands: help, create <name> [profile], list, extend <name> <pcr> <text>,
// suspend/resume <name>, ratelimit <name> <n>, anchor, verify-audit,
// pcrread <name> <pcr>, random <name> <n>, deny <name> <group>,
// allow <name> <group>, audit [n], top [--profile 1.2|2.0],
// load <offered-cps> <duration> [slots] (open-loop load with CO-safe
// latency into dedicated load sessions), spans <name> [n],
// checkpoint <name>, destroy <name>, quit.
//
// With -cluster N the console boots an N-member federation instead and
// exposes its operational surface: placement, fenced migration, drain,
// condemnation and evacuation, the ownership table, and migration/blackout
// statistics (see cluster.go).
package main

import (
	"bufio"
	"crypto/sha1"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"xvtpm"
	"xvtpm/internal/core"
	"xvtpm/internal/loadgen"
	"xvtpm/internal/metrics"
	"xvtpm/internal/tpm"
	"xvtpm/internal/workload"
)

type console struct {
	host   *xvtpm.Host
	guests map[string]*xvtpm.Guest
	out    *bufio.Writer
	// lastLoad is the most recent `load` run's report; `top` renders it.
	lastLoad *loadgen.Report
}

func (c *console) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.out, format, args...)
}

func (c *console) guest(name string) (*xvtpm.Guest, bool) {
	g, ok := c.guests[name]
	if !ok {
		c.printf("no guest %q (try 'list')\n", name)
	}
	return g, ok
}

func groupByName(s string) (core.Group, bool) {
	for _, g := range []core.Group{
		core.GroupAdmin, core.GroupPCR, core.GroupAttest, core.GroupSealing,
		core.GroupKeys, core.GroupOwnership, core.GroupNV, core.GroupRandom,
	} {
		if string(g) == s {
			return g, true
		}
	}
	return "", false
}

func (c *console) policyRule(name, groupName string, effect core.Effect) {
	g, ok := c.guest(name)
	if !ok {
		return
	}
	ig, isImproved := c.host.ImprovedGuard()
	if !isImproved {
		c.printf("the baseline guard has no policy to edit — that is its weakness\n")
		return
	}
	group, ok := groupByName(groupName)
	if !ok {
		c.printf("unknown group %q (admin, pcr, attest, sealing, keys, ownership, nv, random)\n", groupName)
		return
	}
	ig.Policy().Prepend(core.Rule{
		Identity: g.Dom.Launch(), Instance: g.Instance, Group: group, Effect: effect,
	})
	c.printf("%s %s for %s (rule prepended, %d rules total)\n", effect, group, name, ig.Policy().Len())
}

// runLoad is the console's open-loop load command: dedicated load slots
// are opened (3:1 across the profiles when the host defaults to 1.2), a
// simulated 10k-guest fleet offers traffic at the requested rate, and the
// CO-safe report prints. `top` keeps showing the last run.
func (c *console) runLoad(offered float64, dur time.Duration, nSlots int) {
	var slots []loadgen.Slot
	var opened []*xvtpm.LoadSlot
	defer func() {
		for _, ls := range opened {
			if err := c.host.CloseLoadSlot(ls); err != nil {
				c.printf("load: closing slot: %v\n", err)
			}
		}
	}()
	for i := 0; i < nSlots; i++ {
		profile := tpm.AnyProfile
		if i%4 == 3 {
			profile = tpm.Profile20
		}
		ls, err := c.host.OpenLoadSlot(fmt.Sprintf("ctl-load-%d", i), profile)
		if err != nil {
			c.printf("load: opening slot %d: %v\n", i, err)
			return
		}
		opened = append(opened, ls)
		if ls.Profile == tpm.Profile20 {
			cli := ls.TPM2
			ctr := 0
			step := func(op workload.Op) error {
				switch op {
				case workload.OpExtend:
					ctr++
					return cli.Extend(10+ctr%6, []byte("ctl-load-event"))
				case workload.OpQuote:
					_, _, err := cli.Quote([]byte("ctl-load-nonce"), []int{0, 1, 10})
					return err
				default:
					_, err := cli.GetRandom(32)
					return err
				}
			}
			slots = append(slots, loadgen.Slot{Step: step, Mix: loadgen.Mix20})
		} else {
			runner, err := workload.Prepare(ls.TPM, 9000+i, 0)
			if err != nil {
				c.printf("load: preparing slot %d: %v\n", i, err)
				return
			}
			slots = append(slots, loadgen.Slot{Step: runner.Step, Mix: loadgen.Mix12})
		}
	}
	rep, err := loadgen.Run(loadgen.Config{
		Guests: 10_000, Offered: offered, Duration: dur, Seed: 23, Slots: slots,
	})
	if err != nil {
		c.printf("load: %v\n", err)
		return
	}
	c.lastLoad = rep
	c.printf("load: %d simulated guests on %d slots for %v\n", rep.Guests, rep.Slots, dur)
	c.printf("  %s\n", rep)
	for _, st := range rep.PerOp {
		c.printf("  %-9s %7d ops  %5.1f%% in SLO (%v)  p99 %v\n",
			st.Op, st.Count, 100*st.Attained, st.SLO, st.P99)
	}
}

func (c *console) handle(line string) bool {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return true
	}
	switch fields[0] {
	case "help":
		c.printf("commands: create <name> [1.2|2.0] | list | extend <name> <pcr> <text> | pcrread <name> <pcr>\n")
		c.printf("          random <name> <n> | deny <name> <group> | allow <name> <group>\n")
		c.printf("          audit [n] | anchor | verify-audit | ratelimit <name> <n> | stats\n")
		c.printf("          load <offered-cps> <duration> [slots] | top [--profile 1.2|2.0] | spans <name> [n]\n")
		c.printf("          suspend <name> | resume <name> | checkpoint <name> | destroy <name> | quit\n")
	case "create":
		if len(fields) != 2 && len(fields) != 3 {
			c.printf("usage: create <name> [1.2|2.0]\n")
			break
		}
		name := fields[1]
		if _, exists := c.guests[name]; exists {
			c.printf("guest %q already exists\n", name)
			break
		}
		var profile tpm.Profile
		if len(fields) == 3 {
			p, err := tpm.ParseProfile(fields[2])
			if err != nil {
				c.printf("create: %v\n", err)
				break
			}
			profile = p
		}
		g, err := c.host.CreateGuest(xvtpm.GuestConfig{Name: name, Kernel: []byte("vmlinuz-" + name), Profile: profile})
		if err != nil {
			c.printf("create: %v\n", err)
			break
		}
		c.guests[name] = g
		c.printf("guest %q: dom%d, vtpm instance %d (TPM %s), launch %.16s…\n",
			name, g.Dom.ID(), g.Instance, g.Profile, g.Dom.Launch().String())
	case "list":
		if len(c.guests) == 0 {
			c.printf("(no guests)\n")
		}
		for name, g := range c.guests {
			c.printf("%-12s dom%-3d instance %-3d tpm %-4s state %v\n", name, g.Dom.ID(), g.Instance, g.Profile, g.Dom.State())
		}
	case "extend":
		if len(fields) != 4 {
			c.printf("usage: extend <name> <pcr> <text>\n")
			break
		}
		g, ok := c.guest(fields[1])
		if !ok {
			break
		}
		pcr, err := strconv.Atoi(fields[2])
		if err != nil {
			c.printf("bad pcr %q\n", fields[2])
			break
		}
		if g.Profile == tpm.Profile20 {
			if err := g.TPM2.Extend(pcr, []byte(fields[3])); err != nil {
				c.printf("extend: %v\n", err)
				break
			}
			v, _, err := g.TPM2.PCRRead(tpm.TPM2AlgSHA256, pcr)
			if err != nil {
				c.printf("extend: %v\n", err)
				break
			}
			c.printf("PCR%d (sha256 bank) = %x\n", pcr, v)
			break
		}
		v, err := g.TPM.Extend(uint32(pcr), sha1.Sum([]byte(fields[3])))
		if err != nil {
			c.printf("extend: %v\n", err)
			break
		}
		c.printf("PCR%d = %x\n", pcr, v)
	case "pcrread":
		if len(fields) != 3 {
			c.printf("usage: pcrread <name> <pcr>\n")
			break
		}
		g, ok := c.guest(fields[1])
		if !ok {
			break
		}
		pcr, err := strconv.Atoi(fields[2])
		if err != nil {
			c.printf("bad pcr %q\n", fields[2])
			break
		}
		if g.Profile == tpm.Profile20 {
			v, _, err := g.TPM2.PCRRead(tpm.TPM2AlgSHA256, pcr)
			if err != nil {
				c.printf("pcrread: %v\n", err)
				break
			}
			c.printf("PCR%d (sha256 bank) = %x\n", pcr, v)
			break
		}
		v, err := g.TPM.PCRRead(uint32(pcr))
		if err != nil {
			c.printf("pcrread: %v\n", err)
			break
		}
		c.printf("PCR%d = %x\n", pcr, v)
	case "random":
		if len(fields) != 3 {
			c.printf("usage: random <name> <n>\n")
			break
		}
		g, ok := c.guest(fields[1])
		if !ok {
			break
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 || n > 64 {
			c.printf("bad count %q (1..64)\n", fields[2])
			break
		}
		var b []byte
		if g.Profile == tpm.Profile20 {
			b, err = g.TPM2.GetRandom(n)
		} else {
			b, err = g.TPM.GetRandom(n)
		}
		if err != nil {
			c.printf("random: %v\n", err)
			break
		}
		c.printf("%x\n", b)
	case "deny":
		if len(fields) != 3 {
			c.printf("usage: deny <name> <group>\n")
			break
		}
		c.policyRule(fields[1], fields[2], core.Deny)
	case "allow":
		if len(fields) != 3 {
			c.printf("usage: allow <name> <group>\n")
			break
		}
		c.policyRule(fields[1], fields[2], core.Allow)
	case "audit":
		ig, isImproved := c.host.ImprovedGuard()
		if !isImproved {
			c.printf("the baseline guard keeps no audit log\n")
			break
		}
		n := 10
		if len(fields) == 2 {
			if v, err := strconv.Atoi(fields[1]); err == nil {
				n = v
			}
		}
		recs := ig.Audit().Records()
		c.printf("%d records, chain ok: %v\n", len(recs), ig.Audit().Verify() == nil)
		if len(recs) > n {
			recs = recs[len(recs)-n:]
		}
		for _, r := range recs {
			c.printf("  #%-4d inst=%-3d ordinal=%#-6x %-5s %s\n", r.Seq, r.Instance, r.Ordinal, r.Decision, r.Reason)
		}
	case "load":
		if len(fields) < 3 || len(fields) > 4 {
			c.printf("usage: load <offered-cps> <duration> [slots]\n")
			break
		}
		// Refused here, before any load slot is opened and prepared;
		// ParseFloat accepts "nan" and "inf".
		offered, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || !(offered > 0) || math.IsInf(offered, 1) {
			c.printf("load: bad offered rate %q\n", fields[1])
			break
		}
		dur, err := time.ParseDuration(fields[2])
		if err != nil || dur <= 0 {
			c.printf("load: bad duration %q\n", fields[2])
			break
		}
		nSlots := 4
		if len(fields) == 4 {
			if nSlots, err = strconv.Atoi(fields[3]); err != nil || nSlots <= 0 {
				c.printf("load: bad slot count %q\n", fields[3])
				break
			}
		}
		c.runLoad(offered, dur, nSlots)
	case "top":
		topFilter := tpm.AnyProfile
		if len(fields) == 3 && fields[1] == "--profile" {
			p, err := tpm.ParseProfile(fields[2])
			if err != nil {
				c.printf("top: %v\n", err)
				break
			}
			topFilter = p
		} else if len(fields) != 1 {
			c.printf("usage: top [--profile 1.2|2.0]\n")
			break
		}
		ds := c.host.Manager.DispatchStats()
		c.printf("dispatch: %d commands (%d failed)  p50 %sµs  p95 %sµs  p99 %sµs\n",
			ds.Commands, ds.Failures, metrics.Micros(ds.Total.P50),
			metrics.Micros(ds.Total.P95), metrics.Micros(ds.Total.P99))
		c.printf("phases:   queue-wait p95 %sµs  execute p95 %sµs  flush p95 %sµs  persist p95 %sµs\n",
			metrics.Micros(ds.QueueWait.P95), metrics.Micros(ds.Execute.P95),
			metrics.Micros(ds.Flush.P95), metrics.Micros(ds.Persist.P95))
		cs := c.host.Manager.CheckpointStats()
		c.printf("checkpoint: %d mutations, %d writes (coalesce %.2fx), %d bytes, %d retries\n",
			cs.Mutations, cs.Checkpoints, cs.CoalesceRatio(), cs.BytesWritten, cs.Retries)
		sg := c.host.Manager.SignDebug()
		c.printf("sign:     %d workers, queue %d, in-flight %d; %d signs, %d errors; sign p95 %sµs  wait p95 %sµs\n",
			sg.Workers, sg.QueueDepth, sg.InFlight, sg.SingleSigns, sg.Errors,
			metrics.Micros(sg.SignTime.P95), metrics.Micros(sg.Wait.P95))
		if sd := c.host.Manager.StoreDebug(); sd != nil {
			c.printf("store:    %s backend, %d segments, %d commits (coalesce %.2fx), %d/%d live/disk bytes, debt %d, %d compactions\n",
				sd.Backend, sd.Segments, sd.Commits, sd.CoalesceRatio,
				sd.BytesLive, sd.BytesOnDisk, sd.CompactionDebt, sd.Compactions)
		}
		tm := c.host.TransportMetrics()
		rtt := tm.GuestRTT.Summarize()
		batch := tm.RingBatch.Summarize()
		ec := c.host.HV.EventChannels()
		c.printf("guest rtt: %d round trips  p50 %sµs  p95 %sµs  p99 %sµs\n",
			rtt.Count, metrics.Micros(rtt.P50), metrics.Micros(rtt.P95), metrics.Micros(rtt.P99))
		meanBatch := 0.0
		if batch.Count > 0 {
			// RingBatch records frames-per-drain as integer Durations.
			meanBatch = float64(batch.Mean)
		}
		c.printf("transport: %d ring drains, %.2f frames/drain, %d doorbells sent, %d suppressed\n",
			batch.Count, meanBatch, ec.SentNotifies(), ec.SuppressedNotifies())
		if open, cmds := c.host.Manager.LoadSessionStats(); c.lastLoad != nil || cmds > 0 {
			c.printf("load:      %d sessions open, %d session commands", open, cmds)
			if c.lastLoad != nil {
				c.printf("; last run: %s", c.lastLoad)
			}
			c.printf("\n")
		}
		rows := make([][]string, 0, 8)
		for _, s := range c.host.Manager.InstanceStatsAll() {
			if topFilter != tpm.AnyProfile && s.Profile != topFilter {
				continue
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", s.ID),
				s.Profile.String(),
				fmt.Sprintf("dom%d", s.BoundDom),
				s.Health.String(),
				fmt.Sprintf("%d", s.Dispatches),
				fmt.Sprintf("%d", s.Failures),
				fmt.Sprintf("%d", s.PendingDirty),
				metrics.Micros(s.Latency.P50),
				metrics.Micros(s.Latency.P95),
				metrics.Micros(s.Latency.P99),
				fmt.Sprintf("%d", s.SpansRecorded),
			})
		}
		if len(rows) == 0 {
			c.printf("(no instances)\n")
			break
		}
		metrics.Table(c.out, "per-instance dispatch (latency µs)",
			[]string{"inst", "tpm", "dom", "health", "cmds", "fail", "dirty", "p50", "p95", "p99", "spans"}, rows)
	case "spans":
		if len(fields) < 2 || len(fields) > 3 {
			c.printf("usage: spans <name> [n]\n")
			break
		}
		g, ok := c.guest(fields[1])
		if !ok {
			break
		}
		n := 10
		if len(fields) == 3 {
			if v, err := strconv.Atoi(fields[2]); err == nil && v > 0 {
				n = v
			}
		}
		spans, err := c.host.Manager.Spans(g.Instance)
		if err != nil {
			c.printf("spans: %v\n", err)
			break
		}
		if len(spans) == 0 {
			c.printf("(no spans recorded — tracing disabled or no traffic)\n")
			break
		}
		if len(spans) > n {
			spans = spans[len(spans)-n:]
		}
		for _, sp := range spans {
			flags := ""
			if sp.Mutated {
				flags += " mutated"
			}
			if sp.Denied {
				flags += " denied"
			}
			c.printf("  #%-5d ordinal=%#-6x wait=%sµs exec=%sµs flush=%sµs%s\n",
				sp.Seq, sp.Ordinal, metrics.Micros(sp.QueueWait),
				metrics.Micros(sp.Execute), metrics.Micros(sp.Flush), flags)
		}
	case "stats":
		st := c.host.Stats()
		c.printf("mode=%s guests=%d instances=%d stored-blobs=%d hw-commands=%d\n",
			st.Mode, st.Guests, st.Instances, st.StoredBlobs, st.HWCommands)
		if st.Mode.String() == "improved" {
			c.printf("audit: %d records, chain ok: %v\n", st.AuditRecords, st.AuditVerifies)
		}
		for name, g := range c.guests {
			c.printf("  %-12s cpu=%dus\n", name, g.Dom.CPUNanos()/1000)
		}
	case "ratelimit":
		if len(fields) != 3 {
			c.printf("usage: ratelimit <name> <cmds-per-second> (0 clears)\n")
			break
		}
		g, ok := c.guest(fields[1])
		if !ok {
			break
		}
		ig, isImproved := c.host.ImprovedGuard()
		if !isImproved {
			c.printf("the baseline guard has no flood control\n")
			break
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 {
			c.printf("bad rate %q\n", fields[2])
			break
		}
		ig.SetRateLimitFor(g.Instance, n)
		if n == 0 {
			c.printf("rate limit cleared for %s\n", fields[1])
		} else {
			c.printf("%s limited to %d commands/s\n", fields[1], n)
		}
	case "anchor":
		if err := c.host.EnableAuditAnchor(); err != nil {
			c.printf("anchor: %v\n", err)
			break
		}
		v, err := c.host.AnchorAudit()
		if err != nil {
			c.printf("anchor: %v\n", err)
			break
		}
		c.printf("audit head anchored in hardware TPM (anchor counter %d)\n", v)
	case "verify-audit":
		if err := c.host.VerifyAuditAgainstAnchor(); err != nil {
			c.printf("verify-audit: %v\n", err)
			break
		}
		c.printf("audit log matches the hardware anchor\n")
	case "checkpoint":
		if len(fields) != 2 {
			c.printf("usage: checkpoint <name>\n")
			break
		}
		g, ok := c.guest(fields[1])
		if !ok {
			break
		}
		if err := c.host.Manager.Checkpoint(g.Instance); err != nil {
			c.printf("checkpoint: %v\n", err)
			break
		}
		c.printf("instance %d persisted\n", g.Instance)
	case "suspend":
		if len(fields) != 2 {
			c.printf("usage: suspend <name>\n")
			break
		}
		g, ok := c.guest(fields[1])
		if !ok {
			break
		}
		handle, err := c.host.SuspendGuest(g)
		if err != nil {
			c.printf("suspend: %v\n", err)
			break
		}
		delete(c.guests, fields[1])
		c.printf("guest %q suspended (resume with: resume %s)\n", fields[1], handle)
	case "resume":
		if len(fields) != 2 {
			c.printf("usage: resume <name>\n")
			break
		}
		g, err := c.host.ResumeGuest(fields[1])
		if err != nil {
			c.printf("resume: %v\n", err)
			break
		}
		c.guests[fields[1]] = g
		c.printf("guest %q resumed: dom%d, instance %d\n", fields[1], g.Dom.ID(), g.Instance)
	case "destroy":
		if len(fields) != 2 {
			c.printf("usage: destroy <name>\n")
			break
		}
		g, ok := c.guest(fields[1])
		if !ok {
			break
		}
		if err := c.host.DestroyGuest(g); err != nil {
			c.printf("destroy: %v\n", err)
			break
		}
		delete(c.guests, fields[1])
		c.printf("guest %q destroyed\n", fields[1])
	case "quit", "exit":
		return false
	default:
		c.printf("unknown command %q (try 'help')\n", fields[0])
	}
	return true
}

// runLoop drives a console handler from a semicolon-separated script, or
// interactively from stdin when script is empty.
func runLoop(handle func(string) bool, out *bufio.Writer, script string) {
	if script != "" {
		for _, line := range strings.Split(script, ";") {
			fmt.Fprintf(out, "> %s\n", strings.TrimSpace(line))
			if !handle(line) {
				break
			}
			out.Flush()
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Fprint(out, "> ")
	out.Flush()
	for sc.Scan() {
		if !handle(sc.Text()) {
			break
		}
		fmt.Fprint(out, "> ")
		out.Flush()
	}
}

func main() {
	modeFlag := flag.String("mode", "improved", "access-control guard: baseline or improved")
	bits := flag.Int("bits", 512, "RSA modulus size")
	storeFlag := flag.String("store", "flat", "persistence backend: flat or log")
	script := flag.String("script", "", "semicolon-separated commands to run instead of stdin")
	clusterN := flag.Int("cluster", 0, "boot an N-member federation instead of a single host")
	flag.Parse()

	mode := xvtpm.ModeImproved
	if *modeFlag == "baseline" {
		mode = xvtpm.ModeBaseline
	}
	if *clusterN > 0 {
		if err := runCluster(*clusterN, *bits, mode, *script); err != nil {
			fmt.Fprintf(os.Stderr, "boot: %v\n", err)
			os.Exit(1)
		}
		return
	}
	backend := xvtpm.StoreFlat
	if *storeFlag == "log" {
		backend = xvtpm.StoreLog
	}
	host, err := xvtpm.NewHost(xvtpm.HostConfig{
		Name: "ctl-host", Mode: mode, RSABits: *bits, StoreBackend: backend,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "boot: %v\n", err)
		os.Exit(1)
	}
	defer host.Close()

	c := &console{host: host, guests: make(map[string]*xvtpm.Guest), out: bufio.NewWriter(os.Stdout)}
	defer c.out.Flush()
	c.printf("vtpmctl: host up (%s mode). Type 'help'.\n", mode)
	runLoop(c.handle, c.out, *script)
}
