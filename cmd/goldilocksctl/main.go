// Command goldilocksctl operates a goldilocksd cluster from the
// outside: fleet status, planned drains, rebalancing, metric rollups,
// and the chaos drill that proves failover loses no verdicts.
//
//	goldilocksctl -cluster a:1,b:2,c:3 status
//	goldilocksctl -cluster a:1,b:2,c:3 drain b:2
//	goldilocksctl -cluster a:1,b:2,c:3 rebalance
//	goldilocksctl -cluster a:1,b:2,c:3 metrics
//	goldilocksctl -cluster a:1,b:2,c:3 flight -out ./dumps
//	goldilocksctl -cluster a:1,b:2,c:3 drill -kill-pid 1234 -kill-addr b:2
//
// The drill streams the seed corpus (Section 2 scenarios plus the
// conformance counterexamples) through failover-aware fleet clients,
// SIGKILLs the named node mid-corpus, finishes streaming, and then
// requires every session's verdicts and Figure 5 rule-fire counts to
// match the executable specification exactly — zero divergences, zero
// caller-visible errors, at least one observed failover.
//
// Exit codes: 0 success, 1 drill divergence, 2 usage, 3 runtime error.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"goldilocks/internal/cluster"
	"goldilocks/internal/conformance"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
	"goldilocks/internal/scenarios"
	"goldilocks/internal/server"
)

func main() {
	var (
		members  = flag.String("cluster", "", "comma-separated fleet member list (required)")
		repl     = flag.Int("replicas", 2, "replica count K, matching the fleet's -replicas")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-exchange admin timeout")
		logLevel = flag.String("log-level", "warn", "minimum log level: debug, info, warn, error")
		logJSON  = flag.Bool("log-json", false, "emit structured JSON log records instead of text")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: goldilocksctl -cluster <a,b,c> [flags] status|drain <node>|rebalance|metrics|flight [flight flags]|drill [drill flags]")
		flag.PrintDefaults()
	}
	flag.Parse()
	level, lerr := obs.ParseLogLevel(*logLevel)
	if lerr != nil {
		fmt.Fprintln(os.Stderr, "goldilocksctl:", lerr)
		os.Exit(resilience.ExitUsage)
	}
	log := obs.NewLogger(os.Stderr, level, *logJSON).With("component", "goldilocksctl")
	fleet := splitList(*members)
	if len(fleet) == 0 || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(resilience.ExitUsage)
	}
	co := &cluster.Coordinator{Members: fleet, Replicas: *repl, Timeout: *timeout}
	ctx := context.Background()

	var err error
	switch cmd := flag.Arg(0); cmd {
	case "status":
		err = status(ctx, co)
	case "drain":
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: goldilocksctl -cluster ... drain <node-addr>")
			os.Exit(resilience.ExitUsage)
		}
		var moved int
		moved, err = co.Drain(ctx, flag.Arg(1))
		fmt.Printf("drained %s: %d sessions migrated\n", flag.Arg(1), moved)
	case "rebalance":
		var moved int
		moved, err = co.Rebalance(ctx)
		fmt.Printf("rebalanced: %d sessions migrated\n", moved)
	case "metrics":
		os.Stdout.Write(cluster.Rollup(ctx, fleet, *timeout))
	case "flight":
		os.Exit(flight(ctx, fleet, *timeout, log, flag.Args()[1:]))
	case "drill":
		os.Exit(drill(fleet, flag.Args()[1:]))
	default:
		fmt.Fprintf(os.Stderr, "goldilocksctl: unknown command %q\n", cmd)
		os.Exit(resilience.ExitUsage)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "goldilocksctl:", err)
		os.Exit(resilience.ExitRuntime)
	}
	os.Exit(resilience.ExitClean)
}

func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func status(ctx context.Context, co *cluster.Coordinator) error {
	for _, st := range co.Status(ctx) {
		state := "up"
		switch {
		case !st.Alive:
			state = "DOWN"
		case st.Draining:
			state = "draining"
		}
		fmt.Printf("%-24s %-9s sessions=%d", st.Addr, state, len(st.Sessions))
		if st.Err != "" {
			fmt.Printf("  error=%s", st.Err)
		}
		fmt.Println()
		for _, si := range st.Sessions {
			att := ""
			if si.Attached {
				att = " attached"
			}
			fmt.Printf("    %-32s applied=%d races=%d%s\n", si.ID, si.Applied, si.Races, att)
		}
	}
	return nil
}

// flight pulls every member's flight-recorder ring over the admin
// protocol. With -out each node's dump lands in its own
// <node>.flight.jsonl (checksums verified, summary printed); without it
// the dumps stream to stdout under "# node" headers. A nonempty -reason
// marks an incident and makes each node keep a local copy too.
func flight(ctx context.Context, fleet []string, timeout time.Duration, log *slog.Logger, args []string) int {
	fs := flag.NewFlagSet("flight", flag.ExitOnError)
	var (
		out    = fs.String("out", "", "write one <node>.flight.jsonl per member into this directory (default: stdout)")
		reason = fs.String("reason", "", "incident reason; nonempty also triggers a local dump on each node")
	)
	fs.Parse(args)
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "goldilocksctl flight:", err)
			return resilience.ExitRuntime
		}
	}
	scraped := 0
	for _, addr := range fleet {
		cctx, cancel := context.WithTimeout(ctx, timeout)
		body, err := server.ScrapeFlight(cctx, addr, *reason)
		cancel()
		if err != nil {
			log.Warn("flight scrape failed", "node", addr, "err", err)
			continue
		}
		hdr, events, derr := obs.ReadFlightDump(bytes.NewReader(body))
		if derr != nil {
			log.Warn("flight dump damaged", "node", addr, "salvaged", len(events), "err", derr)
		}
		if *out == "" {
			fmt.Printf("# node %s\n", addr)
			os.Stdout.Write(body)
		} else {
			path := filepath.Join(*out, sanitizeNode(addr)+".flight.jsonl")
			if err := os.WriteFile(path, body, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "goldilocksctl flight:", err)
				return resilience.ExitRuntime
			}
			fmt.Printf("flight: %s -> %s (%d events, %d overwritten)\n", addr, path, hdr.Events, hdr.Overwritten)
		}
		scraped++
	}
	if scraped == 0 {
		fmt.Fprintln(os.Stderr, "goldilocksctl flight: no member answered")
		return resilience.ExitRuntime
	}
	return resilience.ExitClean
}

// sanitizeNode maps a fleet address to a filename-safe stem.
func sanitizeNode(addr string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, addr)
}

// drill is the chaos acceptance gate. It needs a victim to SIGKILL —
// the shell script that owns the daemon processes passes the pid in.
func drill(fleet []string, args []string) int {
	fs := flag.NewFlagSet("drill", flag.ExitOnError)
	var (
		killPid   = fs.Int("kill-pid", 0, "process to SIGKILL once every session is mid-stream (required)")
		killAddr  = fs.String("kill-addr", "", "the victim's fleet address, reported in the summary")
		corpusDir = fs.String("corpus", "", "extra corpus directory of .jsonl traces (e.g. internal/conformance/testdata)")
		failover  = fs.Duration("failover-timeout", 30*time.Second, "per-client failover budget")
		flightOut = fs.String("flight-out", "", "collect each surviving node's flight dump into this directory after the drill")
	)
	fs.Parse(args)
	if *killPid <= 0 {
		fmt.Fprintln(os.Stderr, "goldilocksctl drill: -kill-pid is required")
		return resilience.ExitUsage
	}

	traces, err := drillCorpus(*corpusDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "goldilocksctl drill:", err)
		return resilience.ExitRuntime
	}
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("drill: %d sessions over fleet %v, victim pid %d %s\n", len(names), fleet, *killPid, *killAddr)

	cfg := server.DialConfig{FailoverTimeout: *failover}
	ctx := context.Background()

	// Phase 1: open a fleet client per trace and stream the first half.
	clients := make(map[string]*server.Client, len(names))
	for i, name := range names {
		tr := traces[name]
		c, err := server.DialFleet(ctx, fleet, fmt.Sprintf("drill-%d", i), cfg)
		if err != nil {
			return fail("dialing for %s: %v", name, err)
		}
		clients[name] = c
		for j := 0; j < tr.Len()/2; j++ {
			if err := c.Send(tr.At(j)); err != nil {
				return fail("%s: streaming first half: %v", name, err)
			}
		}
		if _, err := c.Flush(); err != nil {
			return fail("%s: flushing first half: %v", name, err)
		}
	}

	// Phase 2: kill the victim with every session mid-stream.
	fmt.Printf("drill: SIGKILL %d\n", *killPid)
	if err := syscall.Kill(*killPid, syscall.SIGKILL); err != nil {
		return fail("killing pid %d: %v", *killPid, err)
	}

	// Phase 3: finish every trace through failover and check each
	// session against the executable specification.
	divergences, failovers := 0, 0
	for _, name := range names {
		tr, c := traces[name], clients[name]
		for j := tr.Len() / 2; j < tr.Len(); j++ {
			if err := c.Send(tr.At(j)); err != nil {
				return fail("%s: streaming second half: %v", name, err)
			}
		}
		ack, err := c.Close()
		if err != nil {
			return fail("%s: closing: %v", name, err)
		}
		failovers += c.Failovers()
		backend := func(*event.Trace) (conformance.BackendResult, error) {
			res := conformance.BackendResult{Races: c.Races()}
			if len(ack.RuleFires) == obs.NumRules+1 {
				copy(res.RuleFires[:], ack.RuleFires)
				res.HasRuleFires = true
			}
			return res, nil
		}
		if div := conformance.CheckBackend("cluster", backend, tr); div != nil {
			divergences++
			fmt.Fprintf(os.Stderr, "drill: DIVERGENCE %s (failovers=%d): %v\n", name, c.Failovers(), div)
		}
	}

	fmt.Printf("drill: %d sessions converged, %d divergences, %d failovers\n",
		len(names)-divergences, divergences, failovers)
	// A divergence is exactly the incident the flight recorders exist
	// for: make every reachable node keep a local dump before exiting.
	reason := ""
	if divergences > 0 {
		reason = "conformance-divergence"
	}
	if *flightOut != "" || reason != "" {
		collectDrillFlight(fleet, *flightOut, reason)
	}
	if divergences > 0 {
		return resilience.ExitRace
	}
	if failovers == 0 {
		fmt.Fprintln(os.Stderr, "drill: no client failed over — the kill hit nothing; drill proves nothing")
		return resilience.ExitRuntime
	}
	return resilience.ExitClean
}

// collectDrillFlight scrapes each member's flight dump after a drill:
// written under dir when set, triggering node-local dumps when reason
// is nonempty. The victim is dead and simply does not answer.
func collectDrillFlight(fleet []string, dir, reason string) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "goldilocksctl drill: flight collection:", err)
			return
		}
	}
	for _, addr := range fleet {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		body, err := server.ScrapeFlight(ctx, addr, reason)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "drill: flight scrape of %s failed: %v\n", addr, err)
			continue
		}
		if dir == "" {
			continue // reason-triggered local dumps were the point
		}
		path := filepath.Join(dir, sanitizeNode(addr)+".flight.jsonl")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "drill: writing %s: %v\n", path, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "drill: flight dump of %s -> %s\n", addr, path)
	}
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "goldilocksctl drill: "+format+"\n", args...)
	return resilience.ExitRuntime
}

// drillCorpus is the seed corpus: every Section 2 scenario, plus the
// checked-in conformance counterexamples when a corpus dir is given.
func drillCorpus(dir string) (map[string]*event.Trace, error) {
	out := make(map[string]*event.Trace)
	for _, sc := range scenarios.All() {
		out["scenario-"+sc.Name] = sc.Trace
	}
	if dir != "" {
		entries, err := conformance.LoadCorpus(dir)
		if err != nil {
			return nil, fmt.Errorf("loading corpus %s: %w", dir, err)
		}
		for _, e := range entries {
			out["corpus-"+strings.TrimSuffix(e.Name, ".jsonl")] = e.Trace
		}
	}
	return out, nil
}
