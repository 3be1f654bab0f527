// Command perfbench is the repository benchmark: four workloads that
// drive goldilocks end to end, each ending with a correctness check.
// README.md in this directory explains the workloads and metrics; run.sh
// builds the binaries and calls this program.
//
//	perfbench -daemon <goldilocksd> -dir <scratch> \
//	    -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// With -trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with -trace 1 it carries the per-layer
// metrics instead. Earlier lines give the run's facts and every metric
// by name with its unit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one run's settings, shared by every workload.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// tiny shrinks every workload to a few milliseconds of work. Only
	// the smoke test sets it, to check the benchmark still runs and
	// emits every metric; no command-line flag does.
	tiny   bool
	daemon string // goldilocksd binary (stream workloads)
	dir    string // scratch directory for this run
}

// setupReps and setupSpan say how often a workload repeats its set-up:
// at least setupReps times, and until setupSpan has passed. This
// machine's speed swings by a fifth from one second to the next, so a
// median of repetitions spread over more than a second is steadier
// across runs than one of a burst of a few milliseconds.
const (
	setupReps = 9
	setupSpan = 1500 * time.Millisecond
)

// timeSetup repeats a workload's set-up, each time from a collected
// heap so none pays for the garbage of the one before, and reports the
// median of the times setup returns as setup_s. Tiny runs stop after
// setupReps repetitions.
func timeSetup(cfg config, out *outcome, setup func() (time.Duration, error)) error {
	var times []float64
	start := time.Now()
	for len(times) < setupReps || (!cfg.tiny && time.Since(start) < setupSpan) {
		runtime.GC()
		d, err := setup()
		if err != nil {
			return err
		}
		times = append(times, d.Seconds())
	}
	out.set("setup_s", median(times))
	return nil
}

// workload runs one named workload into out. An error means the run
// could not be set up or measured at all; a wrong verdict is a failed
// operation recorded in out, not an error.
type workload func(cfg config, out *outcome) error

var workloads = map[string]workload{
	"mj_paper":     runMJPaper,
	"stream_long":  runStreamLong,
	"stream_short": runStreamShort,
	"txn_governed": runTxnGoverned,
}

// endToEnd and perLayer are the metric names every run reports, with
// their units; BENCHMARK.json lists the same names.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"wait_p50_ms", "ms"},
	{"wait_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = func() []metricName {
	var out []metricName
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricName{n, unit})
		}
	}
	pn := func(unit, base string) { add(unit, base+".p50", base+".p99") }
	add("ms", "mj.parse_check_ms")
	add("s", "mj.uninstrumented_s")
	add("count", "jrt.accesses", "jrt.detector_calls")
	add("ratio", "jrt.checked_share")
	add("s", "jrt.self_s")
	add("ms", "static.chord_ms", "static.rcc_ms")
	add("ratio", "static.chord_checked_share", "static.rcc_checked_share")
	add("s", "static.rcc_run_s")
	add("count", "stm.commits", "stm.aborts")
	add("ratio", "stm.commit_ratio")
	add("s", "core.busy_s")
	pn("ns", "core.read_ns")
	pn("ns", "core.write_ns")
	pn("ns", "core.sync_ns")
	pn("ns", "core.commit_ns")
	add("count", "core.pair_checks", "core.hb_cache_hits")
	add("ratio", "core.short_circuit_rate", "core.fast_path_rate", "core.full_walk_rate")
	add("cells", "core.walk_cells_per_check")
	add("count", "core.races")
	add("cells", "core.list_len_peak")
	add("count", "core.gc_collections")
	add("ratio", "core.gc_reclaim_rate")
	add("count", "core.infos_advanced", "core.escalations", "core.eager_sweeps", "core.degraded_checks")
	add("rung", "core.governor_rung")
	add("ms", "core.checkpoint_ms")
	add("bytes", "core.checkpoint_bytes")
	add("ms", "core.restore_ms")
	add("ns", "event.encode_ns", "event.decode_ns")
	add("bytes", "event.wire_bytes_per_event")
	pn("ms", "server.attach_ms")
	pn("ms", "server.close_ms")
	pn("us", "server.queue_wait_us")
	pn("us", "server.apply_us")
	pn("us", "server.verdict_flush_us")
	pn("ms", "server.checkpoint_write_ms")
	add("count", "server.checkpoints")
	add("us", "server.client_encode_us.p50")
	add("count", "server.sessions_retained")
	add("ratio", "obs.trace_overhead")
	return out
}()

type metricName struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects one run's operation counts, failures and metrics.
type outcome struct {
	attempted, failed int64
	failures          []string
	metrics           map[string]metric
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// fail counts one failed operation and keeps its description (the first
// few are printed to standard error).
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN counts n failed operations under one description.
func (o *outcome) failN(n int64, format string, args ...any) {
	o.failed += n
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func unitOf(name string) string {
	for _, set := range [][]metricName{endToEnd, perLayer} {
		for _, m := range set {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: unknown metric " + name)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: mj_paper, stream_long, stream_short or txn_governed")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "how long the run measures")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end ones")
		daemon  = flag.String("daemon", "", "goldilocksd binary used by the stream workloads")
		dir     = flag.String("dir", "", "scratch directory for this run")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || flag.NArg() != 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1> -daemon <path> -dir <dir>")
		os.Exit(2)
	}
	cfg := config{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, daemon: *daemon, dir: *dir,
	}
	if cfg.dir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -dir is required")
		os.Exit(2)
	}
	printFacts(*name, cfg)
	var out outcome
	if err := run(cfg, &out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, *name, cfg, &out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

// printFacts records what the run's numbers depend on: the machine, the
// toolchain, the commit and the workload's inputs.
func printFacts(name string, cfg config) {
	facts := map[string]any{
		"workload":   name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(),
	}
	b, _ := json.Marshal(map[string]any{"facts": facts})
	fmt.Println(string(b))
}

// gitCommit returns the VCS revision stamped into the binary, or
// "unknown" when it was built outside a git checkout.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// emit checks the run reported exactly the metrics its mode promises,
// prints them one per line, and ends with the JSON result line.
func emit(w io.Writer, name string, cfg config, out *outcome) error {
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	metrics := make(map[string]metric, len(want))
	var missing []string
	for _, m := range want {
		v, ok := out.metrics[m.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing = append(missing, m.name)
			continue
		}
		metrics[m.name] = v
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if out.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed: %s\n", name, f)
	}
	fmt.Fprintf(w, "%s: attempted %d, failed %d, error_rate %.6f\n",
		name, out.attempted, out.failed, float64(out.failed)/float64(out.attempted))
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s: %-32s %.6g %s\n", name, n, metrics[n].Value, metrics[n].Unit)
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}

// rssSampler tracks a process's peak resident set, read from /proc
// every few milliseconds, in consecutive windows of a fixed length.
type rssSampler struct {
	done  chan struct{}
	peaks chan []float64
}

// sampleRSS starts sampling pid; window 0 makes the whole interval one
// window.
func sampleRSS(pid int, window time.Duration) *rssSampler {
	s := &rssSampler{done: make(chan struct{}), peaks: make(chan []float64, 1)}
	path := fmt.Sprintf("/proc/%d/statm", pid)
	page := float64(os.Getpagesize())
	go func() {
		var peaks []float64
		peak, start := 0.0, time.Now()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if b, err := os.ReadFile(path); err == nil {
				var size, resident float64
				if _, err := fmt.Sscan(string(b), &size, &resident); err == nil && resident*page > peak {
					peak = resident * page
				}
			}
			select {
			case <-s.done:
				s.peaks <- append(peaks, peak/(1<<20))
				return
			case now := <-tick.C:
				if window > 0 && now.Sub(start) >= window {
					peaks = append(peaks, peak/(1<<20))
					peak, start = 0, now
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak of each window in MB.
func (s *rssSampler) stop() []float64 {
	close(s.done)
	return <-s.peaks
}

// pidPeakRSSMB reads another process's peak resident set (VmHWM) in MB.
func pidPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// quantile returns the q-quantile of xs by the nearest-rank method; xs
// is sorted in place. It returns NaN for an empty slice, which emit
// reports as an unmeasured metric.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
