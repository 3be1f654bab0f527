package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"goldilocks/internal/bench"
	"goldilocks/internal/core"
	"goldilocks/internal/jrt"
	"goldilocks/internal/mj"
	"goldilocks/internal/static"
)

// multisetThreads and multisetOps size the Table 3 program: the paper's
// 200-thread row with the per-thread operation count racebench uses.
const (
	multisetThreads = 200
	multisetOps     = 12
)

// program is one MJ workload after the front end has run.
type program struct {
	name string
	prog *mj.Program
	// chord and rcc are separate copies of the program with each static
	// analysis installed (installing one marks sites in the AST), and
	// the site masks it produced.
	chord, rcc         *mj.Program
	chordMask, rccMask []bool
	// wantCommits is the exact number of transactions the program
	// commits; -1 for programs that use none.
	wantCommits int64
}

// multisetCommits counts the atomic blocks the Multiset program runs:
// one initialising block in main, then per client operation three for
// an insert (two slot reservations and a publish or rollback) and one
// for a remove or a count.
func multisetCommits(threads, ops int) int64 {
	n := int64(1)
	for id := 0; id < threads; id++ {
		for op := 0; op < ops; op++ {
			if (op+id)%3 == 0 {
				n += 3
			} else {
				n++
			}
		}
	}
	return n
}

// frontEndResult is the suite after the front end, with the time each
// front-end stage took.
type frontEndResult struct {
	programs         []program
	parseCheck       time.Duration
	chordDur, rccDur time.Duration
}

func mjSuite(tiny bool) []bench.Workload {
	ws := bench.Table1Workloads()
	threads := multisetThreads
	if tiny {
		threads = 10
	}
	return append(ws, bench.MultisetWorkload(threads, multisetOps))
}

func parseCheck(name, src string) (*mj.Program, error) {
	prog, err := mj.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := mj.Check(prog); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return prog, nil
}

// frontEnd parses, checks and statically analyses every program.
func frontEnd(tiny bool) (*frontEndResult, error) {
	res := &frontEndResult{}
	for _, w := range mjSuite(tiny) {
		src := w.Instantiate(!tiny)
		p := program{name: w.Name, wantCommits: -1}
		if strings.HasPrefix(w.Name, "multiset") {
			p.wantCommits = multisetCommits(w.Threads, multisetOps)
		}
		start := time.Now()
		var err error
		if p.prog, err = parseCheck(w.Name, src); err != nil {
			return nil, err
		}
		res.parseCheck += time.Since(start)
		if p.chord, err = parseCheck(w.Name, src); err != nil {
			return nil, err
		}
		if p.rcc, err = parseCheck(w.Name, src); err != nil {
			return nil, err
		}

		start = time.Now()
		p.chordMask = static.Chord(p.chord).Apply(p.chord)
		res.chordDur += time.Since(start)
		start = time.Now()
		r, err := static.Rcc(p.rcc)
		if err != nil {
			return nil, fmt.Errorf("%s: rcc: %w", w.Name, err)
		}
		p.rccMask = r.Apply(p.rcc)
		res.rccDur += time.Since(start)
		res.programs = append(res.programs, p)
	}
	return res, nil
}

// mjRun is one checked (or uninstrumented) execution of a program.
type mjRun struct {
	elapsed  time.Duration
	races    int
	commits  uint64
	aborts   uint64
	runtime  jrt.Stats
	engine   core.Stats
	spans    *spans
	listPeak int
}

// runProgram executes prog, a front-end copy of p, once: uninstrumented
// or under a fresh engine. mask, when non-nil, turns off checking at the
// sites it marks, and traced wraps the engine in spans.
func runProgram(p program, prog *mj.Program, mask []bool, instrumented, traced bool) (mjRun, error) {
	cfg := jrt.Config{Policy: jrt.Log, Mode: jrt.Free, DisableArrayAfterRace: true}
	var eng *core.Engine
	var sp *spans
	if instrumented {
		opts := core.DefaultOptions()
		opts.DisableAfterRace = true
		eng = core.NewEngine(opts)
		cfg.Detector = eng
		if traced {
			sp = &spans{eng: eng}
			cfg.Detector = sp
		}
	}
	rt := jrt.NewRuntime(cfg)
	in, err := mj.NewInterp(prog, mj.InterpConfig{Runtime: rt, SiteNoCheck: mask})
	if err != nil {
		return mjRun{}, fmt.Errorf("%s: %w", p.name, err)
	}

	// The traced run samples the event-list length while the program
	// runs; the untraced run does nothing extra.
	listPeak := func() int { return 0 }
	if traced && eng != nil {
		listPeak = sampleListLen(eng)
	}

	// Each run starts from a collected heap, as a fresh process would.
	debug.FreeOSMemory()
	start := time.Now()
	races, err := in.Run()
	elapsed := time.Since(start)
	peak := listPeak()
	if err != nil {
		return mjRun{}, fmt.Errorf("%s: run: %w", p.name, err)
	}
	r := mjRun{elapsed: elapsed, races: len(races), runtime: rt.Stats(), spans: sp}
	r.commits, r.aborts = in.TMStats()
	if eng != nil {
		r.engine = eng.Stats()
		r.listPeak = max(peak, eng.ListLen())
	}
	return r, nil
}

// check records whether a checked run produced the expected verdicts:
// every program of the suite is race-free, and the Multiset commits
// exactly its number of atomic blocks.
func (p program) check(r mjRun, out *outcome) {
	out.attempted++
	switch {
	case r.races != 0:
		out.fail("%s: %d races reported on a race-free program", p.name, r.races)
	case p.wantCommits >= 0 && int64(r.commits) != p.wantCommits:
		out.fail("%s: %d commits, want %d", p.name, r.commits, p.wantCommits)
	}
}

// runMJPaper runs the paper's own workload: the Table 1 suite at full
// scale and the 200-thread Table 3 Multiset, under Goldilocks with no
// static information and the free scheduler. Each pass runs every
// program once, in a fixed order; passes repeat until the run's time is
// spent. The programs take no input, so the seed changes nothing here.
func runMJPaper(cfg config, out *outcome) error {
	// Set-up: the front end (parse, check, both static analyses).
	var fe *frontEndResult
	if err := timeSetup(cfg, out, func() (time.Duration, error) {
		start := time.Now()
		var err error
		fe, err = frontEnd(cfg.tiny)
		return time.Since(start), err
	}); err != nil {
		return err
	}

	measure := cfg.seconds
	if cfg.trace {
		// Half the traced run measures untraced, for the tracing overhead.
		measure /= 2
	}

	var waits []float64
	var all spans
	var st core.Stats
	var rtStats jrt.Stats
	var commits, aborts uint64
	listPeak := 0
	// pass runs every program once and returns the summed run time, the
	// actions the programs performed and the peak resident set.
	pass := func(traced bool) (time.Duration, float64, float64, error) {
		var spent time.Duration
		var evs float64
		rss := sampleRSS(os.Getpid(), 0)
		for _, p := range fe.programs {
			r, err := runProgram(p, p.prog, nil, true, traced)
			if err != nil {
				rss.stop()
				return 0, 0, 0, err
			}
			p.check(r, out)
			spent += r.elapsed
			evs += float64(r.runtime.TotalAccesses + r.runtime.SyncOps)
			if !traced {
				waits = append(waits, ms(r.elapsed))
				continue
			}
			all.merge(r.spans)
			st = addStats(st, r.engine)
			rtStats.TotalAccesses += r.runtime.TotalAccesses
			rtStats.CheckedAccesses += r.runtime.CheckedAccesses
			commits += r.commits
			aborts += r.aborts
			if r.listPeak > listPeak {
				listPeak = r.listPeak
			}
		}
		return spent, evs, rss.stop()[0], nil
	}

	// Untraced passes: the end-to-end numbers, as medians over passes.
	var rates, peaks []float64
	deadline := time.Now().Add(measure)
	for passes := 0; passes == 0 || time.Now().Before(deadline); passes++ {
		d, evs, peak, err := pass(false)
		if err != nil {
			return err
		}
		rates = append(rates, evs/d.Seconds())
		peaks = append(peaks, peak)
	}
	untracedRate := median(rates)
	out.set("events_per_s", untracedRate)
	out.set("wait_p50_ms", quantile(waits, 0.50))
	out.set("wait_p99_ms", quantile(waits, 0.99))
	out.set("peak_rss_mb", median(peaks))
	if !cfg.trace {
		return nil
	}

	// Traced passes: every engine call timed, engine and runtime counters
	// summed over the programs.
	var tspent time.Duration
	var tevents float64
	deadline = time.Now().Add(measure)
	for passes := 0; passes == 0 || time.Now().Before(deadline); passes++ {
		d, evs, _, err := pass(true)
		if err != nil {
			return err
		}
		tspent += d
		tevents += evs
	}
	all.report(out)
	setEngineStats(out, st, listPeak)
	out.set("jrt.accesses", float64(rtStats.TotalAccesses))
	out.set("jrt.checked_share", ratio(float64(rtStats.CheckedAccesses), float64(rtStats.TotalAccesses)))
	out.set("jrt.detector_calls", float64(all.calls()))
	// The runtime's self time: checked-run wall time with no thread
	// inside the engine.
	out.set("jrt.self_s", (tspent - time.Duration(all.covered.Load())).Seconds())
	out.set("stm.commits", float64(commits))
	out.set("stm.aborts", float64(aborts))
	out.set("stm.commit_ratio", ratio(float64(commits), float64(commits+aborts)))
	out.set("obs.trace_overhead", untracedRate/(tevents/tspent.Seconds())-1)

	// One pass of each reference configuration: uninstrumented, and
	// checked with only the accesses RccJava, then Chord, could not
	// prove safe.
	var uninstr, rccRun time.Duration
	var chordChecked, chordTotal, rccChecked, rccTotal float64
	for _, p := range fe.programs {
		r, err := runProgram(p, p.prog, nil, false, false)
		if err != nil {
			return err
		}
		uninstr += r.elapsed
		r, err = runProgram(p, p.rcc, p.rccMask, true, false)
		if err != nil {
			return err
		}
		p.check(r, out)
		rccRun += r.elapsed
		rccChecked += float64(r.runtime.CheckedAccesses)
		rccTotal += float64(r.runtime.TotalAccesses)
		r, err = runProgram(p, p.chord, p.chordMask, true, false)
		if err != nil {
			return err
		}
		p.check(r, out)
		chordChecked += float64(r.runtime.CheckedAccesses)
		chordTotal += float64(r.runtime.TotalAccesses)
	}
	out.set("mj.parse_check_ms", ms(fe.parseCheck))
	out.set("mj.uninstrumented_s", uninstr.Seconds())
	out.set("static.chord_ms", ms(fe.chordDur))
	out.set("static.rcc_ms", ms(fe.rccDur))
	out.set("static.chord_checked_share", ratio(chordChecked, chordTotal))
	out.set("static.rcc_checked_share", ratio(rccChecked, rccTotal))
	out.set("static.rcc_run_s", rccRun.Seconds())
	zeroLayers(out, "core.checkpoint", "core.restore", "event.", "server.")
	return nil
}
