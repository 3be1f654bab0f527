// Package conformance is the correctness wall of the detection
// pipeline: a differential and metamorphic test harness that every
// optimization PR must pass before it can claim to preserve the paper's
// Theorem 1 (soundness and completeness of the generalized Goldilocks
// algorithm).
//
// The harness executes one trace through a matrix of backends —
//
//   - the executable specification (core.SpecEngine, eager locksets),
//   - the optimized engine (core.Engine) with serial delivery,
//   - the optimized engine with concurrent event delivery (each trace
//     thread steps the engine from its own goroutine, serialized to the
//     same linearization by a ticket, so cross-goroutine publication
//     inside the engine is exercised under -race),
//   - the vector-clock detector (internal/hb), and
//   - the extended happens-before oracle as ground truth
//
// — and fails on any verdict divergence. The Eraser baseline also runs,
// but only as a may-overapproximate detector: it both false-alarms (on
// ownership transfer) and misses races (its exclusive state hides
// first-owner accesses), so the matrix checks it solely for determinism
// and crash-freedom.
//
// On top of the backend matrix sit metamorphic invariants: the same
// trace must yield identical verdicts with GC off and aggressively on,
// with 1 variable shard and the default 64, with every short-circuit
// disabled, and with telemetry attached (whose rule-fire counts must
// match the spec engine's exactly). A memory-budget-degraded engine may
// only suppress reports, never invent them: its race set must be a
// subset of the precise one.
//
// See docs/TESTING.md for the operational story (fuzzing, shrinking,
// the counterexample corpus).
package conformance

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/detectors/eraser"
	"goldilocks/internal/event"
	"goldilocks/internal/hb"
	"goldilocks/internal/obs"
)

// Divergence describes one conformance failure: which backend or
// invariant disagreed on which trace, and how.
type Divergence struct {
	// Backend names the disagreeing matrix entry ("engine",
	// "engine-concurrent", "variant:shards-1", "oracle-vs-spec", ...).
	Backend string
	// Detail is a human-readable got/want description.
	Detail string
	// Trace is the offending trace (for shrinking and corpus writing).
	Trace *event.Trace
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("conformance: %s diverged: %s", d.Backend, d.Detail)
}

// Result is the outcome of running one trace through the matrix. The
// coverage fields feed the fuzzer's guidance map and the rule-coverage
// report of cmd/racefuzz.
type Result struct {
	// Div is nil when every backend and invariant agreed.
	Div *Divergence
	// Racy reports the ground-truth verdict.
	Racy bool
	// Races is the number of races the spec engine reported over the
	// whole trace.
	Races int
	// Threads is the number of distinct threads in the trace.
	Threads int
	// RuleFires are the Figure 5 rule-fire counts (indexed
	// 1..obs.NumRules) of the spec engine on this trace.
	RuleFires [obs.NumRules + 1]uint64
}

// Variants returns the metamorphic engine configurations that must be
// verdict-equivalent to the spec engine on every trace. Each entry
// stresses a different representation choice; all of them preserve
// precision by design, so any divergence is a bug.
func Variants() map[string]core.Options {
	d := core.DefaultOptions()

	gcOff := d
	gcOff.GCThreshold = 0
	gcOff.PartialEager = false

	gcAggressive := d
	gcAggressive.GCThreshold = 8
	gcAggressive.GCTrimFraction = 0.5

	oneShard := d
	oneShard.VarShards = 1

	noSC := d
	noSC.SC1, noSC.SC2, noSC.SC3, noSC.XactSC = false, false, false, false
	noSC.Memoize, noSC.HBCache = false, false

	return map[string]core.Options{
		"gc-off":        gcOff,
		"gc-aggressive": gcAggressive,
		"shards-1":      oneShard,
		"no-shortcircs": noSC,
	}
}

// DegradedOptions returns an engine configuration whose memory governor
// is guaranteed to ratchet all the way down on any non-trivial trace.
// Degradation trades false negatives for bounded memory, so this
// variant is checked with the subset invariant, not equality.
func DegradedOptions() core.Options {
	d := core.DefaultOptions()
	d.GCThreshold = 0
	d.MemoryBudget = 8
	return d
}

// raceKey is the canonical identity of a reported race: the
// linearization position of the completing access plus the variable.
func raceKey(r detect.Race) string {
	return fmt.Sprintf("%d:%v", r.Pos, r.Var)
}

func raceKeys(races []detect.Race) []string {
	keys := make([]string, len(races))
	for i, r := range races {
		keys[i] = raceKey(r)
	}
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subsetKeys reports whether every key of sub appears in super.
func subsetKeys(sub, super []string) bool {
	set := make(map[string]bool, len(super))
	for _, k := range super {
		set[k] = true
	}
	for _, k := range sub {
		if !set[k] {
			return false
		}
	}
	return true
}

// oracleFirst extracts the ground-truth first race: its linearization
// position and the set of variables racing there (a commit can complete
// races on several variables at once; a precise detector must report at
// that position on one of them, but which one is representation-
// dependent).
func oracleFirst(o *hb.Oracle) (pos int, vars map[string]bool, racy bool) {
	first, found := o.FirstRacePos()
	if !found {
		return 0, nil, false
	}
	vars = make(map[string]bool)
	for _, p := range o.Races() {
		if p.J == first.J {
			vars[p.Var.String()] = true
		}
	}
	return first.J, vars, true
}

// agreesWithOracle checks a detector's first report against the oracle.
func agreesWithOracle(r *detect.Race, pos int, vars map[string]bool, racy bool) bool {
	if !racy {
		return r == nil
	}
	return r != nil && r.Pos == pos && vars[r.Var.String()]
}

// firstOf returns the first reported race of a full run, or nil.
func firstOf(races []detect.Race) *detect.Race {
	if len(races) == 0 {
		return nil
	}
	return &races[0]
}

// RunConcurrent delivers tr to det with one goroutine per trace thread.
// A ticket serializes the Step calls to exactly the trace order — the
// linearization (and therefore the expected verdicts) is unchanged —
// but every action runs on its own thread's goroutine, so the engine's
// cross-goroutine publication (atomic tail snapshots, lock-record
// snapshots, sharded state handoff) is exercised for real; under
// `go test -race` a missing synchronization inside the detector is a
// test failure, not a latent heisenbug.
func RunConcurrent(det detect.Detector, tr *event.Trace) []detect.Race {
	byThread := make(map[event.Tid][]int)
	for i := 0; i < tr.Len(); i++ {
		t := tr.At(i).Thread
		byThread[t] = append(byThread[t], i)
	}

	var (
		mu   sync.Mutex
		cond = sync.NewCond(&mu)
		next int
		out  []detect.Race
		wg   sync.WaitGroup
	)
	for _, idxs := range byThread {
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				mu.Lock()
				for next != i {
					cond.Wait()
				}
				mu.Unlock()
				// The turn is ours: everyone else is parked in Wait, so the
				// Step below runs exclusively — but on this goroutine, with
				// no lock of ours held.
				rs := det.Step(tr.At(i))
				mu.Lock()
				for _, r := range rs {
					r.Pos = i
					out = append(out, r)
				}
				next = i + 1
				cond.Broadcast()
				mu.Unlock()
			}
		}(idxs)
	}
	wg.Wait()
	return out
}

// Check runs tr through the full differential matrix and returns the
// first divergence found, or nil.
func Check(tr *event.Trace) *Divergence { r := Run(tr); return r.Div }

// Run executes the full matrix on tr and reports the outcome together
// with the coverage information the fuzzer feeds on.
func Run(tr *event.Trace) Result {
	res := Result{Threads: len(tr.Threads())}
	fail := func(backend, format string, args ...any) Result {
		res.Div = &Divergence{Backend: backend, Detail: fmt.Sprintf(format, args...), Trace: tr}
		return res
	}

	// The matrix only judges well-formed linearizations; an invalid
	// trace here means the generator or mutator is broken.
	if err := tr.Validate(); err != nil {
		return fail("trace-validity", "invalid trace: %v", err)
	}

	// Ground truth: the extended happens-before oracle.
	pos, vars, racy := oracleFirst(hb.NewOracle(tr))
	res.Racy = racy

	// Executable specification, with telemetry so the rule-fire counts
	// are captured for coverage guidance and for the telemetry-
	// equivalence invariant below.
	specTel := obs.NewTelemetry()
	spec := core.NewSpecEngine()
	spec.SetTelemetry(specTel)
	specRaces := detect.RunTrace(spec, tr)
	specKeys := raceKeys(specRaces)
	res.Races = len(specKeys)
	res.RuleFires = specTel.RuleFires()

	if !agreesWithOracle(firstOf(specRaces), pos, vars, racy) {
		return fail("oracle-vs-spec", "spec first race %v, oracle pos %d vars %v racy %v",
			firstOf(specRaces), pos, vars, racy)
	}

	// Optimized engine, serial delivery, default options.
	engRaces := detect.RunTrace(core.New(), tr)
	if got := raceKeys(engRaces); !equalKeys(got, specKeys) {
		return fail("engine", "races %v, spec %v", got, specKeys)
	}

	// Optimized engine, concurrent event delivery.
	if got := raceKeys(RunConcurrent(core.New(), tr)); !equalKeys(got, specKeys) {
		return fail("engine-concurrent", "races %v, spec %v", got, specKeys)
	}

	// Vector-clock detector: precise on the first race by construction.
	if r := detect.FirstRace(hb.NewDetector(), tr); !agreesWithOracle(r, pos, vars, racy) {
		return fail("vectorclock", "first race %v, oracle pos %d vars %v racy %v", r, pos, vars, racy)
	}

	// Metamorphic invariants: precision-preserving representation
	// changes must not move a single verdict.
	for name, opts := range Variants() {
		if got := raceKeys(detect.RunTrace(core.NewEngine(opts), tr)); !equalKeys(got, specKeys) {
			return fail("variant:"+name, "races %v, spec %v", got, specKeys)
		}
	}

	// Telemetry on/off: identical verdicts, and event-level rule fires
	// identical to the spec engine's (both count per linearization, not
	// per representation).
	telOpts := core.DefaultOptions()
	telOpts.Telemetry = obs.NewTelemetry()
	if got := raceKeys(detect.RunTrace(core.NewEngine(telOpts), tr)); !equalKeys(got, specKeys) {
		return fail("variant:telemetry", "races %v, spec %v", got, specKeys)
	}
	if engFires := telOpts.Telemetry.RuleFires(); engFires != res.RuleFires {
		return fail("variant:telemetry", "rule fires %v, spec %v", engFires, res.RuleFires)
	}

	// Degradation may only suppress reports, never invent them.
	if got := raceKeys(detect.RunTrace(core.NewEngine(DegradedOptions()), tr)); !subsetKeys(got, specKeys) {
		return fail("variant:degraded", "degraded races %v not a subset of spec %v", got, specKeys)
	}

	// Eraser is may-overapproximate AND may-underapproximate (its
	// exclusive state hides first-owner accesses), so verdicts do not
	// gate; determinism and crash-freedom do.
	er1 := raceKeys(detect.RunTrace(eraser.New(), tr))
	er2 := raceKeys(detect.RunTrace(eraser.New(), tr))
	if !equalKeys(er1, er2) {
		return fail("eraser", "non-deterministic: %v vs %v", er1, er2)
	}

	// RegionTrack: the composed serializability checker must be
	// race-verdict-identical to the spec, and its serializability
	// self-invariants (Kahn cross-check, determinism, checkpoint cut)
	// must hold.
	if d := checkRegionTrackRaces(tr, specKeys); d != nil {
		res.Div = d
		return res
	}
	if d := CheckSerializability(tr); d != nil {
		res.Div = d
		return res
	}

	return res
}

// Describe renders a trace as numbered one-action-per-line text, for
// counterexample reports.
func Describe(tr *event.Trace) string {
	var b strings.Builder
	for i := 0; i < tr.Len(); i++ {
		fmt.Fprintf(&b, "%3d  %v\n", i, tr.At(i))
	}
	return b.String()
}
