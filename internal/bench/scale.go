package bench

import (
	"encoding/json"
	"fmt"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
)

// ScalePoint is one (mix, GOMAXPROCS) measurement of the scalability
// sweep: raw operation count, wall time, throughput, and the speedup
// relative to the single-proc point of the same mix.
type ScalePoint struct {
	Mix       string  `json:"mix"`
	Procs     int     `json:"procs"`
	Ops       int64   `json:"ops"`
	ElapsedMS float64 `json:"elapsed_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Speedup   float64 `json:"speedup_vs_1proc"`
	// Oversubscribed marks points where procs exceeds the hardware
	// parallelism (runtime.NumCPU): more workers than CPUs cannot speed
	// up, only add scheduler churn and preempted-lock-holder convoys, so
	// a sub-1x Speedup here is oversubscription, not a scaling
	// regression. See docs/PERFORMANCE.md.
	Oversubscribed bool `json:"oversubscribed,omitempty"`
}

// EngineConfig records the engine configuration a sweep ran with, so a
// BENCH_scale.json number can be tied to the shard count, memory
// budget, and detector that produced it.
type EngineConfig struct {
	Shards       int    `json:"shards"`
	MemoryBudget int    `json:"memory_budget"`
	GCThreshold  int    `json:"gc_threshold"`
	Detector     string `json:"detector"`
}

// ScaleReport is the machine-readable output of the -scale sweep.
// NumCPU records the hardware parallelism actually available: on a
// single-CPU machine raising GOMAXPROCS cannot yield speedup, and the
// sweep is a contention (not a scaling) measurement — consumers must
// interpret Speedup against NumCPU, not against Procs. GitCommit and
// Engine identify what was measured: the source revision and the
// engine configuration.
type ScaleReport struct {
	NumCPU     int          `json:"num_cpu"`
	GoVersion  string       `json:"go_version"`
	GitCommit  string       `json:"git_commit"`
	Engine     EngineConfig `json:"engine"`
	PerPointMS float64      `json:"per_point_ms"`
	Points     []ScalePoint `json:"points"`
}

// gitCommit resolves the source revision the binary was built from: the
// vcs.revision build setting when the binary was built inside a
// checkout, falling back to asking git directly (test binaries), or
// "unknown" outside any repository.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	return "unknown"
}

// scaleMix names one access pattern of the sweep and the per-worker
// operation it hammers the engine with.
type scaleMix struct {
	name string
	// op performs one iteration for worker w (distinct thread id per
	// worker) against e; i is the iteration counter.
	op func(e *core.Engine, w, i int)
}

// scaleMixes are the two ends of the sharing spectrum. "disjoint"
// touches per-worker variables only — every layer of the hot path
// (variable shard, varState mutex, lock records) is private, so this is
// the pattern the de-serialized engine should scale on given hardware
// parallelism. "shared" has every worker read the same variable —
// varState serialization is inherent to the algorithm (per-variable
// check-then-install must be atomic), so this bounds the contention
// floor rather than demonstrating speedup.
var scaleMixes = []scaleMix{
	{
		name: "disjoint",
		op: func(e *core.Engine, w, i int) {
			t := event.Tid(w + 1)
			o := event.Addr(1000 + w)
			d := event.FieldID(i & 3)
			e.Write(t, o, d)
			e.Read(t, o, d)
		},
	},
	{
		name: "shared",
		op: func(e *core.Engine, w, i int) {
			e.Read(event.Tid(w+1), 42, 0)
		},
	},
}

// Scale runs the scalability sweep: for each mix and each GOMAXPROCS
// value it spins up procs workers against a fresh engine for roughly
// perPoint and records throughput. The returned report carries
// runtime.NumCPU so a flat speedup curve on a small machine is
// distinguishable from a contention regression. tel, when non-nil, is
// shared by every point's engine, so a live -metrics-addr endpoint sees
// the cumulative rule-fire counters across the sweep.
func Scale(procsList []int, perPoint time.Duration, tel *obs.Telemetry, progress func(string)) ScaleReport {
	opts := scaleOptions(tel)
	rep := ScaleReport{
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
		GitCommit: gitCommit(),
		Engine: EngineConfig{
			Shards:       core.NewEngine(opts).ShardCount(),
			MemoryBudget: opts.MemoryBudget,
			GCThreshold:  opts.GCThreshold,
			Detector:     core.NewEngine(opts).Name(),
		},
		PerPointMS: float64(perPoint) / float64(time.Millisecond),
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, mix := range scaleMixes {
		var base float64
		for _, procs := range procsList {
			runtime.GOMAXPROCS(procs)
			ops, elapsed := scaleOnePoint(mix, procs, perPoint, tel)
			p := ScalePoint{
				Mix:            mix.name,
				Procs:          procs,
				Ops:            ops,
				ElapsedMS:      float64(elapsed) / float64(time.Millisecond),
				OpsPerSec:      float64(ops) / elapsed.Seconds(),
				Oversubscribed: procs > rep.NumCPU,
			}
			if base == 0 {
				base = p.OpsPerSec
			}
			p.Speedup = p.OpsPerSec / base
			rep.Points = append(rep.Points, p)
			progress(fmt.Sprintf("scale: %s procs=%d %.0f ops/sec (%.2fx)",
				p.Mix, p.Procs, p.OpsPerSec, p.Speedup))
		}
	}
	return rep
}

// scaleOptions is the engine configuration every sweep point runs with.
func scaleOptions(tel *obs.Telemetry) core.Options {
	opts := core.DefaultOptions()
	opts.MemoryBudget = 1 << 20
	opts.Telemetry = tel
	return opts
}

// scaleOnePoint measures one cell of the sweep: procs workers hammer a
// fresh engine until the deadline, and the total operation count and
// true elapsed time come back.
func scaleOnePoint(mix scaleMix, procs int, perPoint time.Duration, tel *obs.Telemetry) (int64, time.Duration) {
	e := core.NewEngine(scaleOptions(tel))

	var stop atomic.Bool
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var n int64
			for i := 0; !stop.Load(); i++ {
				mix.op(e, w, i)
				n++
			}
			total.Add(n)
		}(w)
	}
	time.Sleep(perPoint)
	stop.Store(true)
	wg.Wait()
	return total.Load(), time.Since(start)
}

// FormatScale renders the report as the aligned text table racebench
// prints alongside the JSON artifact.
func FormatScale(rep ScaleReport) string {
	s := fmt.Sprintf("Scalability sweep (NumCPU=%d, %s)\n", rep.NumCPU, rep.GoVersion)
	s += fmt.Sprintf("%-10s %6s %14s %10s\n", "mix", "procs", "ops/sec", "speedup")
	for _, p := range rep.Points {
		over := ""
		if p.Oversubscribed {
			over = "  (oversubscribed)"
		}
		s += fmt.Sprintf("%-10s %6d %14.0f %9.2fx%s\n", p.Mix, p.Procs, p.OpsPerSec, p.Speedup, over)
	}
	return s
}

// MarshalScale serializes the report for BENCH_scale.json.
func MarshalScale(rep ScaleReport) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}
