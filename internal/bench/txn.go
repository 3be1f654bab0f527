package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/event"
)

// TxnPoint is one (mix, threads) measurement of the transactional
// sweep: fixed work per thread, so elapsed time is the cost of pushing
// that many commit(R,W) actions through the detector at the given
// concurrency. Governor fields record how the memory ladder behaved
// under the load (nonzero only for the governed mix).
type TxnPoint struct {
	Mix           string  `json:"mix"`
	Threads       int     `json:"threads"`
	Commits       int64   `json:"commits"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	Races         uint64  `json:"races"`
	// XactHits counts pair checks short-circuited by the transactions
	// rule — the detector-side win transactional synchronization buys.
	XactHits uint64 `json:"xact_hits"`
	// VarsTracked and the governor counters tie throughput to memory
	// pressure: the governed mix must show rung climbs, not OOM.
	VarsTracked    uint64 `json:"vars_tracked"`
	GovernorRung   int    `json:"governor_rung"`
	Escalations    uint64 `json:"escalations"`
	DegradedChecks uint64 `json:"degraded_checks"`
}

// TxnReport is the machine-readable output of the -txn sweep
// (BENCH_txn.json). Interpretation notes live in docs/PERFORMANCE.md:
// the contended mix bounds the per-variable serialization floor (every
// commit conflicts, every commit synchronizes), the disjoint mix is the
// scalable end (per-thread variables, commits only synchronize through
// the global commit chain), and the governed mix reruns disjoint under
// a deliberately tiny memory budget to measure throughput under
// degradation instead of failure.
type TxnReport struct {
	NumCPU           int          `json:"num_cpu"`
	GoVersion        string       `json:"go_version"`
	GitCommit        string       `json:"git_commit"`
	Engine           EngineConfig `json:"engine"`
	CommitsPerThread int          `json:"commits_per_thread"`
	Points           []TxnPoint   `json:"points"`
}

// txnMix names one commit pattern. op issues one iteration for worker w
// (distinct thread id per worker): a checked read followed by a
// commit(R,W), the shape the stm layer produces for every transaction.
type txnMix struct {
	name string
	// budget, when nonzero, replaces the default memory budget so the
	// governor's degradation ladder engages during the sweep.
	budget int
	op     func(e *core.Engine, w, i int)
}

var txnMixes = []txnMix{
	{
		// Every thread commits against the same two fields: maximal
		// conflict, every commit pair intersects, so this measures the
		// per-variable serialization floor of the commit path.
		name: "contended",
		op: func(e *core.Engine, w, i int) {
			t := event.Tid(w + 1)
			e.Read(t, 7, 1)
			e.Commit(t,
				[]event.Variable{{Obj: 7, Field: 1}},
				[]event.Variable{{Obj: 7, Field: 0}})
		},
	},
	{
		// Per-thread objects: read and write sets never intersect across
		// threads, the regime transactional scaling claims apply to.
		name: "disjoint",
		op: func(e *core.Engine, w, i int) {
			t := event.Tid(w + 1)
			o := event.Addr(1000 + w)
			e.Read(t, o, event.FieldID(i&3))
			e.Commit(t,
				[]event.Variable{{Obj: o, Field: event.FieldID(i & 3)}},
				[]event.Variable{{Obj: o, Field: event.FieldID((i + 1) & 3)}})
		},
	},
	{
		// The disjoint pattern under a budget far below its working set:
		// the governor must climb its rungs and keep serving commits.
		name:   "governed",
		budget: 4096,
		op: func(e *core.Engine, w, i int) {
			t := event.Tid(w + 1)
			o := event.Addr(1000 + w)
			e.Read(t, o, event.FieldID(i&3))
			e.Commit(t,
				[]event.Variable{{Obj: o, Field: event.FieldID(i & 3)}},
				[]event.Variable{{Obj: o, Field: event.FieldID((i + 1) & 3)}})
		},
	},
}

// DefaultTxnThreads is the thread ladder of the -txn sweep. The top
// rungs are the point of the exercise: commit processing at thousands
// of concurrent threads, far past the paper's 500-thread Table 3.
func DefaultTxnThreads(full bool) []int {
	if full {
		return []int{64, 256, 1000, 2000, 4000}
	}
	return []int{64, 256, 1000, 2000}
}

// Txn runs the transactional sweep: for each mix and thread count,
// threads goroutines (each a distinct detector thread id) issue
// commitsPerThread read+commit pairs against a fresh engine. progress,
// when non-nil, receives one line per point.
func Txn(threadsList []int, commitsPerThread int, progress func(string)) TxnReport {
	opts := txnOptions(0)
	rep := TxnReport{
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
		GitCommit: gitCommit(),
		Engine: EngineConfig{
			Shards:       core.NewEngine(opts).ShardCount(),
			MemoryBudget: opts.MemoryBudget,
			GCThreshold:  opts.GCThreshold,
			Detector:     core.NewEngine(opts).Name(),
		},
		CommitsPerThread: commitsPerThread,
	}
	for _, mix := range txnMixes {
		for _, threads := range threadsList {
			p := txnOnePoint(mix, threads, commitsPerThread)
			rep.Points = append(rep.Points, p)
			if progress != nil {
				progress(fmt.Sprintf("txn: %s threads=%d %.0f commits/sec (rung %d)",
					p.Mix, p.Threads, p.CommitsPerSec, p.GovernorRung))
			}
		}
	}
	return rep
}

func txnOptions(budget int) core.Options {
	opts := core.DefaultOptions()
	opts.MemoryBudget = 1 << 20
	if budget != 0 {
		opts.MemoryBudget = budget
	}
	return opts
}

func txnOnePoint(mix txnMix, threads, commitsPerThread int) TxnPoint {
	e := core.NewEngine(txnOptions(mix.budget))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commitsPerThread; i++ {
				mix.op(e, w, i)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := e.Stats()
	commits := int64(threads) * int64(commitsPerThread)
	return TxnPoint{
		Mix:            mix.name,
		Threads:        threads,
		Commits:        commits,
		ElapsedMS:      float64(elapsed) / float64(time.Millisecond),
		CommitsPerSec:  float64(commits) / elapsed.Seconds(),
		Races:          st.Races,
		XactHits:       st.XactHits,
		VarsTracked:    st.VarsTracked,
		GovernorRung:   int(st.GovernorRung),
		Escalations:    st.Escalations,
		DegradedChecks: st.DegradedChecks,
	}
}

// FormatTxn renders the report as the aligned text table racebench
// prints alongside the JSON artifact.
func FormatTxn(rep TxnReport) string {
	s := fmt.Sprintf("Transactional commit sweep (NumCPU=%d, %s, %d commits/thread)\n",
		rep.NumCPU, rep.GoVersion, rep.CommitsPerThread)
	s += fmt.Sprintf("%-10s %8s %14s %10s %6s %12s\n",
		"mix", "threads", "commits/sec", "xact-hits", "rung", "degraded")
	for _, p := range rep.Points {
		s += fmt.Sprintf("%-10s %8d %14.0f %10d %6d %12d\n",
			p.Mix, p.Threads, p.CommitsPerSec, p.XactHits, p.GovernorRung, p.DegradedChecks)
	}
	return s
}

// MarshalTxn serializes the report for BENCH_txn.json.
func MarshalTxn(rep TxnReport) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}
