package main

import (
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/event"
)

// txnThreads is how many detector threads commit, round-robin. The
// governor's sweep visits every thread's variables, so its cost grows
// with this count.
const txnThreads = 1000

// txnBudget is the engine's memory budget in event-list cells, far below
// the working set the txnThreads threads keep live.
const txnBudget = 4096

// txnPlan is the seeded input of the governed commit mix: for each
// detector thread, its private object and the field each of its commits
// reads (it writes the next field).
type txnPlan struct {
	objs   []event.Addr
	fields [][]event.FieldID // per thread, one entry per round
}

// newTxnPlan draws rounds commits per thread from the seed.
func newTxnPlan(seed int64, threads, rounds int) txnPlan {
	rng := rand.New(rand.NewSource(seed))
	p := txnPlan{objs: make([]event.Addr, threads), fields: make([][]event.FieldID, threads)}
	perm := rng.Perm(threads)
	for t := range p.objs {
		p.objs[t] = event.Addr(1000 + perm[t])
		fs := make([]event.FieldID, rounds)
		for i := range fs {
			fs[i] = event.FieldID(rng.Intn(4))
		}
		p.fields[t] = fs
	}
	return p
}

// runTxnGoverned drives an in-process engine with read + Commit pairs on
// disjoint per-thread objects for txnThreads detector threads, under a
// memory budget far below the working set, so the governor does most of
// the work. At most GOMAXPROCS goroutines drive; goroutine g serves the
// threads g, g+drivers, ... round-robin, one commit each per round.
func runTxnGoverned(cfg config, out *outcome) error {
	threads, rounds := txnThreads, 64
	if cfg.tiny {
		threads, rounds = 50, 4
	}
	drivers := runtime.GOMAXPROCS(0)

	var plan txnPlan
	var eng *core.Engine
	if err := timeSetup(cfg, out, func() (time.Duration, error) {
		start := time.Now()
		plan = newTxnPlan(cfg.seed, threads, rounds)
		eng = core.NewEngine(txnOptions())
		return time.Since(start), nil
	}); err != nil {
		return err
	}

	measure := cfg.seconds
	if cfg.trace {
		measure /= 2
	}

	// segment drives the mix until the deadline, in whole rounds, and
	// returns the commits done, the elapsed time and the latency of each
	// read + commit pair. The governor works in bursts (commits run fast
	// until the event list reaches the budget, then one sweep stalls
	// them), so the rate is taken over the whole segment.
	var sp *spans
	segment := func(d time.Duration, traced bool) (int64, time.Duration, []float64) {
		deadline := time.Now().Add(d)
		lat := make([][]float64, drivers)
		done := make([]int64, drivers)
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < drivers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; ; round++ {
					if round > 0 && time.Now().After(deadline) {
						return
					}
					i := round % rounds
					for t := g; t < threads; t += drivers {
						tid := event.Tid(t + 1)
						o, f := plan.objs[t], plan.fields[t][i]
						reads := []event.Variable{{Obj: o, Field: f}}
						writes := []event.Variable{{Obj: o, Field: (f + 1) & 3}}
						if traced {
							sp.Read(tid, o, f)
							sp.Commit(tid, reads, writes)
						} else {
							t0 := time.Now()
							eng.Read(tid, o, f)
							eng.Commit(tid, reads, writes)
							lat[g] = append(lat[g], ms(time.Since(t0)))
						}
						done[g]++
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		var n int64
		var all []float64
		for g := range done {
			n += done[g]
			all = append(all, lat[g]...)
		}
		return n, elapsed, all
	}

	// Peak memory is the median over one-second windows of the peak in
	// each: the collector's timing moves a single run-wide peak by a
	// fifth from run to run.
	rss := sampleRSS(os.Getpid(), time.Second)
	n, elapsed, lat := segment(measure, false)
	peaks := rss.stop()
	rate := 2 * float64(n) / elapsed.Seconds() // a read and a commit per op
	out.set("events_per_s", rate)
	out.set("wait_p50_ms", quantile(lat, 0.50))
	out.set("wait_p99_ms", quantile(lat, 0.99))
	out.set("peak_rss_mb", median(peaks))
	total, peak := n, 0
	if cfg.trace {
		sp = &spans{eng: eng}
		listPeak := sampleListLen(eng)
		tn, telapsed, _ := segment(measure, true)
		peak = max(listPeak(), eng.ListLen())
		total += tn
		sp.report(out)
		out.set("obs.trace_overhead", rate/(2*float64(tn)/telapsed.Seconds())-1)
	}

	// Correctness: no race, since no two threads share a variable, and
	// the engine saw exactly the commits made (one event-list cell each)
	// and their accesses (the read plus the commit's read and write).
	// Every read + commit is an operation; each race and each commit or
	// access the engine miscounted is a failed one, so failed/attempted
	// is the share of the run that went wrong.
	st := eng.Stats()
	out.attempted += total
	bad := min(int64(st.Races)+absDiff(st.EventsEnqueued, uint64(total))+
		absDiff(st.AccessesChecked, 3*uint64(total))/3, total)
	if bad > 0 {
		out.failN(bad, "%d races, %d commits and %d accesses on disjoint per-thread objects, want 0, %d and %d",
			st.Races, st.EventsEnqueued, st.AccessesChecked, total, 3*total)
	}
	if cfg.trace {
		setEngineStats(out, st, peak)
		zeroLayers(out, "mj.", "jrt.", "static.", "stm.", "core.checkpoint", "core.restore", "event.", "server.")
	}
	return nil
}

// txnOptions is the engine configuration of the governed mix: the
// paper's defaults under txnBudget.
func txnOptions() core.Options {
	opts := core.DefaultOptions()
	opts.MemoryBudget = txnBudget
	return opts
}

// absDiff returns |a - b| as a count of operations.
func absDiff(a, b uint64) int64 {
	if a > b {
		return int64(a - b)
	}
	return int64(b - a)
}
