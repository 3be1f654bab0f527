package main

import (
	"math/bits"
	"sync/atomic"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/jrt"
)

// hist is a log-linear latency histogram safe for concurrent use: 16
// buckets per power of two, so a reported quantile is within about 6%
// of the true value. Spans of the traced runs land here, aggregated per
// name in memory, and are read out when the run ends.
type hist struct {
	buckets [1024]atomic.Uint64
	n, sum  atomic.Uint64
}

func bucketOf(v uint64) int {
	if v < 32 {
		return int(v)
	}
	e := bits.Len64(v) - 5
	return e*16 + int(v>>uint(e))
}

// bucketMid returns the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	if i < 32 {
		return float64(i)
	}
	e := i/16 - 1
	m := uint64(i%16 + 16)
	lo := m << uint(e)
	return float64(lo) + float64(uint64(1)<<uint(e))/2
}

func (h *hist) observe(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

func (h *hist) count() uint64 { return h.n.Load() }

// quantile returns the nearest-rank q-quantile, 0 with no observations.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.buckets) - 1)
}

// spans times every call the runtime makes into the engine. It
// implements jrt.Detector around a core.Engine, so the interpreter's
// use of the detector is measured from outside the engine.
type spans struct {
	eng                              *core.Engine
	read, write, sync, commit, alloc hist

	// Calls from many threads overlap, so their summed time can exceed
	// the wall time of the run. covered is the wall time during which at
	// least one call was in progress: active counts the calls in
	// progress, and coverStart is when the count last left zero.
	active, coverStart, covered atomic.Int64
}

var _ jrt.Detector = (*spans)(nil)

// epoch anchors span timestamps to the monotonic clock.
var epoch = time.Now()

func (s *spans) enter() time.Time {
	now := time.Now()
	if s.active.Add(1) == 1 {
		s.coverStart.Store(int64(now.Sub(epoch)))
	}
	return now
}

func (s *spans) exit(h *hist, start time.Time) {
	now := time.Now()
	h.observe(uint64(now.Sub(start)))
	if s.active.Add(-1) == 0 {
		// A call entering between the decrement and this load moves
		// coverStart forward; the interval then reads short or negative
		// and is dropped, so covered can only under-count.
		if d := int64(now.Sub(epoch)) - s.coverStart.Load(); d > 0 {
			s.covered.Add(d)
		}
	}
}

func (s *spans) Sync(a event.Action) {
	start := s.enter()
	s.eng.Sync(a)
	s.exit(&s.sync, start)
}

func (s *spans) Read(t event.Tid, o event.Addr, f event.FieldID) *detect.Race {
	start := s.enter()
	r := s.eng.Read(t, o, f)
	s.exit(&s.read, start)
	return r
}

func (s *spans) Write(t event.Tid, o event.Addr, f event.FieldID) *detect.Race {
	start := s.enter()
	r := s.eng.Write(t, o, f)
	s.exit(&s.write, start)
	return r
}

func (s *spans) Commit(t event.Tid, reads, writes []event.Variable) []detect.Race {
	start := s.enter()
	r := s.eng.Commit(t, reads, writes)
	s.exit(&s.commit, start)
	return r
}

func (s *spans) Alloc(t event.Tid, o event.Addr) {
	start := s.enter()
	s.eng.Alloc(t, o)
	s.exit(&s.alloc, start)
}

// step replays one action of a linearized trace, the way
// core.Engine.Step dispatches it, through the timed entry points.
func (s *spans) step(a event.Action) []detect.Race {
	switch a.Kind {
	case event.KindRead:
		if r := s.Read(a.Thread, a.Obj, a.Field); r != nil {
			return []detect.Race{*r}
		}
	case event.KindWrite:
		if r := s.Write(a.Thread, a.Obj, a.Field); r != nil {
			return []detect.Race{*r}
		}
	case event.KindCommit:
		return s.Commit(a.Thread, a.Reads, a.Writes)
	case event.KindAlloc:
		s.Alloc(a.Thread, a.Obj)
	case event.KindTxBegin, event.KindTxEnd:
	default:
		s.Sync(a)
	}
	return nil
}

// calls returns how many engine calls were timed.
func (s *spans) calls() uint64 {
	return s.read.count() + s.write.count() + s.sync.count() + s.commit.count() + s.alloc.count()
}

// busy returns the time spent inside engine calls, summed over threads.
func (s *spans) busy() time.Duration {
	var ns uint64
	for _, h := range []*hist{&s.read, &s.write, &s.sync, &s.commit, &s.alloc} {
		ns += h.sum.Load()
	}
	return time.Duration(ns)
}

// merge adds o's observations into s (per-program spans roll up into
// the workload's).
func (s *spans) merge(o *spans) {
	pairs := [][2]*hist{{&s.read, &o.read}, {&s.write, &o.write}, {&s.sync, &o.sync}, {&s.commit, &o.commit}, {&s.alloc, &o.alloc}}
	for _, p := range pairs {
		for i := range p[1].buckets {
			if c := p[1].buckets[i].Load(); c != 0 {
				p[0].buckets[i].Add(c)
			}
		}
		p[0].n.Add(p[1].n.Load())
		p[0].sum.Add(p[1].sum.Load())
	}
	s.covered.Add(o.covered.Load())
}

// report sets the per-kind engine call latencies and busy time.
func (s *spans) report(out *outcome) {
	out.set("core.busy_s", s.busy().Seconds())
	for _, k := range []struct {
		name string
		h    *hist
	}{{"core.read_ns", &s.read}, {"core.write_ns", &s.write}, {"core.sync_ns", &s.sync}, {"core.commit_ns", &s.commit}} {
		out.set(k.name+".p50", k.h.quantile(0.50))
		out.set(k.name+".p99", k.h.quantile(0.99))
	}
}

// sampleListLen samples eng's event-list length every 2 ms until the
// returned function is called; that call returns the longest seen.
func sampleListLen(eng *core.Engine) func() int {
	stop, peak := make(chan struct{}), make(chan int, 1)
	go func() {
		longest := 0
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			longest = max(longest, eng.ListLen())
			select {
			case <-stop:
				peak <- longest
				return
			case <-tick.C:
			}
		}
	}()
	return func() int {
		close(stop)
		return <-peak
	}
}

// setEngineStats reports the engine's own counters.
func setEngineStats(out *outcome, st core.Stats, listPeak int) {
	out.set("core.pair_checks", float64(st.PairChecks))
	out.set("core.hb_cache_hits", float64(st.HBCacheHits))
	out.set("core.short_circuit_rate", st.ShortCircuitRate())
	out.set("core.fast_path_rate", st.FastPathRate())
	out.set("core.full_walk_rate", st.FullWalkRate())
	out.set("core.walk_cells_per_check", st.AvgWalkCells())
	out.set("core.races", float64(st.Races))
	out.set("core.list_len_peak", float64(listPeak))
	out.set("core.gc_collections", float64(st.Collections))
	out.set("core.gc_reclaim_rate", st.GCReclaimRate())
	out.set("core.infos_advanced", float64(st.InfosAdvanced))
	out.set("core.escalations", float64(st.Escalations))
	out.set("core.eager_sweeps", float64(st.EagerSweeps))
	out.set("core.degraded_checks", float64(st.DegradedChecks))
	out.set("core.governor_rung", float64(st.GovernorRung))
}

// addStats sums engine counters across engines; GovernorRung keeps the
// highest rung reached.
func addStats(a, b core.Stats) core.Stats {
	a.AccessesChecked += b.AccessesChecked
	a.PairChecks += b.PairChecks
	a.SC1Hits += b.SC1Hits
	a.SC2Hits += b.SC2Hits
	a.SC3Hits += b.SC3Hits
	a.XactHits += b.XactHits
	a.HBCacheHits += b.HBCacheHits
	a.FastPathHits += b.FastPathHits
	a.FullWalks += b.FullWalks
	a.WalkCells += b.WalkCells
	a.Races += b.Races
	a.VarsTracked += b.VarsTracked
	a.EventsEnqueued += b.EventsEnqueued
	a.CellsCollected += b.CellsCollected
	a.Collections += b.Collections
	a.InfosAdvanced += b.InfosAdvanced
	a.PanicsRecovered += b.PanicsRecovered
	a.VarsQuarantined += b.VarsQuarantined
	if b.GovernorRung > a.GovernorRung {
		a.GovernorRung = b.GovernorRung
	}
	a.Escalations += b.Escalations
	a.AggressiveGCs += b.AggressiveGCs
	a.CacheSheds += b.CacheSheds
	a.EagerSweeps += b.EagerSweeps
	a.DegradedChecks += b.DegradedChecks
	return a
}

// zeroLayers sets the named per-layer metrics to 0: the workload does
// no work in those layers, and reporting 0 says so.
func zeroLayers(out *outcome, prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if len(m.name) >= len(p) && m.name[:len(p)] == p {
				if _, ok := out.metrics[m.name]; !ok {
					out.set(m.name, 0)
				}
			}
		}
	}
}
