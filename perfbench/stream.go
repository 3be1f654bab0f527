package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/event"
	"goldilocks/internal/server"
)

// streamShape is what tells the two stream workloads apart.
type streamShape struct {
	name string
	// steps is the length of each session's trace. Session length is
	// part of the workload: a periodic checkpoint snapshots the whole
	// event list, so its cost grows with it.
	steps int
	// traces is how many distinct traces the clients cycle through; 0
	// gives each client a trace of its own.
	traces int
	// flushEvery is the Flush barrier interval in actions; 0 for none.
	flushEvery int
	// perRound is how many sessions each client runs against one
	// daemon. The daemon keeps every closed session in memory, so a
	// fixed number of sessions per daemon lifetime bounds its memory and
	// makes its peak a property of the workload, not of the run length.
	perRound int
}

// longShape crosses eleven of the daemon's periodic checkpoints (every
// 4096 applied actions by default) in each session.
var longShape = streamShape{name: "stream_long", steps: 48 << 10, flushEvery: 512, perRound: 4}

// shortShape stays below the checkpoint interval, so no periodic
// checkpoint fires and each session is dial, stream, close.
var shortShape = streamShape{name: "stream_short", steps: 3000, traces: 8, perRound: 100}

func runStreamLong(cfg config, out *outcome) error  { return runStream(cfg, out, longShape) }
func runStreamShort(cfg config, out *outcome) error { return runStream(cfg, out, shortShape) }

// roundStats is what the clients of one daemon lifetime observed.
type roundStats struct {
	actions         int64
	elapsed         time.Duration
	flushes, totals []float64 // Flush latencies and whole-session times, ms
	attach, closes  []float64 // DialContext and Close latencies, ms
	engine          core.Stats
	rssMB           float64
}

func (r *roundStats) rate() float64 { return float64(r.actions) / r.elapsed.Seconds() }

// runStream runs rounds of nproc closed-loop clients against a fresh
// goldilocksd process each, until the run's time is spent. Each client
// streams its sessions back to back, each under a fresh session id;
// every session's verdicts must equal the in-process reference for its
// trace.
func runStream(cfg config, out *outcome, shape streamShape) error {
	clients := runtime.NumCPU()
	if shape.traces == 0 {
		shape.traces = clients
	}
	if cfg.tiny {
		shape.steps /= 16
		shape.perRound = 1
	}

	// Set-up: start a daemon, generate the traces and compute their
	// reference verdicts. Stopping the daemon is not timed.
	var trs []*traffic
	if err := timeSetup(cfg, out, func() (time.Duration, error) {
		start := time.Now()
		d, err := startDaemon(cfg.daemon, filepath.Join(cfg.dir, "setup"), false)
		if err != nil {
			return 0, err
		}
		trs, err = genTraffics(cfg.seed, shape, nil)
		took := time.Since(start)
		d.stop()
		return took, err
	}); err != nil {
		return err
	}

	measure := cfg.seconds
	if cfg.trace {
		measure /= 2
	}
	ctx := context.Background()
	var rates, waits, rss []float64
	deadline := time.Now().Add(measure)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		r, _, err := streamRound(ctx, cfg, out, shape, trs, clients, round, nil)
		if err != nil {
			return err
		}
		rates = append(rates, r.rate())
		rss = append(rss, r.rssMB)
		if shape.flushEvery > 0 {
			waits = append(waits, r.flushes...)
		} else {
			waits = append(waits, r.totals...)
		}
	}
	rate := median(rates)
	out.set("events_per_s", rate)
	out.set("wait_p50_ms", quantile(waits, 0.50))
	out.set("wait_p99_ms", quantile(waits, 0.99))
	out.set("peak_rss_mb", median(rss))
	if !cfg.trace {
		return nil
	}
	return traceStream(ctx, cfg, out, shape, clients, rate)
}

// genTraffics generates the workload's traces from the seed, with their
// reference verdicts.
func genTraffics(seed int64, shape streamShape, sp *spans) ([]*traffic, error) {
	trs := make([]*traffic, shape.traces)
	for i := range trs {
		var err error
		if trs[i], err = newTraffic(seed*1000+int64(i), shape.steps, sp); err != nil {
			return nil, err
		}
	}
	return trs, nil
}

// streamRound starts a daemon, runs every client's sessions of one
// round against it, and stops it; every session is an operation of out.
// A traced round (sends non-nil) runs a daemon that samples every record
// into its stage histograms, times every client Send, and returns the
// daemon's metrics, scraped after the last session closed.
func streamRound(ctx context.Context, cfg config, out *outcome, shape streamShape,
	trs []*traffic, clients, round int, sends *hist) (*roundStats, *scrape, error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("round-%d", round))
	d, err := startDaemon(cfg.daemon, dir, sends != nil)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	defer d.stop()

	results := make([]roundStats, clients)
	var mu sync.Mutex // guards out
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < shape.perRound; n++ {
				tr := trs[(c+n*clients)%len(trs)]
				id := fmt.Sprintf("%s-%d-%d-%d-%d", shape.name, cfg.seed, round, c, n)
				err := runSession(ctx, d.addr, id, tr, shape.flushEvery, sends, &results[c])
				mu.Lock()
				out.attempted++
				if err != nil {
					out.fail("session %s: %v", id, err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	all := &roundStats{elapsed: time.Since(start)}
	for _, r := range results {
		all.actions += r.actions
		all.flushes = append(all.flushes, r.flushes...)
		all.totals = append(all.totals, r.totals...)
		all.attach = append(all.attach, r.attach...)
		all.closes = append(all.closes, r.closes...)
		all.engine = addStats(all.engine, r.engine)
	}
	if all.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, nil, err
	}
	var sc *scrape
	if sends != nil {
		if sc, err = d.scrape(ctx); err != nil {
			return nil, nil, err
		}
	}
	return all, sc, nil
}

// runSession streams one trace under a fresh session id and checks the
// daemon's verdicts against the reference. Flush barriers that find the
// wrong number of actions applied are errors too. sends, when non-nil,
// times every Send: the client's encode and buffered write.
func runSession(ctx context.Context, addr, id string, tr *traffic, flushEvery int, sends *hist, res *roundStats) error {
	start := time.Now()
	c, err := server.DialContext(ctx, addr, id, server.DialConfig{})
	if err != nil {
		return err
	}
	res.attach = append(res.attach, ms(time.Since(start)))
	if c.Next() != 0 {
		c.Abandon()
		return fmt.Errorf("fresh session resumed at %d", c.Next())
	}
	for i, a := range tr.actions {
		var s0 time.Time
		if sends != nil {
			s0 = time.Now()
		}
		if err := c.Send(a); err != nil {
			c.Abandon()
			return err
		}
		if sends != nil {
			sends.observe(uint64(time.Since(s0)))
		}
		if flushEvery > 0 && (i+1)%flushEvery == 0 && i+1 < len(tr.actions) {
			f0 := time.Now()
			ack, err := c.Flush()
			if err != nil {
				c.Abandon()
				return fmt.Errorf("flush at %d: %w", i+1, err)
			}
			res.flushes = append(res.flushes, ms(time.Since(f0)))
			if ack.Applied != uint64(i+1) {
				c.Abandon()
				return fmt.Errorf("flush at %d: %d applied", i+1, ack.Applied)
			}
		}
	}
	c0 := time.Now()
	ack, err := c.Close()
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	res.closes = append(res.closes, ms(time.Since(c0)))
	res.totals = append(res.totals, ms(time.Since(start)))
	res.actions += int64(len(tr.actions))
	if ack.Applied != uint64(len(tr.actions)) {
		return fmt.Errorf("final ack: %d of %d applied", ack.Applied, len(tr.actions))
	}
	if got := raceKeys(c.Races()); !slices.Equal(got, tr.keys) {
		return fmt.Errorf("races %v, reference %v", got, tr.keys)
	}
	if ack.Stats != nil {
		res.engine = addStats(res.engine, *ack.Stats)
	}
	return nil
}

// traceStream is the traced half of a stream run: one round against a
// daemon sampling every record into its stage histograms, with clients
// timing their own calls, the reference replay timed call by call, and
// probes of the checkpoint and wire codecs on the same traces.
func traceStream(ctx context.Context, cfg config, out *outcome, shape streamShape, clients int, untracedRate float64) error {
	var sp spans
	trs, err := genTraffics(cfg.seed, shape, &sp)
	if err != nil {
		return err
	}
	var sends hist
	st, sc, err := streamRound(ctx, cfg, out, shape, trs, clients, -1, &sends)
	if err != nil {
		return err
	}

	out.set("obs.trace_overhead", untracedRate/st.rate()-1)
	sp.report(out)
	apply := sc.hists["goldilocksd_stage_apply_us"]
	if apply == nil {
		return fmt.Errorf("scrape has no apply stage histogram")
	}
	out.set("core.busy_s", apply.sum/1e6) // the daemon's own time in Engine.Step
	// The longest event list comes from the reference replay, which
	// runs the same traces through an engine configured like the
	// daemon's session engines.
	listPeak := 0
	for _, tr := range trs {
		listPeak = max(listPeak, tr.listPeak)
	}
	setEngineStats(out, st.engine, listPeak)

	// Checkpoint probe: snapshot and restore the reference engine at the
	// end of the first trace.
	eng := core.NewEngine(core.DefaultOptions())
	for _, a := range trs[0].actions {
		eng.Step(a)
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if err := eng.Checkpoint(&buf); err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	out.set("core.checkpoint_ms", ms(time.Since(t0)))
	out.set("core.checkpoint_bytes", float64(buf.Len()))
	t0 = time.Now()
	if _, err := core.RestoreEngine(bytes.NewReader(buf.Bytes()), core.RestoreAttach{}); err != nil {
		return fmt.Errorf("restore probe: %w", err)
	}
	out.set("core.restore_ms", ms(time.Since(t0)))

	if err := codecProbe(out, trs); err != nil {
		return err
	}

	q := func(name string, h *promHist, scale float64) {
		out.set(name+".p50", h.quantile(0.50)*scale)
		out.set(name+".p99", h.quantile(0.99)*scale)
	}
	q("server.queue_wait_us", sc.hists["goldilocksd_stage_queue_wait_us"], 1)
	q("server.apply_us", apply, 1)
	q("server.verdict_flush_us", sc.hists["goldilocksd_stage_verdict_flush_us"], 1)
	q("server.checkpoint_write_ms", sc.hists["goldilocksd_stage_checkpoint_write_us"], 1e-3)
	out.set("server.attach_ms.p50", quantile(st.attach, 0.50))
	out.set("server.attach_ms.p99", quantile(st.attach, 0.99))
	out.set("server.close_ms.p50", quantile(st.closes, 0.50))
	out.set("server.close_ms.p99", quantile(st.closes, 0.99))
	out.set("server.checkpoints", sc.values["goldilocksd_checkpoints_written_total"])
	out.set("server.client_encode_us.p50", sends.quantile(0.50)/1e3)
	// Every session has closed, yet the daemon still holds one set of
	// gauges per session it ever served.
	out.set("server.sessions_retained", float64(len(sc.labelled("goldilocksd_session_applied_total"))))
	if active := sc.values["goldilocksd_sessions_active"]; active != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v sessions still attached after every client closed\n", shape.name, active)
	}
	zeroLayers(out, "mj.", "jrt.", "static.", "stm.")
	return nil
}

// codecProbe times the binary wire codec over the traces: each action
// encoded into an event frame, then every frame read back and decoded.
func codecProbe(out *outcome, trs []*traffic) error {
	n := 0
	for _, tr := range trs {
		n += len(tr.actions)
	}
	wire := make([]byte, 0, 32*n) // no frame of this traffic exceeds 32 bytes
	t0 := time.Now()
	for _, tr := range trs {
		for _, a := range tr.actions {
			wire = event.AppendEventFrame(wire, a, 0)
		}
	}
	encode := time.Since(t0)
	fr := event.NewFrameReader(bufio.NewReader(bytes.NewReader(wire)))
	t0 = time.Now()
	for i := 0; i < n; i++ {
		typ, body, err := fr.Next()
		if err != nil {
			return fmt.Errorf("codec probe: frame %d: %w", i, err)
		}
		if typ != event.FrameEvent {
			return fmt.Errorf("codec probe: frame %d has type %d", i, typ)
		}
		if _, _, err := event.DecodeEventFrame(body); err != nil {
			return fmt.Errorf("codec probe: frame %d: %w", i, err)
		}
	}
	decode := time.Since(t0)
	out.set("event.encode_ns", float64(encode.Nanoseconds())/float64(n))
	out.set("event.decode_ns", float64(decode.Nanoseconds())/float64(n))
	out.set("event.wire_bytes_per_event", float64(len(wire))/float64(n))
	return nil
}
