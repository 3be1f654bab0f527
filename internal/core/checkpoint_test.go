package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/scenarios"
	"goldilocks/internal/tracegen"
)

// ckptRaceKey mirrors the conformance harness's race identity: the
// global linearization position of the completing access plus the
// variable.
func ckptRaceKey(r detect.Race) string { return fmt.Sprintf("%d:%v", r.Pos, r.Var) }

func sortedKeys(races []detect.Race) []string {
	keys := make([]string, len(races))
	for i, r := range races {
		keys[i] = ckptRaceKey(r)
	}
	sort.Strings(keys)
	return keys
}

// checkpointTraces returns the round-trip corpus: the Section 2
// scenarios plus every counterexample trace in the conformance corpus
// (loaded directly from testdata — the core tests cannot import
// internal/conformance, which imports core).
func checkpointTraces(t *testing.T) map[string]*event.Trace {
	t.Helper()
	out := make(map[string]*event.Trace)
	for _, sc := range scenarios.All() {
		out["scenario-"+sc.Name] = sc.Trace
	}
	dir := filepath.Join("..", "conformance", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("opening %s: %v", e.Name(), err)
		}
		tr, dropped, err := event.ReadTraceAuto(f)
		f.Close()
		if err != nil {
			t.Fatalf("reading %s: %v", e.Name(), err)
		}
		if dropped != 0 {
			t.Fatalf("%s: %d corrupt records in checked-in corpus", e.Name(), dropped)
		}
		out["corpus-"+strings.TrimSuffix(e.Name(), ".jsonl")] = tr
	}
	// Commit-heavy marked traces: every-prefix cutting then lands inside
	// transactions mid-flight (between the commits of a publication
	// chain) and inside open txbegin/txend regions, so commit-set and
	// TL-element state must round-trip through the snapshot.
	for seed := int64(1); seed <= 3; seed++ {
		out[fmt.Sprintf("commit-heavy-%d", seed)] = tracegen.FromSeedConfig(seed, tracegen.CommitHeavy())
	}
	// A deterministic TL handoff: the cut between the two commits
	// snapshots the variable while its lockset carries the TL element.
	out["txn-handoff"] = event.NewBuilder().
		Fork(1, 2).
		Write(1, 10, 0).
		TxBegin(1).
		Commit(1, nil, []event.Variable{{Obj: 10, Field: 0}}).
		TxEnd(1).
		Commit(2, []event.Variable{{Obj: 10, Field: 0}}, nil).
		Write(2, 10, 0).
		Trace()
	if len(out) < 5 {
		t.Fatalf("suspiciously small corpus: %d traces", len(out))
	}
	return out
}

// runGlobal drives det over tr[from:] assigning global linearization
// positions, so verdicts from a restored engine are comparable to the
// uninterrupted run's.
func runGlobal(det detect.Detector, tr *event.Trace, from int) []detect.Race {
	var out []detect.Race
	for i := from; i < tr.Len(); i++ {
		for _, r := range det.Step(tr.At(i)) {
			r.Pos = i
			out = append(out, r)
		}
	}
	return out
}

// ckptConfigs are the engine configurations the round-trip test covers:
// the default configuration (with telemetry attached, so rule-fire
// restoration is checked too), an aggressive garbage collector (small
// retained list, infos advanced across checkpoints), and a tight memory
// budget (the governor's degradation ladder engages and must survive
// the restart).
func ckptConfigs() map[string]struct {
	opts core.Options
	tel  bool
} {
	agg := core.DefaultOptions()
	agg.GCThreshold = 8
	agg.GCTrimFraction = 0.5

	budget := core.DefaultOptions()
	budget.GCThreshold = 0
	budget.MemoryBudget = 8

	// The non-default transaction semantics change which commits
	// synchronize, so the snapshot's TxnSemantics field and the
	// Xact/ReadsAllXact bits it guards must restore into identical
	// verdicts on the suffix.
	txnAtomic := core.DefaultOptions()
	txnAtomic.TxnSemantics = event.TxnAtomicOrder
	txnW2R := core.DefaultOptions()
	txnW2R.TxnSemantics = event.TxnWriteToRead

	return map[string]struct {
		opts core.Options
		tel  bool
	}{
		"default":          {core.DefaultOptions(), true},
		"gc-aggressive":    {agg, false},
		"budget-8":         {budget, false},
		"txn-atomic-order": {txnAtomic, false},
		"txn-write-toread": {txnW2R, false},
	}
}

// TestCheckpointEveryPrefix is the restart-transparency wall: for every
// corpus trace and engine configuration, checkpoint at every prefix,
// restore into a fresh engine, replay the suffix, and require verdicts,
// Figure 5 rule-fire counts, and the complete Stats struct to equal the
// uninterrupted run's. A restored engine is indistinguishable from one
// that never stopped.
func TestCheckpointEveryPrefix(t *testing.T) {
	traces := checkpointTraces(t)
	for cfgName, cfg := range ckptConfigs() {
		for name, tr := range traces {
			t.Run(cfgName+"/"+name, func(t *testing.T) {
				opts := cfg.opts
				var baseTel *obs.Telemetry
				if cfg.tel {
					baseTel = obs.NewTelemetry()
					opts.Telemetry = baseTel
				}
				base := core.NewEngine(opts)
				baseRaces := runGlobal(base, tr, 0)
				baseKeys := sortedKeys(baseRaces)
				baseStats := base.Stats()
				var baseFires [obs.NumRules + 1]uint64
				if baseTel != nil {
					baseFires = baseTel.RuleFires()
				}

				for cut := 0; cut <= tr.Len(); cut++ {
					popts := cfg.opts
					var prefTel *obs.Telemetry
					if cfg.tel {
						prefTel = obs.NewTelemetry()
						popts.Telemetry = prefTel
					}
					pref := core.NewEngine(popts)
					var got []detect.Race
					for i := 0; i < cut; i++ {
						for _, r := range pref.Step(tr.At(i)) {
							r.Pos = i
							got = append(got, r)
						}
					}

					var snap bytes.Buffer
					if err := pref.Checkpoint(&snap); err != nil {
						t.Fatalf("cut %d: checkpoint: %v", cut, err)
					}

					attach := core.RestoreAttach{}
					var resTel *obs.Telemetry
					if cfg.tel {
						resTel = obs.NewTelemetry()
						attach.Telemetry = resTel
					}
					restored, err := core.RestoreEngine(bytes.NewReader(snap.Bytes()), attach)
					if err != nil {
						t.Fatalf("cut %d: restore: %v", cut, err)
					}
					// Checkpointing the restored engine reproduces the
					// snapshot byte for byte: the encoding is
					// deterministic and the decoder keeps every field.
					var again bytes.Buffer
					if err := restored.Checkpoint(&again); err != nil {
						t.Fatalf("cut %d: re-checkpoint: %v", cut, err)
					}
					if !bytes.Equal(again.Bytes(), snap.Bytes()) {
						t.Fatalf("cut %d: re-checkpoint of the restored engine differs (%d bytes, snapshot %d)", cut, again.Len(), snap.Len())
					}
					got = append(got, runGlobal(restored, tr, cut)...)

					if gk := sortedKeys(got); !equalStrings(gk, baseKeys) {
						t.Fatalf("cut %d: races %v, uninterrupted %v", cut, gk, baseKeys)
					}
					if gs := restored.Stats(); gs != baseStats {
						t.Fatalf("cut %d: stats diverged\nrestored:      %+v\nuninterrupted: %+v", cut, gs, baseStats)
					}
					if resTel != nil {
						if gf := resTel.RuleFires(); gf != baseFires {
							t.Fatalf("cut %d: rule fires %v, uninterrupted %v", cut, gf, baseFires)
						}
					}
				}
			})
		}
	}
}

// smallSnapshot checkpoints an engine that ran the first Section 2
// scenario.
func smallSnapshot(tb testing.TB) []byte {
	tr := scenarios.All()[0].Trace
	e := core.NewEngine(core.DefaultOptions())
	for i := 0; i < tr.Len(); i++ {
		e.Step(tr.At(i))
	}
	var snap bytes.Buffer
	if err := e.Checkpoint(&snap); err != nil {
		tb.Fatalf("checkpoint: %v", err)
	}
	return snap.Bytes()
}

// TestCheckpointDetectsCorruption damages a small snapshot every way a
// disk or a replica can — every single byte flipped, every truncation
// length — and requires restore to refuse each one with an error, never
// a panic: a torn or bit-rotten snapshot must never silently restore a
// wrong detector.
func TestCheckpointDetectsCorruption(t *testing.T) {
	raw := smallSnapshot(t)
	if _, err := core.RestoreEngine(bytes.NewReader(raw), core.RestoreAttach{}); err != nil {
		t.Fatalf("pristine restore: %v", err)
	}

	for i := range raw {
		corrupt := bytes.Clone(raw)
		corrupt[i] ^= 0xff
		if _, err := core.RestoreEngine(bytes.NewReader(corrupt), core.RestoreAttach{}); err == nil {
			t.Fatalf("snapshot with byte %d of %d flipped restored without error", i, len(raw))
		}
	}
	for n := range len(raw) {
		if _, err := core.RestoreEngine(bytes.NewReader(raw[:n]), core.RestoreAttach{}); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes restored without error", n, len(raw))
		}
	}

	if _, err := core.RestoreEngine(strings.NewReader("not a checkpoint\n"), core.RestoreAttach{}); err == nil {
		t.Fatal("garbage restored without error")
	}
	// Snapshots of earlier releases name their version in the refusal:
	// version 1 had a JSON body, version 2 a binary body with the
	// removed epoch fast path's option bit and hit counter. Restore
	// refuses on the header alone, so the current sealed body stands in
	// for a version-2 one.
	_, sealed, _ := bytes.Cut(raw, []byte("\n"))
	old := map[int]string{
		1: `{"format":"goldilocks-checkpoint","version":1}` + "\n" + `{"engine":{},"crc":"00000000"}` + "\n",
		2: `{"format":"goldilocks-checkpoint","version":2}` + "\n" + string(sealed),
	}
	for v, snap := range old {
		want := fmt.Sprintf("unsupported checkpoint version %d", v)
		if _, err := core.RestoreEngine(strings.NewReader(snap), core.RestoreAttach{}); err == nil ||
			!strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d snapshot: err = %v, want %q", v, err, want)
		}
	}
}

// FuzzRestoreEngine feeds arbitrary bytes to RestoreEngine, seeded with
// real snapshots. Each input is tried twice: as a whole snapshot, and
// as a body sealed under a valid header, length and checksum — most
// mutations of a whole snapshot only exercise the checksum, a sealed
// body reaches the decoder. Restore must return an error or an engine,
// never panic. An engine it does return must checkpoint, and that
// checkpoint must restore and checkpoint again to the same bytes (an
// accepted input need not be canonical — a varint may be padded, a
// list unsorted — but one round trip makes it so).
func FuzzRestoreEngine(f *testing.F) {
	seeds := [][]byte{smallSnapshot(f)}
	for _, name := range []string{"gc-aggressive", "budget-8", "txn-atomic-order"} {
		e := core.NewEngine(ckptConfigs()[name].opts)
		tr := tracegen.FromSeedConfig(1, tracegen.CommitHeavy())
		for i := 0; i < tr.Len(); i++ {
			e.Step(tr.At(i))
		}
		var snap bytes.Buffer
		if err := e.Checkpoint(&snap); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, snap.Bytes())
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(snapshotBody(f, s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, sealBody(data)} {
			e, err := core.RestoreEngine(bytes.NewReader(in), core.RestoreAttach{})
			if err != nil {
				continue
			}
			var once, twice bytes.Buffer
			if err := e.Checkpoint(&once); err != nil {
				t.Fatalf("checkpoint of a restored engine: %v", err)
			}
			e, err = core.RestoreEngine(bytes.NewReader(once.Bytes()), core.RestoreAttach{})
			if err != nil {
				t.Fatalf("restoring a restored engine's checkpoint: %v", err)
			}
			if err := e.Checkpoint(&twice); err != nil {
				t.Fatalf("second checkpoint: %v", err)
			}
			if !bytes.Equal(once.Bytes(), twice.Bytes()) {
				t.Fatalf("checkpoint is not a fixed point of restore: %d bytes, then %d", once.Len(), twice.Len())
			}
		}
	})
}

// snapshotBody strips a snapshot's header line, length and checksum.
func snapshotBody(tb testing.TB, snap []byte) []byte {
	nl := bytes.IndexByte(snap, '\n')
	if nl < 0 || len(snap) < nl+1+8+4 {
		tb.Fatalf("malformed snapshot of %d bytes", len(snap))
	}
	return snap[nl+1+8 : len(snap)-4]
}

// sealBody frames body as a current-version snapshot with a valid
// length and checksum.
func sealBody(body []byte) []byte {
	out := fmt.Appendf(nil, `{"format":%q,"version":%d}`+"\n", core.CheckpointFormatName, core.CheckpointFormatVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}
