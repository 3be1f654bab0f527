package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"goldilocks/internal/conformance"
	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/tracegen"
)

// checkOwnershipTransfer runs tr on the engine under sem and requires
// the verdict to be racy, the engine's races to equal the executable
// specification's race for race, and the trace to pass the whole
// conformance matrix.
func checkOwnershipTransfer(t *testing.T, tr *event.Trace, sem event.TxnSemantics, racy bool) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	opts := core.DefaultOptions()
	opts.TxnSemantics = sem
	races := detect.RunTrace(core.NewEngine(opts), tr)
	if got := len(races) > 0; got != racy {
		t.Errorf("racy = %v, want %v (races %v)", got, racy, races)
	}
	spec := detect.RunTrace(core.NewSpecEngineSem(sem), tr)
	if got, want := raceKeys(races), raceKeys(spec); !reflect.DeepEqual(got, want) {
		t.Errorf("engine races %v, spec %v", got, want)
	}
	if d := conformance.Check(tr); d != nil {
		t.Errorf("conformance: %v", d)
	}
}

// TestEscalationEdges covers every way a thread-owned variable escalates
// to shared: in each case the variable starts owned by one thread (its
// checks resolve by SC1), then ownership transfers through one
// synchronization vocabulary, and the check after the transfer must
// reach the right verdict through the rest of the lockset machinery.
func TestEscalationEdges(t *testing.T) {
	const (
		x    event.Addr = 10 // the handed-off data object
		lk   event.Addr = 20
		vol  event.Addr = 21
		ch   event.Addr = 22
		spin event.Addr = 23 // second object for read-shared cases
	)
	cases := []struct {
		name string
		tr   *event.Trace
		// racy is the ground-truth verdict, double-checked against the
		// spec engine and the conformance matrix so the table stays
		// honest about what each case tests.
		racy bool
	}{
		{
			// Reads spread the variable across threads; t1's write then
			// finds a foreign reader. Properly synchronized: no race.
			name: "write-after-read-shared-synced",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, x, 0).
				Acquire(1, lk).Read(1, x, 0).Release(1, lk).
				Acquire(2, lk).Read(2, x, 0).Release(2, lk).
				Acquire(1, lk).Write(1, x, 0).Release(1, lk).
				Trace(),
			racy: false,
		},
		{
			name: "write-after-read-shared-racy",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, x, 0).
				Acquire(1, lk).Read(1, x, 0).Release(1, lk).
				Acquire(2, lk).Read(2, x, 0).Release(2, lk).
				Write(1, x, 0). // no lock this time: races with t2's read
				Trace(),
			racy: true,
		},
		{
			name: "lock-handoff",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, x, 0).Write(1, x, 0). // thread-owned: SC1
				Acquire(1, lk).Write(1, x, 0).Release(1, lk).
				Acquire(2, lk).Write(2, x, 0).Release(2, lk). // shared from here
				Trace(),
			racy: false,
		},
		{
			// Disjoint locks: the lockset intersection between t1's release
			// and t2's acquire is empty, so the transfer is a race.
			name: "lock-handoff-racy",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, x, 0).Write(1, x, 0).
				Acquire(1, lk).Write(1, x, 0).Release(1, lk).
				Acquire(2, spin).Write(2, x, 0).Release(2, spin).
				Trace(),
			racy: true,
		},
		{
			name: "volatile-handoff",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, x, 0).Write(1, x, 0).
				VolatileWrite(1, vol, 0).
				VolatileRead(2, vol, 0).
				Write(2, x, 0).
				Trace(),
			racy: false,
		},
		{
			name: "channel-handoff",
			tr: event.NewBuilder().
				Fork(1, 2).
				ChanMake(1, ch, 1).
				Write(1, x, 0).Write(1, x, 0).
				ChanSend(1, ch).
				ChanRecv(2, ch).
				Write(2, x, 0).
				Trace(),
			racy: false,
		},
		{
			name: "channel-close-handoff",
			tr: event.NewBuilder().
				Fork(1, 2).
				ChanMake(1, ch, 1).
				Write(1, x, 0).Write(1, x, 0).
				ChanClose(1, ch).
				ChanRecv(2, ch). // receive from drained closed channel
				Write(2, x, 0).
				Trace(),
			racy: false,
		},
		{
			name: "fork-handoff",
			tr: event.NewBuilder().
				Write(1, x, 0).Write(1, x, 0).
				Fork(1, 2).
				Write(2, x, 0).
				Trace(),
			racy: false,
		},
		{
			name: "join-handoff",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(2, x, 0).Write(2, x, 0).
				Join(1, 2).
				Write(1, x, 0).
				Trace(),
			racy: false,
		},
		{
			name: "commit-handoff",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, spin, 0).Write(1, spin, 0). // plain thread-owned traffic
				Commit(1, nil, []event.Variable{{Obj: x, Field: 0}}).
				Commit(2, []event.Variable{{Obj: x, Field: 0}}, nil).
				Trace(),
			racy: false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkOwnershipTransfer(t, c.tr, event.TxnSharedVariable, c.racy)
		})
	}
}

// TestCommitEscalationSemantics hands thread-owned variables over
// through transactions: nested and interleaved commit(R,W) sequences —
// including R∩W overlaps and semantics-sensitive disjoint sets — must
// reach the expected verdict, equal to the executable specification's,
// under every TxnSemantics interpretation.
func TestCommitEscalationSemantics(t *testing.T) {
	const (
		x event.Addr = 10
		y event.Addr = 11
		w event.Addr = 12 // t1's plain traffic before the commits
	)
	vx := event.Variable{Obj: x, Field: 0}
	vy := event.Variable{Obj: y, Field: 0}
	cases := []struct {
		name string
		tr   *event.Trace
		// racy[sem] is the expected verdict under each interpretation.
		racy map[event.TxnSemantics]bool
	}{
		{
			// Publication edge W∩R': synchronized under all three.
			name: "commit-publication",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, w, 0).Write(1, x, 0).
				Commit(1, nil, []event.Variable{vx}).
				Commit(2, []event.Variable{vx}, nil).
				Write(2, x, 0).
				Trace(),
			racy: map[event.TxnSemantics]bool{
				event.TxnSharedVariable: false,
				event.TxnAtomicOrder:    false,
				event.TxnWriteToRead:    false,
			},
		},
		{
			// Disjoint variable sets: only the atomic-order interpretation
			// makes the two commits synchronize.
			name: "commit-disjoint-sets",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, w, 0).Write(1, x, 0).
				Commit(1, nil, []event.Variable{vx}).
				Commit(2, nil, []event.Variable{vy}).
				Write(2, x, 0).
				Trace(),
			racy: map[event.TxnSemantics]bool{
				event.TxnSharedVariable: true,
				event.TxnAtomicOrder:    false,
				event.TxnWriteToRead:    true,
			},
		},
		{
			// Read-read overlap: shared-variable and atomic-order
			// synchronize (R∪W intersects), write-to-read does not (W∩R'
			// is empty).
			name: "commit-read-read",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, w, 0).Write(1, x, 0).
				Commit(1, []event.Variable{vx}, nil).
				Commit(2, []event.Variable{vx}, nil).
				Write(2, x, 0).
				Trace(),
			racy: map[event.TxnSemantics]bool{
				event.TxnSharedVariable: false,
				event.TxnAtomicOrder:    false,
				event.TxnWriteToRead:    true,
			},
		},
		{
			// R∩W in both commits: the overlap generalizes to a write, so
			// every interpretation synchronizes.
			name: "commit-rw-overlap",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, w, 0).Write(1, x, 0).
				Commit(1, []event.Variable{vx}, []event.Variable{vx}).
				Commit(2, []event.Variable{vx}, []event.Variable{vx}).
				Write(2, x, 0).
				Trace(),
			racy: map[event.TxnSemantics]bool{
				event.TxnSharedVariable: false,
				event.TxnAtomicOrder:    false,
				event.TxnWriteToRead:    false,
			},
		},
		{
			// Interleaved commit chains across three threads: x publishes
			// to t2, which republishes through y to t1 — a nested
			// publication chain the engine must follow rung by rung.
			name: "commit-chain",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, w, 0).Write(1, x, 0).
				Commit(1, nil, []event.Variable{vx}).
				Commit(2, []event.Variable{vx}, []event.Variable{vy}).
				Commit(1, []event.Variable{vy}, nil).
				Read(1, y, 0).
				Write(2, x, 0). // still inside t2's publication: no race
				Trace(),
			racy: map[event.TxnSemantics]bool{
				event.TxnSharedVariable: false,
				event.TxnAtomicOrder:    false,
				event.TxnWriteToRead:    false,
			},
		},
	}
	for _, c := range cases {
		for _, sem := range event.AllTxnSemantics() {
			t.Run(fmt.Sprintf("%s/%v", c.name, sem), func(t *testing.T) {
				checkOwnershipTransfer(t, c.tr, sem, c.racy[sem])
			})
		}
	}
}

// TestEscalationStress hammers ownership transfer under the race
// detector: a channel- and lock-heavy generated trace is delivered
// concurrently (one goroutine per trace thread, ticket-serialized to the
// trace order), and the verdicts must match the serial run. Any
// unsynchronized state shared between the short-circuits and the walk
// machinery is a -race failure here.
func TestEscalationStress(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := tracegen.Default()
			cfg.Steps = 400
			cfg.MaxThreads = 6
			cfg.Channels = 2
			cfg.SyncBias = 0.8
			tr := tracegen.FromSeedConfig(seed, cfg)
			got := raceKeys(conformance.RunConcurrent(core.New(), tr))
			want := raceKeys(detect.RunTrace(core.New(), tr))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent verdicts %v, serial %v", got, want)
			}
		})
	}
}
