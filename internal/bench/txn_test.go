package bench

import (
	"encoding/json"
	"testing"
)

// TestTxnSweepSmoke runs a miniature sweep and checks the report's
// structural invariants: every mix×threads cell present, commit
// accounting exact, the contended mix short-circuiting through the
// transactions rule, and the governed mix actually degrading.
func TestTxnSweepSmoke(t *testing.T) {
	// 1024 threads keeps the smoke fast but gives the governed mix a
	// working set (4 fields per thread) that actually breaches its budget.
	threads := []int{4, 1024}
	const per = 8
	rep := Txn(threads, per, func(string) {})

	if want := len(txnMixes) * len(threads); len(rep.Points) != want {
		t.Fatalf("points = %d, want %d", len(rep.Points), want)
	}
	sawGoverned := false
	for _, p := range rep.Points {
		if p.Commits != int64(p.Threads)*per {
			t.Errorf("%s/%d: commits = %d, want %d", p.Mix, p.Threads, p.Commits, int64(p.Threads)*per)
		}
		if p.CommitsPerSec <= 0 {
			t.Errorf("%s/%d: commits/sec = %f", p.Mix, p.Threads, p.CommitsPerSec)
		}
		if p.Races != 0 {
			t.Errorf("%s/%d: %d races in a race-free workload", p.Mix, p.Threads, p.Races)
		}
		if p.Mix == "contended" && p.Threads > 1 && p.XactHits == 0 {
			t.Errorf("contended/%d: no transactions-rule short circuits", p.Threads)
		}
		if p.Mix == "governed" && p.Threads == 1024 {
			sawGoverned = true
			if p.Escalations == 0 {
				t.Errorf("governed/1024: governor never escalated under a %d-var load", p.VarsTracked)
			}
		}
	}
	if !sawGoverned {
		t.Fatal("governed mix missing from sweep")
	}

	data, err := MarshalTxn(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back TxnReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back.Points) != len(rep.Points) {
		t.Errorf("round-trip lost points: %d != %d", len(back.Points), len(rep.Points))
	}
	if FormatTxn(rep) == "" {
		t.Error("empty formatted table")
	}
}

// TestDefaultTxnThreadsReachesThousands pins the artifact contract:
// the default ladder must measure commit processing at >= 1000 threads.
func TestDefaultTxnThreadsReachesThousands(t *testing.T) {
	for _, full := range []bool{false, true} {
		max := 0
		for _, n := range DefaultTxnThreads(full) {
			if n > max {
				max = n
			}
		}
		if max < 1000 {
			t.Errorf("full=%v: max threads %d < 1000", full, max)
		}
	}
}

// TestTxnNilProgress: a nil progress callback means no progress output,
// not a panic.
func TestTxnNilProgress(t *testing.T) {
	rep := Txn([]int{4}, 2, nil)
	if len(rep.Points) != len(txnMixes) {
		t.Fatalf("points = %d, want one per mix (%d)", len(rep.Points), len(txnMixes))
	}
}
