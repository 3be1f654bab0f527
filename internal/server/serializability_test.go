package server_test

import (
	"reflect"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detectors/regiontrack"
	"goldilocks/internal/event"
	"goldilocks/internal/server"
)

// lostUpdateTrace is a non-serializable schedule: thread 2 commits a
// write of x between thread 1's transactional read and write of x, so
// the serialization graph has a 1->2 edge (r-w) and a 2->1 edge (w-r).
func lostUpdateTrace() *event.Trace {
	x := event.Variable{Obj: 10, Field: 0}
	return event.NewBuilder().
		TxBegin(1).Read(1, 10, 0).
		Commit(2, nil, []event.Variable{x}).
		Commit(1, nil, []event.Variable{x}).TxEnd(1).
		Trace()
}

// disjointTxnTrace interleaves two transactions on disjoint variables:
// serializable in every schedule.
func disjointTxnTrace() *event.Trace {
	return event.NewBuilder().
		TxBegin(1).Read(1, 10, 0).
		TxBegin(2).Read(2, 20, 0).
		Write(1, 10, 0).TxEnd(1).
		Write(2, 20, 0).TxEnd(2).
		Trace()
}

// wantSummary is the uninterrupted in-process ground truth: the same
// checker configuration a Serializability server builds per session.
func wantSummary(tr *event.Trace) regiontrack.Summary {
	opts := regiontrack.DefaultOptions()
	opts.Engine = core.DefaultOptions()
	opts.LockRegions = true
	_, sum := regiontrack.Check(tr, opts)
	return sum
}

// streamSerial streams tr through a fresh session and returns the final
// ack.
func streamSerial(t *testing.T, addr, session string, tr *event.Trace) server.Ack {
	t.Helper()
	c, err := server.Dial(addr, session)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for i := 0; i < tr.Len(); i++ {
		if err := c.Send(tr.At(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	ack, err := c.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	return ack
}

// TestSerializabilityFinalAck runs a Serializability daemon and checks
// that the final ack of each session carries exactly the summary an
// in-process RegionTrack checker produces — non-serializable schedules
// flagged with their witnesses, serializable ones vouched for. The
// summary rides the final ack frame's JSON tail.
func TestSerializabilityFinalAck(t *testing.T) {
	srv, err := server.New("127.0.0.1:0", server.Config{Serializability: true})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()

	cases := []struct {
		name         string
		tr           *event.Trace
		serializable bool
	}{
		{"lost-update", lostUpdateTrace(), false},
		{"disjoint", disjointTxnTrace(), true},
	}
	for _, tc := range cases {
		name := tc.name + "-bin"
		t.Run(name, func(t *testing.T) {
			ack := streamSerial(t, srv.Addr(), "serial-"+name, tc.tr)
			if ack.Serial == nil {
				t.Fatal("final ack carries no serializability summary")
			}
			if ack.Serial.Serializable != tc.serializable {
				t.Fatalf("serializable=%v, want %v (summary %+v)",
					ack.Serial.Serializable, tc.serializable, ack.Serial)
			}
			if want := wantSummary(tc.tr); !reflect.DeepEqual(*ack.Serial, want) {
				t.Fatalf("summary diverged from in-process checker\nremote: %+v\nlocal:  %+v", *ack.Serial, want)
			}
			if !tc.serializable && ack.Serial.ViolationTotal == 0 {
				t.Fatal("non-serializable schedule reported zero violations")
			}
		})
	}
}

// TestSerializabilityOffByDefault: a plain daemon must not grow a
// summary on its final ack.
func TestSerializabilityOffByDefault(t *testing.T) {
	srv, err := server.New("127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()
	_, ack, err := server.StreamTrace(srv.Addr(), "plain", lostUpdateTrace())
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if ack.Serial != nil {
		t.Fatalf("plain server attached a serializability summary: %+v", ack.Serial)
	}
}

// TestSerializabilityRestartConvergence cuts a Serializability session
// mid-transaction, restarts the daemon from its checkpoint, streams the
// rest, and requires the final summary to equal an uninterrupted run —
// the conflict graph and open-region state must survive the
// checkpoint/restore round trip.
func TestSerializabilityRestartConvergence(t *testing.T) {
	dir := t.TempDir()
	tr := lostUpdateTrace()
	want := wantSummary(tr)
	if want.Serializable {
		t.Fatal("test trace must be non-serializable")
	}

	srv1, err := server.New("127.0.0.1:0", server.Config{CheckpointDir: dir, Serializability: true})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	c, err := server.Dial(srv1.Addr(), "serial-restart")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// Cut after thread 2's commit: thread 1's region is mid-flight and
	// the graph already holds the first half of the cycle.
	half := 3
	for i := 0; i < half; i++ {
		if err := c.Send(tr.At(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	c.Abandon()
	if err := srv1.Close(); err != nil {
		t.Fatalf("closing first server: %v", err)
	}

	srv2, err := server.New("127.0.0.1:0", server.Config{CheckpointDir: dir, Serializability: true})
	if err != nil {
		t.Fatalf("restarting server: %v", err)
	}
	defer srv2.Close()
	c2, err := server.Dial(srv2.Addr(), "serial-restart")
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	if !c2.Resumed() || c2.Next() != uint64(half) {
		t.Fatalf("resume state: resumed=%v next=%d, want true/%d", c2.Resumed(), c2.Next(), half)
	}
	for i := half; i < tr.Len(); i++ {
		if err := c2.Send(tr.At(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	ack, err := c2.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if ack.Serial == nil {
		t.Fatal("resumed session's final ack carries no serializability summary")
	}
	if !reflect.DeepEqual(*ack.Serial, want) {
		t.Fatalf("summary diverged after restart\nresumed:       %+v\nuninterrupted: %+v", *ack.Serial, want)
	}
}
