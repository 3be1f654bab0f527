package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldilocks/internal/event"
	"goldilocks/internal/scenarios"
)

// racyScenario returns a scenario the engine reports a race on, so the
// wire tests exercise the verdict path, not just acks.
func racyScenario(t *testing.T) scenarios.Scenario {
	t.Helper()
	for _, sc := range scenarios.All() {
		if sc.Racy {
			return sc
		}
	}
	t.Fatal("no racy scenario in the corpus")
	return scenarios.Scenario{}
}

// TestBinaryProgressWatermark checks the batched unsolicited acks: a
// client learns server progress without issuing a single
// control round trip, and the solicited flush ack is not consumed by
// the watermark path.
func TestBinaryProgressWatermark(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sc := racyScenario(t)
	c, err := DialContext(context.Background(), srv.Addr(), "watermark", DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sc.Trace.Len(); i++ {
		if err := c.Send(sc.Trace.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Push the frames without a control: the server's batch-boundary
	// progress acks must advance the watermark on their own.
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if applied, _ := c.Progress(); applied == uint64(sc.Trace.Len()) {
			break
		}
		if time.Now().After(deadline) {
			applied, _ := c.Progress()
			t.Fatalf("progress watermark stuck at %d, want %d", applied, sc.Trace.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The watermark advanced with zero solicited acks outstanding, so
	// this round trip must still get its own reply.
	ack, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Applied != uint64(sc.Trace.Len()) || ack.Stats == nil {
		t.Fatalf("final ack = %+v, want applied %d with stats", ack, sc.Trace.Len())
	}
}

// fuzzSrv is the shared daemon for FuzzHandshake; one per fuzz worker
// process.
var (
	fuzzSrvOnce sync.Once
	fuzzSrvAddr string
)

// FuzzHandshake throws arbitrary bytes at a live daemon's handshake and
// early stream: the server must always answer the first line with a
// welcome (or drop the connection) and never wedge or crash, whatever
// the bytes — truncated hellos, a line-JSON stream where binary frames
// belong, torn frames after a valid header, a version-1 client.
func FuzzHandshake(f *testing.F) {
	okHello, _ := json.Marshal(hello{Proto: ProtoName, Version: ProtoVersion, Session: "fuzz"})
	okHello = append(okHello, '\n')
	v1Hello := []byte(`{"proto":"goldilocks-service","version":1,"session":"fuzz"}` + "\n")
	f.Add([]byte("garbage\n"))
	f.Add(okHello)
	// A line-JSON stream header where the binary header frame belongs
	// (format confusion).
	f.Add(append(append([]byte{}, okHello...), event.StreamHeaderLine()...))
	f.Add(append(append([]byte{}, okHello...), event.BinHeaderFrame()...))
	// A valid header followed by a torn frame.
	torn := append(append([]byte{}, okHello...), event.BinHeaderFrame()...)
	torn = append(torn, event.AppendEventFrame(nil, event.Action{Kind: event.KindRead, Thread: 1, Obj: 1}, 0)[:7]...)
	f.Add(torn)
	// A version-1 client streaming line-JSON: refused at the hello.
	rec, _ := event.EncodeRecord(event.Read(1, 1, 0))
	f.Add(append(append(append([]byte{}, v1Hello...), event.StreamHeaderLine()...), rec...))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzSrvOnce.Do(func() {
			srv, err := New("127.0.0.1:0", Config{Queue: 4, Batch: 2})
			if err != nil {
				t.Fatalf("starting fuzz server: %v", err)
			}
			fuzzSrvAddr = srv.Addr()
		})
		conn, err := net.Dial("tcp", fuzzSrvAddr)
		if err != nil {
			t.Skip("dial failed; server saturated")
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		conn.Write(data)
		if tcp, ok := conn.(*net.TCPConn); ok {
			tcp.CloseWrite()
		}
		// Drain whatever the server says until it closes our connection.
		// A wedged server (no reply, no close) trips the deadline.
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
					t.Fatalf("server wedged on input %q", data)
				}
				return
			}
		}
	})
}

// TestLateReleaseKeepsReattach pins release's ownership check: the
// deferred release of a connection whose close already released the
// session must not detach the connection that re-attached since.
func TestLateReleaseKeepsReattach(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	old, fresh := net.Pipe()
	defer old.Close()
	defer fresh.Close()

	sess, _, err := srv.attach("late", old)
	if err != nil {
		t.Fatal(err)
	}
	oldQ := make(chan item)
	sess.setQueue(oldQ)
	srv.release(sess, old, oldQ) // the close path's explicit release
	if _, _, err := srv.attach("late", fresh); err != nil {
		t.Fatalf("re-attach after release: %v", err)
	}
	freshQ := make(chan item, 1)
	sess.setQueue(freshQ)
	srv.release(sess, old, oldQ) // the old handler's deferred release

	srv.mu.Lock()
	attached, conn := sess.attached, sess.conn
	srv.mu.Unlock()
	if !attached || conn != fresh {
		t.Fatalf("late release detached the re-attached connection (attached=%v)", attached)
	}
	if !sess.tryEnqueue(item{ctl: ctlFlush}) {
		t.Fatal("late release dropped the re-attached connection's queue")
	}
	if _, _, err := srv.attach("late", old); err == nil {
		t.Fatal("a second live connection was accepted")
	}
}

// codeRouter routes every session to a fixed other node.
type codeRouter struct{}

func (codeRouter) Route(string) (string, bool) { return "owner:1", false }

// readWelcome hands one connection to s's handler, sends helloLine and
// returns the welcome.
func readWelcome(t *testing.T, s *Server, helloLine string) welcome {
	t.Helper()
	conn, peer := net.Pipe()
	defer conn.Close()
	s.wg.Add(1)
	go s.handleConn(peer)
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "%s\n", helloLine)
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading welcome: %v", err)
	}
	var w welcome
	if err := json.Unmarshal(line, &w); err != nil {
		t.Fatalf("bad welcome %q: %v", line, err)
	}
	return w
}

// TestWelcomeCodes drives every rejection path of the handshake and
// checks its code.
func TestWelcomeCodes(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	routed, err := New("127.0.0.1:0", Config{Router: codeRouter{}})
	if err != nil {
		t.Fatal(err)
	}
	defer routed.Close()
	live, err := Dial(srv.Addr(), "held")
	if err != nil {
		t.Fatal(err)
	}
	defer live.Abandon()

	hello := func(session string) string {
		return fmt.Sprintf(`{"proto":%q,"version":%d,"session":%q}`, ProtoName, ProtoVersion, session)
	}
	cases := []struct {
		name    string
		srv     *Server
		hello   string
		code    string
		closing bool
	}{
		{name: "garbage", srv: srv, hello: "garbage", code: codeBadHandshake},
		{name: "wrong-proto", srv: srv, hello: `{"proto":"nope","version":2,"session":"a"}`, code: codeBadHandshake},
		{name: "bad-admin", srv: srv, hello: `{"proto":"` + AdminProtoName + `","verb":7}`, code: codeBadHandshake},
		{name: "version-1", srv: srv, hello: `{"proto":"goldilocks-service","version":1,"session":"a"}`, code: codeBadVersion},
		{name: "bad-session", srv: srv, hello: hello("../escape"), code: codeBadSession},
		{name: "busy", srv: srv, hello: hello("held"), code: codeBusy},
		{name: "not-owner", srv: routed, hello: hello("a"), code: codeNotOwner},
		{name: "shutting-down", srv: srv, hello: hello("b"), code: codeShuttingDown, closing: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			setClosing := func(v bool) {
				srv.mu.Lock()
				srv.closing = v
				srv.mu.Unlock()
			}
			if c.closing {
				setClosing(true)
				defer setClosing(false)
			}
			w := readWelcome(t, c.srv, c.hello)
			if w.OK || w.Code != c.code || w.Error == "" {
				t.Fatalf("welcome = %+v, want a refusal with code %q", w, c.code)
			}
			if c.code == codeNotOwner && w.Owner != "owner:1" {
				t.Fatalf("not_owner welcome names owner %q, want owner:1", w.Owner)
			}
		})
	}
}

// TestDialRetriesOnlyTransientCodes: against a daemon that refuses
// every hello with one code, DialContext spends its whole attempt
// budget on busy and shutting_down and gives up after one attempt on
// every other code and on a refusal without a code.
func TestDialRetriesOnlyTransientCodes(t *testing.T) {
	for _, c := range []struct {
		code  string
		tries int32
	}{
		{codeBusy, 3}, {codeShuttingDown, 3},
		{codeBadHandshake, 1}, {codeBadVersion, 1}, {codeBadSession, 1}, {codeNotOwner, 1}, {"", 1},
	} {
		t.Run("code="+c.code, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			var dials atomic.Int32
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					dials.Add(1)
					bufio.NewReader(conn).ReadBytes('\n')
					b, _ := json.Marshal(welcome{Code: c.code, Error: "refused"})
					conn.Write(append(b, '\n'))
					conn.Close()
				}
			}()
			_, err = DialContext(context.Background(), ln.Addr().String(), "s",
				DialConfig{Attempts: 3, BaseDelay: time.Millisecond})
			if err == nil {
				t.Fatal("dial succeeded against a refusing daemon")
			}
			if got := dials.Load(); got != c.tries {
				t.Fatalf("%d dials, want %d (err %v)", got, c.tries, err)
			}
		})
	}
}
