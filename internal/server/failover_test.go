package server_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/resilience"
	"goldilocks/internal/scenarios"
	"goldilocks/internal/server"
)

// freePort reserves a port and releases it, so a later listener can
// claim the same address.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserving port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDialContextRetry: the daemon starts AFTER the client begins
// dialing, and bounded retry with backoff still connects — the ordering
// dependency between service and client at boot is gone.
func TestDialContextRetry(t *testing.T) {
	addr := freePort(t)
	started := make(chan *server.Server, 1)
	go func() {
		time.Sleep(250 * time.Millisecond)
		srv, err := server.New(addr, server.Config{})
		if err != nil {
			t.Errorf("starting late server: %v", err)
			started <- nil
			return
		}
		started <- srv
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c, err := server.DialContext(ctx, addr, "late-boot", server.DialConfig{
		Attempts:  40,
		BaseDelay: 25 * time.Millisecond,
	})
	srv := <-started
	if srv != nil {
		defer srv.Close()
	}
	if err != nil {
		t.Fatalf("DialContext never reached the late server: %v", err)
	}
	sc := scenarios.All()[0]
	for i := 0; i < sc.Trace.Len(); i++ {
		if err := c.Send(sc.Trace.At(i)); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	ack, err := c.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if ack.Applied != uint64(sc.Trace.Len()) {
		t.Fatalf("applied %d, want %d", ack.Applied, sc.Trace.Len())
	}
}

// TestDialContextFailsFastOnRejection: protocol rejections (an invalid
// session id) must not burn the retry budget.
func TestDialContextFailsFastOnRejection(t *testing.T) {
	srv, err := server.New("127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()
	start := time.Now()
	_, err = server.DialContext(context.Background(), srv.Addr(), "bad session id!", server.DialConfig{
		Attempts:  10,
		BaseDelay: 200 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("invalid session id accepted")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejection took %v; retries were spent on a terminal error", d)
	}
}

// TestTornCheckpointQuarantined is the durability fault-injection gate:
// a crash mid-checkpoint-write (simulated by the resilience injector
// truncating the file) must not poison the next daemon — the torn
// checkpoint is quarantined with a structured report, healthy sessions
// restore, and the damaged session restarts fresh.
func TestTornCheckpointQuarantined(t *testing.T) {
	dir := t.TempDir()
	sc := scenarios.All()[0]

	// Run 1: injector tears every checkpoint write mid-file.
	srv1, err := server.New("127.0.0.1:0", server.Config{
		CheckpointDir: dir,
		Injector:      &resilience.Injector{TruncateTraceBytes: 16},
	})
	if err != nil {
		t.Fatalf("starting server 1: %v", err)
	}
	if _, _, err := server.StreamTrace(srv1.Addr(), "torn", sc.Trace); err != nil {
		t.Fatalf("streaming to server 1: %v", err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatalf("closing server 1: %v", err)
	}

	// Run 2: the torn file is quarantined, startup proceeds, and a
	// healthy session can be created and persisted.
	srv2, err := server.New("127.0.0.1:0", server.Config{CheckpointDir: dir})
	if err != nil {
		t.Fatalf("server 2 refused to start on a torn checkpoint: %v", err)
	}
	qs := srv2.Quarantined()
	if len(qs) != 1 || qs[0].Session != "torn" {
		t.Fatalf("quarantined = %+v, want exactly session \"torn\"", qs)
	}
	if qs[0].Report == nil || qs[0].Report.Kind != resilience.Corruption {
		t.Fatalf("quarantine report = %+v, want Corruption kind", qs[0].Report)
	}
	if _, err := os.Stat(qs[0].Path); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "torn.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("torn checkpoint still in the restore path: %v", err)
	}
	// The damaged session restarts fresh rather than erroring.
	c, err := server.Dial(srv2.Addr(), "torn")
	if err != nil {
		t.Fatalf("re-dialing torn session: %v", err)
	}
	if c.Resumed() || c.Next() != 0 {
		t.Fatalf("torn session resumed=%v next=%d, want a fresh session", c.Resumed(), c.Next())
	}
	c.Abandon()
	if _, _, err := server.StreamTrace(srv2.Addr(), "good", sc.Trace); err != nil {
		t.Fatalf("streaming healthy session: %v", err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatalf("closing server 2: %v", err)
	}

	// Run 3: the healthy checkpoint (written with fsync + dir sync, no
	// injector) restores intact alongside the earlier quarantine.
	srv3, err := server.New("127.0.0.1:0", server.Config{CheckpointDir: dir})
	if err != nil {
		t.Fatalf("starting server 3: %v", err)
	}
	defer srv3.Close()
	if qs := srv3.Quarantined(); len(qs) != 0 {
		t.Fatalf("unexpected quarantines on clean restart: %+v", qs)
	}
	c, err = server.Dial(srv3.Addr(), "good")
	if err != nil {
		t.Fatalf("resuming healthy session: %v", err)
	}
	if !c.Resumed() || c.Next() != uint64(sc.Trace.Len()) {
		t.Fatalf("healthy session resumed=%v next=%d, want resumed at %d", c.Resumed(), c.Next(), sc.Trace.Len())
	}
	c.Abandon()
}

// TestOldCheckpointQuarantined: a session checkpoint whose engine
// snapshot is in a previous release's format is quarantined at startup
// with a Corruption report naming the unsupported version, while a
// healthy current-version session beside it restores. Version 1 had a
// JSON body; version 2 had a binary body that still carried the
// removed epoch fast path's option bit and hit counter.
func TestOldCheckpointQuarantined(t *testing.T) {
	v1Body := `{"opts":{"sc1":true,"sc2":true,"sc3":true,"memoize":true},` +
		`"list":{"head_seq":0,"actions":[],"enqueued":0,"collected":0},"counters":{}}`
	v1 := `{"format":"goldilocks-checkpoint","version":1}` + "\n" +
		fmt.Sprintf(`{"engine":%s,"crc":"%08x"}`+"\n", v1Body, crc32.ChecksumIEEE([]byte(v1Body)))

	// Restore refuses on the header's version before it reads the body,
	// so a current sealed body under a version-2 header stands for a
	// version-2 snapshot.
	var cur bytes.Buffer
	if err := core.NewEngine(core.DefaultOptions()).Checkpoint(&cur); err != nil {
		t.Fatalf("checkpointing an empty engine: %v", err)
	}
	_, sealed, _ := bytes.Cut(cur.Bytes(), []byte("\n"))
	v2 := `{"format":"goldilocks-checkpoint","version":2}` + "\n" + string(sealed)

	for _, c := range []struct {
		version int
		engine  string
	}{{1, v1}, {2, v2}} {
		t.Run(fmt.Sprintf("version-%d", c.version), func(t *testing.T) {
			dir := t.TempDir()
			sc := scenarios.All()[0]
			srv1, err := server.New("127.0.0.1:0", server.Config{CheckpointDir: dir})
			if err != nil {
				t.Fatalf("starting server 1: %v", err)
			}
			if _, _, err := server.StreamTrace(srv1.Addr(), "good", sc.Trace); err != nil {
				t.Fatalf("streaming healthy session: %v", err)
			}
			if err := srv1.Close(); err != nil {
				t.Fatalf("closing server 1: %v", err)
			}

			old := fmt.Sprintf(`{"format":%q,"version":%d,"session":"old","applied":0,"races":0}`+"\n",
				server.SessionFormatName, server.SessionFormatVersion) + c.engine
			if err := os.WriteFile(filepath.Join(dir, "old.ckpt"), []byte(old), 0o644); err != nil {
				t.Fatalf("planting version-%d checkpoint: %v", c.version, err)
			}

			srv2, err := server.New("127.0.0.1:0", server.Config{CheckpointDir: dir})
			if err != nil {
				t.Fatalf("server refused to start beside a version-%d checkpoint: %v", c.version, err)
			}
			defer srv2.Close()
			qs := srv2.Quarantined()
			if len(qs) != 1 || qs[0].Session != "old" {
				t.Fatalf("quarantined = %+v, want exactly session \"old\"", qs)
			}
			want := fmt.Sprintf("unsupported checkpoint version %d", c.version)
			if r := qs[0].Report; r == nil || r.Kind != resilience.Corruption || !strings.Contains(r.Detail, want) {
				t.Fatalf("quarantine report = %+v, want Corruption naming version %d", r, c.version)
			}
			if _, err := os.Stat(filepath.Join(dir, "old.ckpt")); !os.IsNotExist(err) {
				t.Fatalf("version-%d checkpoint still in the restore path: %v", c.version, err)
			}
			cl, err := server.Dial(srv2.Addr(), "good")
			if err != nil {
				t.Fatalf("resuming healthy session: %v", err)
			}
			defer cl.Abandon()
			if !cl.Resumed() || cl.Next() != uint64(sc.Trace.Len()) {
				t.Fatalf("healthy session resumed=%v next=%d, want resumed at %d", cl.Resumed(), cl.Next(), sc.Trace.Len())
			}
		})
	}
}

// TestGarbageCheckpointQuarantined: a checkpoint file that is not even
// close to the format (random bytes, not torn JSON) is quarantined the
// same way instead of aborting startup.
func TestGarbageCheckpointQuarantined(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk.ckpt"), []byte{0xde, 0xad, 0xbe, 0xef, '\n', 0x00, 0x01}, 0o644); err != nil {
		t.Fatalf("planting garbage: %v", err)
	}
	srv, err := server.New("127.0.0.1:0", server.Config{CheckpointDir: dir})
	if err != nil {
		t.Fatalf("server refused to start on garbage checkpoint: %v", err)
	}
	defer srv.Close()
	qs := srv.Quarantined()
	if len(qs) != 1 || qs[0].Session != "junk" {
		t.Fatalf("quarantined = %+v, want session \"junk\"", qs)
	}
}

// staticRouter routes every session to one fixed owner.
type staticRouter struct{ self, owner string }

func (r staticRouter) Route(string) (string, bool) { return r.owner, r.owner == r.self }

// TestNotOwnerRedirect: a node that does not own a session refuses the
// attach with the owner's address; a plain Dial surfaces that, and a
// fleet client follows the redirect transparently.
func TestNotOwnerRedirect(t *testing.T) {
	owner, err := server.New("127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatalf("starting owner: %v", err)
	}
	defer owner.Close()
	other, err := server.New("127.0.0.1:0", server.Config{
		Advertise: "wrong-node",
		Router:    staticRouter{self: "wrong-node", owner: owner.Addr()},
	})
	if err != nil {
		t.Fatalf("starting non-owner: %v", err)
	}
	defer other.Close()

	if _, err := server.Dial(other.Addr(), "routed"); err == nil {
		t.Fatal("plain Dial to a non-owner succeeded; want a NOT_OWNER error")
	}

	// A fleet client given only the wrong node still lands on the owner.
	c, err := server.DialFleet(context.Background(), []string{other.Addr()}, "routed", server.DialConfig{})
	if err != nil {
		t.Fatalf("fleet dial did not follow the redirect: %v", err)
	}
	sc := scenarios.All()[0]
	for i := 0; i < sc.Trace.Len(); i++ {
		if err := c.Send(sc.Trace.At(i)); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	ack, err := c.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if ack.Applied != uint64(sc.Trace.Len()) {
		t.Fatalf("applied %d, want %d", ack.Applied, sc.Trace.Len())
	}
	// The session must live on the owner, not the redirecting node.
	infos, err := server.Sessions(context.Background(), owner.Addr())
	if err != nil || len(infos) != 1 || infos[0].ID != "routed" {
		t.Fatalf("owner sessions = %+v (err %v), want [routed]", infos, err)
	}
}
