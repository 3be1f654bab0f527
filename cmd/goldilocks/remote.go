package main

import (
	"context"
	"sync"

	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/server"
)

// remoteSession adapts a goldilocksd session to the runtime's Detector
// interface: every runtime event is streamed to the daemon, and
// verdicts come back asynchronously (collected at finish, printed with
// the run's race report). Access checks therefore always return nil
// here — remote detection cannot throw a DataRaceException into the
// accessing thread, which is why -remote forces the log policy.
//
// Calls are serialized through one mutex, so the streamed linearization
// is exactly the order the detector calls were made in (the same trade
// jrt.Record makes: fidelity over detector-side concurrency).
type remoteSession struct {
	mu  sync.Mutex
	c   *server.Client
	err error // first send failure; finish reports it
}

func dialRemote(addr, session string) (*remoteSession, error) {
	// addr may be a single daemon or a comma-separated fleet list; a
	// fleet client follows NOT_OWNER redirects and fails over.
	c, err := server.DialAuto(context.Background(), addr, session)
	if err != nil {
		return nil, err
	}
	return &remoteSession{c: c}, nil
}

func (r *remoteSession) send(a event.Action) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	r.err = r.c.Send(a)
}

func (r *remoteSession) Sync(a event.Action) { r.send(a) }

func (r *remoteSession) Read(t event.Tid, o event.Addr, f event.FieldID) *detect.Race {
	r.send(event.Read(t, o, f))
	return nil
}

func (r *remoteSession) Write(t event.Tid, o event.Addr, f event.FieldID) *detect.Race {
	r.send(event.Write(t, o, f))
	return nil
}

func (r *remoteSession) Commit(t event.Tid, reads, writes []event.Variable) []detect.Race {
	r.send(event.Commit(t, reads, writes))
	return nil
}

func (r *remoteSession) Alloc(t event.Tid, o event.Addr) {
	r.send(event.Alloc(t, o))
}

// finish completes the session: everything streamed is applied, the
// daemon's verdicts are available via races, and the final ack carries
// the session engine's counters.
func (r *remoteSession) finish() (server.Ack, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		r.c.Abandon()
		return server.Ack{}, r.err
	}
	return r.c.Close()
}

// races returns the verdicts received so far.
func (r *remoteSession) races() []detect.Race { return r.c.Races() }
