// Package server implements goldilocksd: a long-running detection
// service that accepts event streams over TCP from many concurrent
// client sessions, runs one core.Engine per session, and pushes race
// verdicts (with provenance) back to the clients. Sessions survive
// connection drops and — with a checkpoint directory configured —
// daemon restarts, via the engine checkpoint/restore machinery in
// internal/core.
//
// A connection opens with a one-line JSON hello and welcome; after
// that both directions speak length-prefixed binary frames: the
// event.AppendEventFrame stream up, race/ack/error frames down (see
// binary.go). See docs/SERVICE.md for the full protocol and lifecycle
// story.
package server

import (
	"encoding/json"
	"fmt"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/detectors/regiontrack"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
)

// ProtoName identifies the handshake protocol.
const ProtoName = "goldilocks-service"

// ProtoVersion is the current protocol version. Version 2 is the
// binary-frame session wire; a version-1 client (which may speak
// line-JSON after the welcome) is refused at the handshake.
const ProtoVersion = 2

// hello is the first line a client sends.
type hello struct {
	Proto   string `json:"proto"`
	Version int    `json:"version"`
	Session string `json:"session"`
}

// welcome is the server's reply to a hello. Next is the number of
// actions the session has already applied: a resuming client must skip
// that prefix of its linearization and stream from there. A refusal
// carries a Code (one of the code* constants) that clients branch on;
// Error is the human-readable explanation. In cluster mode a node that
// does not own the session refuses the attach with codeNotOwner and,
// when known, the owner's advertised address — the client redials
// there (see DialFleet).
type welcome struct {
	OK      bool   `json:"ok"`
	Code    string `json:"code,omitempty"`
	Error   string `json:"error,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`
	Next    uint64 `json:"next"`
	Owner   string `json:"owner,omitempty"`
}

// Welcome rejection codes. Only codeBusy and codeShuttingDown are
// transient (see retryableWelcome).
const (
	codeBusy         = "busy"          // the session has a live connection
	codeShuttingDown = "shutting_down" // the daemon is draining
	codeBadHandshake = "bad_handshake" // not a hello, or a malformed admin request
	codeBadVersion   = "bad_version"   // protocol version mismatch
	codeBadSession   = "bad_session"   // invalid session id
	codeNotOwner     = "not_owner"     // cluster mode: another node owns the session
)

// wireRace is a race verdict pushed to the client, carrying enough to
// rebuild the detect.Race a local engine would have returned: the
// global linearization position, the variable, the completing and
// previous accesses, and the provenance chain.
type wireRace struct {
	Pos     uint64          `json:"pos"`
	Obj     event.Addr      `json:"obj"`
	Field   event.FieldID   `json:"field"`
	Access  json.RawMessage `json:"access"`
	Prev    json.RawMessage `json:"prev,omitempty"`
	HasPrev bool            `json:"has_prev,omitempty"`
	Prov    *obs.Provenance `json:"prov,omitempty"`
}

// wireAck reports session progress. The server sends a solicited one
// in response to every flush and close control; Final marks the close
// ack, which also carries the engine's counters (see ackTail).
type wireAck struct {
	Applied   uint64
	Races     uint64
	Final     bool
	Stats     *core.Stats
	RuleFires []uint64
	// Serial is the serializability summary, present on the final ack
	// of sessions running under Config.Serializability.
	Serial *regiontrack.Summary
}

// encodeRace converts an engine verdict to its wire form. pos is the
// global linearization position of the completing access.
func encodeRace(r detect.Race, pos uint64) (*wireRace, error) {
	access, err := event.MarshalAction(r.Access)
	if err != nil {
		return nil, fmt.Errorf("server: encoding race access: %w", err)
	}
	wr := &wireRace{
		Pos: pos, Obj: r.Var.Obj, Field: r.Var.Field,
		Access: access, HasPrev: r.HasPrev, Prov: r.Prov,
	}
	if r.HasPrev {
		if wr.Prev, err = event.MarshalAction(r.Prev); err != nil {
			return nil, fmt.Errorf("server: encoding race prev: %w", err)
		}
	}
	return wr, nil
}

// decodeRace rebuilds the detect.Race a local run would have produced.
func decodeRace(wr *wireRace) (detect.Race, error) {
	r := detect.Race{
		Var:     event.Variable{Obj: wr.Obj, Field: wr.Field},
		Pos:     int(wr.Pos),
		HasPrev: wr.HasPrev,
		Prov:    wr.Prov,
	}
	var err error
	if r.Access, err = event.UnmarshalAction(wr.Access); err != nil {
		return r, fmt.Errorf("server: decoding race access: %w", err)
	}
	if wr.HasPrev {
		if r.Prev, err = event.UnmarshalAction(wr.Prev); err != nil {
			return r, fmt.Errorf("server: decoding race prev: %w", err)
		}
	}
	return r, nil
}
