package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"goldilocks/internal/core"
	"goldilocks/internal/detectors/regiontrack"
	"goldilocks/internal/event"
)

// The session wire reuses internal/event's frame layout (padded uvarint
// length | type | body | crc32) in both directions. Client to
// server it is a header frame, then event frames, plus one-byte
// control frames; server to client the
// frame types below carry races, acks, and errors. Races and the final
// ack's stats are JSON payloads inside their frames: they are rare, so
// only the per-event hot path earns a hand-rolled layout.

// Server-to-client frame types. The client-to-server types
// (event.FrameHeader/FrameEvent/FrameCtl) live in internal/event.
const (
	frameRace byte = 0x10 // body: wireRace JSON
	frameAck  byte = 0x11 // body: flags | uvarint applied | uvarint races | [ackTail JSON]
	frameErr  byte = 0x12 // body: the error message string
)

// Control verbs: the one-byte body of an event.FrameCtl frame.
const (
	ctlFlush byte = 1 // apply everything sent so far, then ack
	ctlClose byte = 2 // apply everything, send the final ack, end the connection
)

// Ack frame flag bits. Solicited marks the reply to a flush/close
// control — the only acks a client round trip may consume. Unsolicited
// acks are the batched progress reports the server volunteers at batch
// boundaries; clients fold them into a watermark instead of the ack
// channel.
const (
	ackFlagFinal     byte = 1 << 0
	ackFlagSolicited byte = 1 << 1
	ackFlagTail      byte = 1 << 2 // an ackTail JSON payload follows
)

// ackTail is the JSON tail of a final ack frame: the engine counters
// and rule-fire counts, too rare and too wide to hand-encode.
type ackTail struct {
	Stats     *core.Stats          `json:"stats,omitempty"`
	RuleFires []uint64             `json:"rule_fires,omitempty"`
	Serial    *regiontrack.Summary `json:"serializability,omitempty"`
}

// binWire is the server-to-client side of one connection. It buffers;
// flush pushes to the socket. Write errors are deliberately swallowed
// until flush: sends are best-effort. Frame and body buffers are
// reused, so the steady-state progress-ack path allocates nothing.
type binWire struct {
	bw      *bufio.Writer
	buf     []byte // frame scratch
	scratch []byte // body scratch
}

func (w *binWire) frame(typ byte, body []byte) {
	w.buf = event.AppendFrame(w.buf[:0], typ, body)
	w.bw.Write(w.buf)
}

func (w *binWire) race(wr *wireRace) {
	b, err := json.Marshal(wr)
	if err != nil {
		return
	}
	w.frame(frameRace, b)
}

func (w *binWire) ack(a *wireAck, solicited bool) {
	var flags byte
	if a.Final {
		flags |= ackFlagFinal
	}
	if solicited {
		flags |= ackFlagSolicited
	}
	var tail []byte
	if a.Stats != nil || a.RuleFires != nil || a.Serial != nil {
		if b, err := json.Marshal(ackTail{Stats: a.Stats, RuleFires: a.RuleFires, Serial: a.Serial}); err == nil {
			tail = b
			flags |= ackFlagTail
		}
	}
	body := append(w.scratch[:0], flags)
	body = binary.AppendUvarint(body, a.Applied)
	body = binary.AppendUvarint(body, a.Races)
	body = append(body, tail...)
	w.scratch = body
	w.frame(frameAck, body)
}

// progress volunteers an unsolicited progress report at a batch
// boundary.
func (w *binWire) progress(applied, races uint64) {
	w.ack(&wireAck{Applied: applied, Races: races}, false)
}

func (w *binWire) errMsg(msg string) { w.frame(frameErr, []byte(msg)) }
func (w *binWire) flush() error      { return w.bw.Flush() }

// decodeAckFrame parses an ack frame body into the client's Ack plus
// its routing flags.
func decodeAckFrame(body []byte) (ack Ack, solicited, final bool, err error) {
	if len(body) < 1 {
		return Ack{}, false, false, event.ErrCorruptFrame
	}
	flags := body[0]
	rest := body[1:]
	applied, n := binary.Uvarint(rest)
	if n <= 0 {
		return Ack{}, false, false, event.ErrCorruptFrame
	}
	rest = rest[n:]
	races, n := binary.Uvarint(rest)
	if n <= 0 {
		return Ack{}, false, false, event.ErrCorruptFrame
	}
	rest = rest[n:]
	ack = Ack{Applied: applied, Races: races}
	if flags&ackFlagTail != 0 {
		var tail ackTail
		if err := json.Unmarshal(rest, &tail); err != nil {
			return Ack{}, false, false, fmt.Errorf("server: bad ack tail: %w", err)
		}
		ack.Stats, ack.RuleFires, ack.Serial = tail.Stats, tail.RuleFires, tail.Serial
	}
	return ack, flags&ackFlagSolicited != 0, flags&ackFlagFinal != 0, nil
}
