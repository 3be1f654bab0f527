package event

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The binary stream format is the goldilocksd session wire
// (internal/server): the same actions as the line-JSON trace files,
// with the same per-record integrity checking, at a fraction of the
// bytes and the encode/decode cost. Engine checkpoints reuse its action
// body codec (AppendAction/DecodeAction). It is not a trace file
// format; recordings are line-JSON streams (see stream.go).
//
// Every frame is
//
//	uvarint(m) | type byte | body (m-5 bytes) | crc32-IEEE (4 bytes, LE)
//
// where m counts everything after the length prefix and the checksum
// covers the type byte and the body. The length prefix is written as a
// fixed-width (zero-padded) four-byte uvarint so an event frame can be
// encoded into a caller-reused buffer in one pass with no allocation:
// the length hole is patched after the body and checksum are in place.
// Readers accept any uvarint encoding, padded or minimal.
//
// Integer fields use zigzag varints (Obj and Field are negative for
// the lock pseudo-field, the channel closed element, and conveyor
// slots); the span id uses a plain uvarint.

// BinFormatName identifies the binary stream format in the header
// frame that opens every session stream.
const BinFormatName = "goldilocks-binstream"

// BinFormatVersion is the current binary stream version.
const BinFormatVersion = 1

// BinMinVersion is the oldest binary stream version readers accept.
const BinMinVersion = 1

// Frame types. The event-stream types live here; higher-level
// protocols (the goldilocksd server messages) allocate from 0x10 up
// and reuse the same framing.
const (
	// FrameHeader opens every binary stream: body is uvarint(version)
	// followed by the format name bytes.
	FrameHeader byte = 0x01
	// FrameEvent carries one action record (and optionally a span id).
	FrameEvent byte = 0x02
	// FrameCtl carries a one-byte control verb (client to server).
	FrameCtl byte = 0x03
)

// Event frame flag bits.
const (
	frameFlagSpan byte = 1 << 0 // a span id follows the fixed fields
	frameFlagSets byte = 1 << 1 // commit read/write sets follow
)

// MaxFrameLen bounds one frame (length prefix excluded). A commit's
// read/write sets are the only unbounded payload; 16 MiB matches the
// line-JSON scanner's record bound.
const MaxFrameLen = 16 << 20

// minFrameLen is type byte + checksum: the smallest well-formed m.
const minFrameLen = 5

// Frame-decode errors. ErrTornFrame means the stream ended inside a
// frame (what a crash or a cut connection leaves behind);
// ErrCorruptFrame means the frame is structurally intact but fails its
// checksum or bounds. Neither leaves a trustworthy frame boundary, so
// both end the stream.
var (
	ErrTornFrame    = errors.New("event: torn binary frame")
	ErrCorruptFrame = errors.New("event: corrupt binary frame")
)

// appendPaddedUvarint appends u as a fixed-width four-byte uvarint
// (three continuation bytes, one terminator). Values up to 2^28-1 fit;
// MaxFrameLen is far below that.
func appendPaddedUvarint(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u)|0x80,
		byte(u>>7)|0x80,
		byte(u>>14)|0x80,
		byte(u>>21)&0x7f)
}

// AppendFrame appends one framed payload to dst and returns the
// extended slice. body may be nil.
func AppendFrame(dst []byte, typ byte, body []byte) []byte {
	m := 1 + len(body) + 4
	dst = appendPaddedUvarint(dst, uint64(m))
	payloadStart := len(dst)
	dst = append(dst, typ)
	dst = append(dst, body...)
	crc := crc32.ChecksumIEEE(dst[payloadStart:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// AppendAction appends the binary body of one action to dst and
// returns the extended slice. It is the one binary action codec: event
// frames (the session wire) carry exactly this body, and engine
// checkpoints store every retained action with it.
//
//	flags | kind | zigzag(thread, obj, field, peer) | [uvarint span] | [sets]
//
// The span id is present only inside event frames (AppendEventFrame);
// the read/write sets only when the action has them.
func AppendAction(dst []byte, a Action) []byte { return appendAction(dst, &a, 0) }

func appendAction(dst []byte, a *Action, span uint64) []byte {
	var flags byte
	if span != 0 {
		flags |= frameFlagSpan
	}
	if len(a.Reads) > 0 || len(a.Writes) > 0 {
		flags |= frameFlagSets
	}
	dst = append(dst, flags, byte(a.Kind))
	dst = binary.AppendVarint(dst, int64(a.Thread))
	dst = binary.AppendVarint(dst, int64(a.Obj))
	dst = binary.AppendVarint(dst, int64(a.Field))
	dst = binary.AppendVarint(dst, int64(a.Peer))
	if flags&frameFlagSpan != 0 {
		dst = binary.AppendUvarint(dst, span)
	}
	if flags&frameFlagSets != 0 {
		dst = appendVars(dst, a.Reads)
		dst = appendVars(dst, a.Writes)
	}
	return dst
}

func appendVars(dst []byte, vs []Variable) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendVarint(dst, int64(v.Obj))
		dst = binary.AppendVarint(dst, int64(v.Field))
	}
	return dst
}

// AppendEventFrame appends one action record frame to dst — the binary
// counterpart of EncodeRecord, plus an optional trace span id (0 for
// none) — and returns the extended slice. It
// allocates nothing beyond dst's growth, so a streaming sender reusing
// dst reaches steady-state zero allocations per event.
func AppendEventFrame(dst []byte, a Action, span uint64) []byte {
	start := len(dst)
	dst = appendPaddedUvarint(dst, 0) // length hole, patched below
	payloadStart := len(dst)
	dst = append(dst, FrameEvent)
	dst = appendAction(dst, &a, span)

	crc := crc32.ChecksumIEEE(dst[payloadStart:])
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	m := uint64(len(dst) - payloadStart)
	patched := appendPaddedUvarint(dst[start:start], m)
	_ = patched // writes in place into the hole
	return dst
}

// binReader wraps a byte slice for sequential varint decoding.
type binReader struct {
	b   []byte
	err bool
}

func (r *binReader) byte() byte {
	if r.err || len(r.b) == 0 {
		r.err = true
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *binReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// errUnknownBinKind marks an intact event frame carrying a kind byte
// this reader does not know: version skew, not corruption.
type errUnknownBinKind struct{ kind byte }

func (e *errUnknownBinKind) Error() string {
	return fmt.Sprintf("event: unknown binary event kind %d", e.kind)
}

// DecodeEventFrame parses an event frame body (the bytes between the
// type byte and the checksum — ReadFrame's body). The returned error is
// *errUnknownBinKind for an intact frame from a newer writer and
// ErrCorruptFrame for a structurally bad body.
func DecodeEventFrame(body []byte) (Action, uint64, error) {
	r := binReader{b: body}
	var a Action
	span, err := decodeAction(&r, &a)
	if err == nil && len(r.b) != 0 {
		err = ErrCorruptFrame
	}
	if err != nil {
		return Action{}, 0, err
	}
	return a, span, nil
}

// DecodeAction parses one action body written by AppendAction from the
// front of b and returns it with the number of bytes it took. Bodies
// carrying a span id (event frames) are not action bodies and are
// refused. The error is *errUnknownBinKind for an intact body of a
// kind this reader does not know and ErrCorruptFrame otherwise.
func DecodeAction(b []byte) (Action, int, error) {
	r := binReader{b: b}
	var a Action
	span, err := decodeAction(&r, &a)
	if err == nil && span != 0 {
		err = ErrCorruptFrame
	}
	if err != nil {
		return Action{}, 0, err
	}
	return a, len(b) - len(r.b), nil
}

// decodeAction decodes one action body from r into a and returns its
// span id (0 when absent).
func decodeAction(r *binReader, a *Action) (uint64, error) {
	flags := r.byte()
	kind := r.byte()
	*a = Action{
		Kind:   Kind(kind),
		Thread: Tid(r.varint()),
		Obj:    Addr(r.varint()),
		Field:  FieldID(r.varint()),
		Peer:   Tid(r.varint()),
	}
	var span uint64
	if flags&frameFlagSpan != 0 {
		span = r.uvarint()
	}
	if flags&frameFlagSets != 0 {
		a.Reads = r.vars()
		a.Writes = r.vars()
	}
	if r.err {
		return 0, ErrCorruptFrame
	}
	if int(kind) >= len(kindNames) || Kind(kind) == KindInvalid {
		return 0, &errUnknownBinKind{kind: kind}
	}
	return span, nil
}

// vars decodes a counted variable list. Each variable takes at least
// two bytes, so a count the remaining bytes cannot hold is corruption,
// caught before it sizes an allocation.
func (r *binReader) vars() []Variable {
	n := r.uvarint()
	if r.err || n > uint64(len(r.b))/2 {
		r.err = true
		return nil
	}
	vs := make([]Variable, n)
	for i := range vs {
		vs[i] = Variable{Obj: Addr(r.varint()), Field: FieldID(r.varint())}
	}
	return vs
}

// BinHeaderFrame returns the header frame that opens every binary
// stream.
func BinHeaderFrame() []byte {
	body := binary.AppendUvarint(nil, BinFormatVersion)
	body = append(body, BinFormatName...)
	return AppendFrame(nil, FrameHeader, body)
}

// CheckBinHeader verifies a header frame body. Every version in
// [BinMinVersion, BinFormatVersion] is readable.
func CheckBinHeader(body []byte) error {
	r := binReader{b: body}
	v := r.uvarint()
	if r.err || string(r.b) != BinFormatName {
		return fmt.Errorf("event: not a %s stream", BinFormatName)
	}
	if v < BinMinVersion || v > BinFormatVersion {
		return fmt.Errorf("event: unsupported binary stream version %d (reader supports %d..%d)",
			v, BinMinVersion, BinFormatVersion)
	}
	return nil
}

// FrameReader reads frames sequentially, reusing one buffer: the body
// it returns is valid only until the next call.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewFrameReader returns a FrameReader over br.
func NewFrameReader(br *bufio.Reader) *FrameReader {
	return &FrameReader{br: br}
}

// Next reads one frame and returns its type and body. io.EOF means the
// stream ended cleanly at a frame boundary; ErrTornFrame that it ended
// inside a frame; ErrCorruptFrame a bad length or checksum. Any other
// error is an underlying read error.
func (fr *FrameReader) Next() (typ byte, body []byte, err error) {
	m, err := binary.ReadUvarint(fr.br)
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF // clean end: no bytes of a next frame
		}
		if err == io.ErrUnexpectedEOF {
			return 0, nil, ErrTornFrame
		}
		return 0, nil, err
	}
	if m < minFrameLen || m > MaxFrameLen {
		return 0, nil, ErrCorruptFrame
	}
	if uint64(cap(fr.buf)) < m {
		fr.buf = make([]byte, m)
	}
	buf := fr.buf[:m]
	if _, err := io.ReadFull(fr.br, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, ErrTornFrame
		}
		return 0, nil, err
	}
	payload, sum := buf[:m-4], binary.LittleEndian.Uint32(buf[m-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, ErrCorruptFrame
	}
	return payload[0], payload[1:], nil
}
