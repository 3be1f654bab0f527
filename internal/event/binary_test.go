package event

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
)

// sampleTrace is the shared valid-trace fixture covering every kind,
// including the channel vocabulary and a commit with read/write sets.
func sampleTrace() *Trace {
	return NewBuilder().
		Fork(1, 2).
		Acquire(1, 7).
		Write(1, 10, 0).
		Release(1, 7).
		Acquire(2, 7).
		Read(2, 10, 0).
		Release(2, 7).
		VolatileWrite(1, 1, 0).
		VolatileRead(2, 1, 0).
		Commit(2, []Variable{{Obj: 10, Field: 1}}, []Variable{{Obj: 11, Field: 0}}).
		Alloc(1, 42).
		ChanMake(1, 30, 1).
		ChanSend(1, 30).
		ChanRecv(2, 30).
		ChanClose(1, 30).
		Join(1, 2).
		Trace()
}

// sampleBin is the sample as a session stream: the header frame, then
// one event frame per action, the i-th carrying span id i (0 = none).
func sampleBin(tb testing.TB) []byte {
	tb.Helper()
	buf := BinHeaderFrame()
	tr := sampleTrace()
	for i := 0; i < tr.Len(); i++ {
		buf = AppendEventFrame(buf, tr.At(i), uint64(i))
	}
	return buf
}

// sameAction compares every field, read/write sets included.
func sameAction(a, b Action) bool {
	return a.Kind == b.Kind && a.Thread == b.Thread && a.Obj == b.Obj &&
		a.Field == b.Field && a.Peer == b.Peer &&
		slices.Equal(a.Reads, b.Reads) && slices.Equal(a.Writes, b.Writes)
}

// readFrames reads data with a FrameReader until it errors, checking
// the header frame, decoding every event frame, and checking that each
// decoded frame re-encodes and decodes to the same action and span. It
// returns the decoded actions and spans and the error that ended the
// read (io.EOF for a clean end).
func readFrames(tb testing.TB, data []byte) ([]Action, []uint64, error) {
	tb.Helper()
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(data)))
	var actions []Action
	var spans []uint64
	for n := 0; ; n++ {
		typ, body, err := fr.Next()
		if err != nil {
			return actions, spans, err
		}
		if n == 0 {
			if typ != FrameHeader {
				tb.Fatalf("first frame type %#x, want header", typ)
			}
			if err := CheckBinHeader(body); err != nil {
				tb.Fatalf("header: %v", err)
			}
			continue
		}
		if typ != FrameEvent {
			tb.Fatalf("frame %d type %#x, want event", n, typ)
		}
		a, span, err := DecodeEventFrame(body)
		if err != nil {
			return actions, spans, err
		}
		re := AppendEventFrame(nil, a, span)
		a2, span2, err := DecodeEventFrame(re[5 : len(re)-4])
		if err != nil || !sameAction(a, a2) || span != span2 {
			tb.Fatalf("frame %d: re-encoded %v span %d decodes to %v span %d (err %v)", n, a, span, a2, span2, err)
		}
		actions = append(actions, a)
		spans = append(spans, span)
	}
}

// TestBinaryGoldenVectors pins the wire encoding byte for byte. A
// failure here means the format changed: bump BinFormatVersion and
// teach the reader the old layout before touching these strings.
func TestBinaryGoldenVectors(t *testing.T) {
	cases := []struct {
		name string
		a    Action
		span uint64
		hex  string
	}{
		{"plain-write", Action{Kind: KindWrite, Thread: 1, Obj: 10}, 0,
			"8b80800002000202140000105e15c1"},
		{"span-read", Action{Kind: KindRead, Thread: 2, Obj: 10, Field: 3}, 0x9d,
			"8d808000020101041406009d014bdf503a"},
		{"acquire-lockfield", Action{Kind: KindAcquire, Thread: 1, Obj: 7, Field: LockField}, 0,
			"8b808000020003020e01004760dff4"},
		{"chan-send-slot", Action{Kind: KindChanSend, Thread: 1, Obj: 30, Field: ChanSlotField(2)}, 0,
			"8b80800002000c023c23004880d2f6"},
		{"chan-close", Action{Kind: KindChanClose, Thread: 1, Obj: 30, Field: ChanClosedField}, 7,
			"8c80800002010e023c030007538d65e7"},
		{"fork", Action{Kind: KindFork, Thread: 1, Peer: 2}, 0,
			"8b80800002000702000004d51eb715"},
		{"commit-sets", Action{Kind: KindCommit, Thread: 2,
			Reads:  []Variable{{Obj: 10, Field: 1}, {Obj: 11, Field: LockField}},
			Writes: []Variable{{Obj: 12, Field: 0}}}, 0x1234,
			"9580800002030904000000b4240214021601011800925c7c4b"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := AppendEventFrame(nil, c.a, c.span)
			if hex.EncodeToString(got) != c.hex {
				t.Fatalf("encode = %s, want %s", hex.EncodeToString(got), c.hex)
			}
			// And the pinned bytes decode back to the same action.
			want, err := hex.DecodeString(c.hex)
			if err != nil {
				t.Fatal(err)
			}
			fr := NewFrameReader(bufio.NewReader(bytes.NewReader(want)))
			typ, body, err := fr.Next()
			if err != nil || typ != FrameEvent {
				t.Fatalf("Next: typ=%#x err=%v", typ, err)
			}
			a, span, err := DecodeEventFrame(body)
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != c.a.String() || span != c.span {
				t.Fatalf("decode = %v span %#x, want %v span %#x", a, span, c.a, c.span)
			}
			if len(a.Reads) != len(c.a.Reads) || len(a.Writes) != len(c.a.Writes) {
				t.Fatalf("decode sets = %v/%v, want %v/%v", a.Reads, a.Writes, c.a.Reads, c.a.Writes)
			}
		})
	}
	const wantHeader = "9a8080000101676f6c64696c6f636b732d62696e73747265616d6961e614"
	if got := hex.EncodeToString(BinHeaderFrame()); got != wantHeader {
		t.Fatalf("header frame = %s, want %s", got, wantHeader)
	}
}

// TestActionCodec pins the one binary action codec: bodies written back
// to back by AppendAction decode in order, each reporting the bytes it
// took; a span-carrying event frame body is not an action body; every
// truncation of a body is an error; and an event frame without a span
// carries exactly the action body.
func TestActionCodec(t *testing.T) {
	tr := sampleTrace()
	var buf []byte
	for i := 0; i < tr.Len(); i++ {
		buf = AppendAction(buf, tr.At(i))
	}
	rest := buf
	for i := 0; i < tr.Len(); i++ {
		a, n, err := DecodeAction(rest)
		if err != nil {
			t.Fatalf("action %d: %v", i, err)
		}
		if a.String() != tr.At(i).String() || len(a.Reads) != len(tr.At(i).Reads) || len(a.Writes) != len(tr.At(i).Writes) {
			t.Fatalf("action %d = %v, want %v", i, a, tr.At(i))
		}
		body := AppendAction(nil, tr.At(i))
		if n != len(body) {
			t.Fatalf("action %d took %d bytes, body is %d", i, n, len(body))
		}
		for cut := range body {
			if _, _, err := DecodeAction(body[:cut]); err == nil {
				t.Fatalf("action %d truncated to %d of %d bytes decoded", i, cut, len(body))
			}
		}
		frame := AppendEventFrame(nil, tr.At(i), 0)
		if got := frame[5 : len(frame)-4]; !bytes.Equal(got, body) {
			t.Fatalf("action %d: frame body %x, action body %x", i, got, body)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last action", len(rest))
	}

	frame := AppendEventFrame(nil, Read(1, 10, 0), 99)
	if _, _, err := DecodeAction(frame[5 : len(frame)-4]); err == nil {
		t.Fatal("a span-carrying frame body decoded as an action body")
	}
}

// TestBinaryMinimalLengthPrefix checks that readers accept a minimally
// encoded length prefix, not just the padded form writers emit.
func TestBinaryMinimalLengthPrefix(t *testing.T) {
	padded := AppendEventFrame(nil, Action{Kind: KindWrite, Thread: 1, Obj: 10}, 0)
	// Padded prefix is 4 bytes; the minimal encoding of any m < 128 is 1.
	minimal := append([]byte{padded[0] &^ 0x80}, padded[4:]...)
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(minimal)))
	typ, body, err := fr.Next()
	if err != nil || typ != FrameEvent {
		t.Fatalf("Next on minimal prefix: typ=%#x err=%v", typ, err)
	}
	a, _, err := DecodeEventFrame(body)
	if err != nil || a.Kind != KindWrite {
		t.Fatalf("decode: a=%v err=%v", a, err)
	}
}

// TestBinaryRoundTrip streams the full-vocabulary sample through the
// frame reader and decodes every action and span back unchanged, ending
// in io.EOF at the last frame boundary.
func TestBinaryRoundTrip(t *testing.T) {
	want := sampleTrace()
	got, spans, err := readFrames(t, sampleBin(t))
	if err != io.EOF {
		t.Fatalf("stream ended with %v, want io.EOF", err)
	}
	if len(got) != want.Len() {
		t.Fatalf("decoded %d actions, want %d", len(got), want.Len())
	}
	for i, a := range got {
		if !sameAction(a, want.At(i)) || spans[i] != uint64(i) {
			t.Fatalf("frame %d = %v span %d, want %v span %d", i, a, spans[i], want.At(i), i)
		}
	}
}

// TestBinarySalvageTorn cuts the sample at every byte: a cut on a frame
// boundary ends cleanly with io.EOF, a cut inside a frame with
// ErrTornFrame, and either way every frame before the cut decodes.
func TestBinarySalvageTorn(t *testing.T) {
	sample := sampleBin(t)
	tr := sampleTrace()
	// ends[k] is the offset just past frame k (frame 0 is the header).
	ends := []int{len(BinHeaderFrame())}
	for i := 0; i < tr.Len(); i++ {
		ends = append(ends, ends[i]+len(AppendEventFrame(nil, tr.At(i), uint64(i))))
	}
	if ends[len(ends)-1] != len(sample) {
		t.Fatalf("frame ends %v do not cover the %d-byte sample", ends, len(sample))
	}
	boundary := 0 // frames wholly before the cut
	for cut := 1; cut <= len(sample); cut++ {
		for boundary < len(ends) && ends[boundary] <= cut {
			boundary++
		}
		got, _, err := readFrames(t, sample[:cut])
		if boundary == 0 {
			if err != ErrTornFrame {
				t.Fatalf("cut %d inside the header: err = %v, want ErrTornFrame", cut, err)
			}
			continue
		}
		atBoundary := ends[boundary-1] == cut
		switch {
		case atBoundary && err != io.EOF:
			t.Fatalf("cut %d on a frame boundary: err = %v, want io.EOF", cut, err)
		case !atBoundary && err != ErrTornFrame:
			t.Fatalf("cut %d inside a frame: err = %v, want ErrTornFrame", cut, err)
		}
		if len(got) != boundary-1 {
			t.Fatalf("cut %d: decoded %d actions, want %d", cut, len(got), boundary-1)
		}
	}
}

// TestBinarySalvageCorruptCRC flips one checksum byte of each frame in
// turn: that frame reads as ErrCorruptFrame and the frames before it
// decode.
func TestBinarySalvageCorruptCRC(t *testing.T) {
	sample := sampleBin(t)
	tr := sampleTrace()
	end := len(BinHeaderFrame())
	for i := 0; i < tr.Len(); i++ {
		end += len(AppendEventFrame(nil, tr.At(i), uint64(i)))
		corrupt := append([]byte(nil), sample...)
		corrupt[end-1] ^= 0xff // last checksum byte of frame i
		got, _, err := readFrames(t, corrupt)
		if err != ErrCorruptFrame {
			t.Fatalf("frame %d: err = %v, want ErrCorruptFrame", i, err)
		}
		if len(got) != i {
			t.Fatalf("frame %d: decoded %d actions before it, want %d", i, len(got), i)
		}
	}
}

// TestBinaryUnknownKind feeds an intact frame carrying a future kind:
// the frame reads cleanly (its checksum holds) and the decode error
// names the kind, distinguishing version skew from corruption.
func TestBinaryUnknownKind(t *testing.T) {
	data := AppendEventFrame(BinHeaderFrame(), Action{Kind: KindWrite, Thread: 1, Obj: 10}, 0)
	// Hand-build an intact frame with kind byte 200.
	data = AppendFrame(data, FrameEvent, []byte{0 /* flags */, 200 /* kind */, 2, 0, 0, 0})
	got, _, err := readFrames(t, data)
	var unk *errUnknownBinKind
	if !errors.As(err, &unk) || unk.kind != 200 {
		t.Fatalf("err = %v, want an unknown-kind error for kind 200", err)
	}
	if !strings.Contains(err.Error(), "kind 200") {
		t.Fatalf("error does not name the kind: %q", err)
	}
	if errors.Is(err, ErrCorruptFrame) {
		t.Fatal("unknown kind reported as corruption")
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d actions before the unknown kind, want 1", len(got))
	}
}

// TestBinaryEncodeZeroAlloc pins the zero-alloc encode contract: with a
// warm reused buffer, AppendEventFrame allocates nothing.
func TestBinaryEncodeZeroAlloc(t *testing.T) {
	a := Action{Kind: KindWrite, Thread: 1, Obj: 10, Field: 3}
	buf := AppendEventFrame(nil, a, 99) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendEventFrame(buf[:0], a, 99)
	})
	if allocs != 0 {
		t.Fatalf("AppendEventFrame allocates %.1f times per op, want 0", allocs)
	}
}

// FuzzBinaryStream throws arbitrary bytes at the frame reader and the
// event-frame decoder: never panic, end only in io.EOF, ErrTornFrame,
// ErrCorruptFrame or an unknown-kind error, and every event frame that
// decodes re-encodes and decodes to the same action and span.
func FuzzBinaryStream(f *testing.F) {
	sample := sampleBin(f)
	f.Add(sample)
	f.Add(BinHeaderFrame())
	f.Add(sample[:len(sample)-3])           // torn final frame
	f.Add(sample[:len(BinHeaderFrame())+2]) // torn first event frame
	f.Add([]byte("not a stream at all"))
	corrupt := append([]byte(nil), sample...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bufio.NewReader(bytes.NewReader(data)))
		for {
			typ, body, err := fr.Next()
			if err != nil {
				if err != io.EOF && err != ErrTornFrame && err != ErrCorruptFrame {
					t.Fatalf("frame reader error %v", err)
				}
				return
			}
			if typ != FrameEvent {
				continue
			}
			a, span, err := DecodeEventFrame(body)
			if err != nil {
				var unk *errUnknownBinKind
				if err != ErrCorruptFrame && !errors.As(err, &unk) {
					t.Fatalf("decode error %v", err)
				}
				continue
			}
			re := AppendEventFrame(nil, a, span)
			a2, span2, err := DecodeEventFrame(re[5 : len(re)-4])
			if err != nil || !sameAction(a, a2) || span != span2 {
				t.Fatalf("re-encoded %v span %d decodes to %v span %d (err %v)", a, span, a2, span2, err)
			}
		}
	})
}
