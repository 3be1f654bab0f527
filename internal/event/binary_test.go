package event

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"goldilocks/internal/report"
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

func sampleBin(tb testing.TB) []byte {
	var buf bytes.Buffer
	if err := WriteTraceBin(&buf, sampleTrace()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
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

// TestBinaryRoundTrip writes the full-vocabulary sample and reads it
// back with zero drops and identical actions.
func TestBinaryRoundTrip(t *testing.T) {
	want := sampleTrace()
	tr, dropped, err := ReadTraceBin(bytes.NewReader(sampleBin(t)))
	if err != nil || dropped != 0 {
		t.Fatalf("ReadTraceBin: err=%v dropped=%d", err, dropped)
	}
	if tr.Len() != want.Len() {
		t.Fatalf("round trip length %d, want %d", tr.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if tr.At(i).String() != want.At(i).String() {
			t.Fatalf("action %d: %v != %v", i, tr.At(i), want.At(i))
		}
	}
}

// TestBinaryAutoSniff checks ReadTraceAuto routes binary, line-JSON,
// and legacy inputs to the right reader.
func TestBinaryAutoSniff(t *testing.T) {
	tr, dropped, err := ReadTraceAuto(bytes.NewReader(sampleBin(t)))
	if err != nil || dropped != 0 || tr.Len() != sampleTrace().Len() {
		t.Fatalf("binary sniff: len=%d dropped=%d err=%v", tr.Len(), dropped, err)
	}
	var jbuf bytes.Buffer
	if err := WriteTraceStream(&jbuf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	tr, _, err = ReadTraceAuto(&jbuf)
	if err != nil || tr.Len() != sampleTrace().Len() {
		t.Fatalf("stream sniff: len=%d err=%v", tr.Len(), err)
	}
	tr, _, err = ReadTraceAuto(strings.NewReader(`{"actions":[{"kind":"write","t":1,"o":10}]}`))
	if err != nil || tr.Len() != 1 {
		t.Fatalf("legacy sniff: len=%d err=%v", tr.Len(), err)
	}
}

// TestBinarySalvageTorn cuts the sample mid-frame: the valid prefix
// must be salvaged and the error must be a structured corruption
// report (the same type as resilience.Report).
func TestBinarySalvageTorn(t *testing.T) {
	sample := sampleBin(t)
	for _, cut := range []int{len(sample) - 1, len(sample) - 5, len(sample) - 9} {
		tr, dropped, err := ReadTraceBin(bytes.NewReader(sample[:cut]))
		var rep *report.Report
		if !errors.As(err, &rep) {
			t.Fatalf("cut %d: err = %v, want *report.Report", cut, err)
		}
		if rep.Kind != report.Corruption {
			t.Fatalf("cut %d: report kind %v, want Corruption", cut, rep.Kind)
		}
		if dropped != 1 {
			t.Fatalf("cut %d: dropped = %d, want 1", cut, dropped)
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("cut %d: salvaged prefix invalid: %v", cut, verr)
		}
		if tr.Len() != sampleTrace().Len()-1 {
			t.Fatalf("cut %d: salvaged %d actions, want %d", cut, tr.Len(), sampleTrace().Len()-1)
		}
	}
}

// TestBinarySalvageCorruptCRC flips a payload byte in the middle of the
// stream: the prefix before the bad frame survives, the error is a
// corruption report, and nothing after the bad frame is trusted.
func TestBinarySalvageCorruptCRC(t *testing.T) {
	sample := sampleBin(t)
	corrupt := append([]byte(nil), sample...)
	// Flip a byte well past the header frame but before the end.
	corrupt[len(corrupt)/2] ^= 0xff
	tr, dropped, err := ReadTraceBin(bytes.NewReader(corrupt))
	var rep *report.Report
	if !errors.As(err, &rep) || rep.Kind != report.Corruption {
		t.Fatalf("err = %v, want corruption report", err)
	}
	if dropped < 1 {
		t.Fatalf("dropped = %d, want >= 1", dropped)
	}
	if verr := tr.Validate(); verr != nil {
		t.Fatalf("salvaged prefix invalid: %v", verr)
	}
	if tr.Len() >= sampleTrace().Len() {
		t.Fatalf("salvage kept %d actions out of %d despite corruption", tr.Len(), sampleTrace().Len())
	}
}

// TestBinaryUnknownKind feeds an intact frame carrying a future kind:
// the reader must salvage the prefix and name the kind in a structured
// report rather than failing the checksum path.
func TestBinaryUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	bw, err := NewBinWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Append(Action{Kind: KindWrite, Thread: 1, Obj: 10}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Hand-build an intact frame with kind byte 200.
	body := []byte{0 /* flags */, 200 /* kind */, 2, 0, 0, 0}
	buf.Write(AppendFrame(nil, FrameEvent, body))
	tr, dropped, rerr := ReadTraceBin(&buf)
	var rep *report.Report
	if !errors.As(rerr, &rep) || rep.Kind != report.Corruption {
		t.Fatalf("err = %v, want corruption report", rerr)
	}
	if !strings.Contains(rep.Detail, "kind 200") {
		t.Fatalf("report does not name the kind: %q", rep.Detail)
	}
	if tr.Len() != 1 || dropped != 1 {
		t.Fatalf("salvage = %d actions, %d dropped; want 1, 1", tr.Len(), dropped)
	}
}

// TestBinWriterFlushBoundaries mirrors the StreamWriter durability
// contract: after Flush, tearing the underlying buffer anywhere only
// loses frames appended since, bounding the loss window to under
// autoFlushRecords records.
func TestBinWriterFlushBoundaries(t *testing.T) {
	var buf bytes.Buffer
	bw, err := NewBinWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tr := sampleTrace()
	for i := 0; i < tr.Len(); i++ {
		if err := bw.Append(tr.At(i)); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			// Everything up to here must already be durable and readable.
			got, dropped, rerr := ReadTraceBin(bytes.NewReader(buf.Bytes()))
			if rerr != nil || dropped != 0 || got.Len() != 5 {
				t.Fatalf("after mid-stream flush: len=%d dropped=%d err=%v", got.Len(), dropped, rerr)
			}
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Append(Action{Kind: KindRead, Thread: 1, Obj: 10}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	got, dropped, rerr := ReadTraceBin(bytes.NewReader(buf.Bytes()))
	if rerr != nil || dropped != 0 || got.Len() != tr.Len() {
		t.Fatalf("after close: len=%d dropped=%d err=%v", got.Len(), dropped, rerr)
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

// FuzzBinaryStream throws arbitrary bytes at the binary reader with the
// same robustness contract as FuzzReadTraceStream: never panic, never
// return an invalid trace, and any salvage is a valid re-serializable
// trace; every error surfaced past the header is a structured
// corruption report.
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
		tr, dropped, err := ReadTraceBin(bytes.NewReader(data))
		if err != nil {
			var rep *report.Report
			if errors.As(err, &rep) {
				if rep.Kind != report.Corruption {
					t.Fatalf("binary reader produced report kind %v", rep.Kind)
				}
				if verr := tr.Validate(); verr != nil {
					t.Fatalf("salvage alongside corruption report invalid: %v", verr)
				}
			}
			return
		}
		if dropped < 0 {
			t.Fatalf("negative dropped count %d", dropped)
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("salvaged trace invalid: %v", verr)
		}
		var buf bytes.Buffer
		if werr := WriteTraceBin(&buf, tr); werr != nil {
			t.Fatalf("re-serialize: %v", werr)
		}
		tr2, dropped2, rerr := ReadTraceBin(&buf)
		if rerr != nil || dropped2 != 0 {
			t.Fatalf("round trip: err=%v dropped=%d", rerr, dropped2)
		}
		if tr2.Len() != tr.Len() {
			t.Fatalf("round trip length %d, want %d", tr2.Len(), tr.Len())
		}
	})
}
