package event_test

import (
	"bytes"
	"testing"

	"goldilocks/internal/event"
)

// Older line-JSON wire clients stamped an optional "sp" span id into
// the record envelope, outside the action CRC. These tests pin that a
// stream file carrying such records still reads in full, and that the
// CRC discipline (checksum over the action body only) is unchanged by
// the extra key.

// spannedStream writes actions as a stream file whose records each
// carry an "sp" envelope key, as an old sampling client wrote them.
func spannedStream(t *testing.T, span string, actions ...event.Action) []byte {
	t.Helper()
	out := event.StreamHeaderLine()
	for _, a := range actions {
		rec, err := event.EncodeRecord(a)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bytes.Replace(rec, []byte(`,"crc"`), []byte(`,"sp":`+span+`,"crc"`), 1)...)
	}
	return out
}

func TestRecordSpanBackwardCompatible(t *testing.T) {
	data := spannedStream(t, "123456", event.Acquire(2, 20), event.Read(2, 10, 1), event.Release(2, 20))
	if !bytes.Contains(data, []byte(`"sp":123456`)) {
		t.Fatalf("test stream carries no span: %s", data)
	}
	tr, dropped, err := event.ReadTraceStream(bytes.NewReader(data))
	if err != nil || dropped != 0 {
		t.Fatalf("spanned stream: dropped=%d err=%v", dropped, err)
	}
	if tr.Len() != 3 || tr.At(1).Kind != event.KindRead || tr.At(1).Thread != 2 {
		t.Fatalf("spanned stream decoded as %v", tr)
	}
	plain, err := event.EncodeRecord(event.Read(2, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte(`"sp"`)) {
		t.Fatalf("writer emitted a span key: %s", plain)
	}
}

func TestRecordSpanCRCCoversActionOnly(t *testing.T) {
	// The CRC covers the action body, not the envelope: a different span
	// must not invalidate the checksum, while a flipped action must.
	data := spannedStream(t, "5", event.Acquire(1, 20), event.Release(1, 20))
	reSpanned := bytes.ReplaceAll(data, []byte(`"sp":5`), []byte(`"sp":9`))
	tr, dropped, err := event.ReadTraceStream(bytes.NewReader(reSpanned))
	if err != nil || dropped != 0 || tr.Len() != 2 {
		t.Fatalf("re-spanned stream: len=%d dropped=%d err=%v", tr.Len(), dropped, err)
	}
	damaged := bytes.Replace(data, []byte(`"t":1`), []byte(`"t":2`), 1)
	tr, dropped, err = event.ReadTraceStream(bytes.NewReader(damaged))
	if err != nil || dropped != 2 || tr.Len() != 0 {
		t.Fatalf("action corruption not caught by the record CRC: len=%d dropped=%d err=%v", tr.Len(), dropped, err)
	}
}
