package event

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestTraceJSONRoundTrip: the JSON action codec behind every trace
// record and race frame carries every action kind, commit read/write
// sets and transaction boundaries included, unchanged.
func TestTraceJSONRoundTrip(t *testing.T) {
	tr := sampleTrace()
	actions := append(slices.Clone(tr.Actions()), TxBegin(2), TxEnd(2))
	for i, a := range actions {
		b, err := MarshalAction(a)
		if err != nil {
			t.Fatalf("action %d (%v): %v", i, a, err)
		}
		back, err := UnmarshalAction(b)
		if err != nil {
			t.Fatalf("action %d: unmarshal %s: %v", i, b, err)
		}
		if !sameAction(a, back) {
			t.Errorf("action %d: %v != %v (via %s)", i, back, a, b)
		}
	}
}

// TestWriteTraceIsReadable: trace files name kinds and fields in words,
// so a recording can be read and grepped without the tools.
func TestWriteTraceIsReadable(t *testing.T) {
	tr := NewBuilder().Write(1, 10, 0).Trace()
	var buf bytes.Buffer
	if err := WriteTraceStream(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"format":"goldilocks-stream"`, `"kind":"write"`, `"t":1`, `"o":10`} {
		if !strings.Contains(out, want) {
			t.Errorf("serialized trace missing %q:\n%s", want, out)
		}
	}
}

// TestUnmarshalActionRejectsGarbage: the JSON action codec of the race
// frames refuses malformed JSON, unknown kind names, and the invalid
// kind.
func TestUnmarshalActionRejectsGarbage(t *testing.T) {
	for _, src := range []string{
		`{`,
		`{"kind":"teleport","t":1}`,
		`{"kind":"invalid","t":1}`,
	} {
		if a, err := UnmarshalAction([]byte(src)); err == nil {
			t.Errorf("accepted %q as %v", src, a)
		}
	}
	b, err := MarshalAction(Write(1, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a, err := UnmarshalAction(b); err != nil || !sameAction(a, Write(1, 10, 2)) {
		t.Fatalf("round trip of %s = %v, %v", b, a, err)
	}
}
