package bench

import (
	"encoding/json"
	"testing"
)

// A scaled-down end-to-end run: both sides complete, throughput and
// stage summaries are populated, and the report survives the JSON
// round trip the artifact depends on.
func TestIngestSmall(t *testing.T) {
	rep, err := Ingest(IngestConfig{Sessions: 2, Events: 400, SampleEvery: 2}, func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 2 || rep.EventsPerSession != 400 || rep.SampleEvery != 2 {
		t.Fatalf("config echo = %+v", rep)
	}
	for name, side := range map[string]IngestSide{
		"local": rep.Local, "local_lockset": rep.LocalLockset,
		"remote": rep.Remote,
	} {
		if side.Events != 800 {
			t.Fatalf("%s events = %d, want 800", name, side.Events)
		}
		if side.EventsPerSec <= 0 || side.ElapsedMS <= 0 {
			t.Fatalf("%s throughput not measured: %+v", name, side)
		}
		if len(side.Stages) == 0 {
			t.Fatalf("%s has no stage summaries", name)
		}
		for _, st := range side.Stages {
			if st.Count == 0 {
				t.Fatalf("%s stage %s reported with zero count", name, st.Stage)
			}
			if st.P99US < st.P50US {
				t.Fatalf("%s stage %s: p99 %g < p50 %g", name, st.Stage, st.P99US, st.P50US)
			}
		}
	}
	// The remote side must cover both halves of the pipeline: a
	// client-observed stage and a server-observed one.
	stages := map[string]bool{}
	for _, st := range rep.Remote.Stages {
		stages[st.Stage] = true
	}
	if !stages["client_encode"] || !stages["apply"] {
		t.Fatalf("remote stages = %v, want client_encode and apply", stages)
	}

	data, err := MarshalIngest(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back IngestReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Remote.Events != rep.Remote.Events || len(back.Remote.Stages) != len(rep.Remote.Stages) {
		t.Fatal("report did not survive the JSON round trip")
	}
	if FormatIngest(rep) == "" {
		t.Fatal("empty text rendering")
	}
}
