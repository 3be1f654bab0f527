package event

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonAction is the serialized form of an Action. Kind uses the String
// names so trace files are greppable.
type jsonAction struct {
	Kind   string     `json:"kind"`
	Thread Tid        `json:"t"`
	Obj    Addr       `json:"o,omitempty"`
	Field  FieldID    `json:"f,omitempty"`
	Peer   Tid        `json:"peer,omitempty"`
	Reads  []Variable `json:"reads,omitempty"`
	Writes []Variable `json:"writes,omitempty"`
}

// MarshalAction serializes a single action in the same JSON shape trace
// files use (greppable kind names, omitted zero fields). The
// goldilocksd race frames carry it inside their JSON payload.
func MarshalAction(a Action) ([]byte, error) {
	return json.Marshal(jsonAction{
		Kind:   a.Kind.String(),
		Thread: a.Thread,
		Obj:    a.Obj,
		Field:  a.Field,
		Peer:   a.Peer,
		Reads:  a.Reads,
		Writes: a.Writes,
	})
}

// UnmarshalAction parses an action serialized by MarshalAction.
func UnmarshalAction(data []byte) (Action, error) {
	var ja jsonAction
	if err := json.Unmarshal(data, &ja); err != nil {
		return Action{}, fmt.Errorf("event: decoding action: %w", err)
	}
	k, ok := kindByName[ja.Kind]
	if !ok || k == KindInvalid {
		return Action{}, fmt.Errorf("event: unknown action kind %q", ja.Kind)
	}
	return Action{
		Kind:   k,
		Thread: ja.Thread,
		Obj:    ja.Obj,
		Field:  ja.Field,
		Peer:   ja.Peer,
		Reads:  ja.Reads,
		Writes: ja.Writes,
	}, nil
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()

// WriteTrace serializes tr as JSON (one object with an "actions" array).
func WriteTrace(w io.Writer, tr *Trace) error {
	out := struct {
		Actions []jsonAction `json:"actions"`
	}{Actions: make([]jsonAction, tr.Len())}
	for i := 0; i < tr.Len(); i++ {
		a := tr.At(i)
		out.Actions[i] = jsonAction{
			Kind:   a.Kind.String(),
			Thread: a.Thread,
			Obj:    a.Obj,
			Field:  a.Field,
			Peer:   a.Peer,
			Reads:  a.Reads,
			Writes: a.Writes,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ReadTrace deserializes a trace written by WriteTrace and validates it.
func ReadTrace(r io.Reader) (*Trace, error) {
	var in struct {
		Actions []jsonAction `json:"actions"`
	}
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("event: decoding trace: %w", err)
	}
	actions := make([]Action, len(in.Actions))
	for i, ja := range in.Actions {
		k, ok := kindByName[ja.Kind]
		if !ok || k == KindInvalid {
			return nil, fmt.Errorf("event: action %d: unknown kind %q", i, ja.Kind)
		}
		actions[i] = Action{
			Kind:   k,
			Thread: ja.Thread,
			Obj:    ja.Obj,
			Field:  ja.Field,
			Peer:   ja.Peer,
			Reads:  ja.Reads,
			Writes: ja.Writes,
		}
	}
	tr := NewTrace(actions)
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("event: invalid trace: %w", err)
	}
	return tr, nil
}
