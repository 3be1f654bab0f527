package event

import (
	"encoding/json"
	"fmt"
)

// jsonAction is the serialized form of an Action in the line-JSON trace
// stream and the goldilocksd race frames. Kind uses the String names so
// trace files are greppable.
type jsonAction struct {
	Kind   string     `json:"kind"`
	Thread Tid        `json:"t"`
	Obj    Addr       `json:"o,omitempty"`
	Field  FieldID    `json:"f,omitempty"`
	Peer   Tid        `json:"peer,omitempty"`
	Reads  []Variable `json:"reads,omitempty"`
	Writes []Variable `json:"writes,omitempty"`
}

func toJSONAction(a Action) jsonAction {
	return jsonAction{
		Kind:   a.Kind.String(),
		Thread: a.Thread,
		Obj:    a.Obj,
		Field:  a.Field,
		Peer:   a.Peer,
		Reads:  a.Reads,
		Writes: a.Writes,
	}
}

// action converts back; ok is false when the kind name is unknown.
func (ja *jsonAction) action() (a Action, ok bool) {
	k, ok := kindByName[ja.Kind]
	if !ok || k == KindInvalid {
		return Action{}, false
	}
	return Action{
		Kind:   k,
		Thread: ja.Thread,
		Obj:    ja.Obj,
		Field:  ja.Field,
		Peer:   ja.Peer,
		Reads:  ja.Reads,
		Writes: ja.Writes,
	}, true
}

// MarshalAction serializes a single action in the same JSON shape trace
// stream records use (greppable kind names, omitted zero fields). The
// goldilocksd race frames carry it inside their JSON payload.
func MarshalAction(a Action) ([]byte, error) {
	return json.Marshal(toJSONAction(a))
}

// UnmarshalAction parses an action serialized by MarshalAction.
func UnmarshalAction(data []byte) (Action, error) {
	var ja jsonAction
	if err := json.Unmarshal(data, &ja); err != nil {
		return Action{}, fmt.Errorf("event: decoding action: %w", err)
	}
	a, ok := ja.action()
	if !ok {
		return Action{}, fmt.Errorf("event: unknown action kind %q", ja.Kind)
	}
	return a, nil
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()
