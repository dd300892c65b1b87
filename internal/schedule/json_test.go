package schedule

import (
	"encoding/json"
	"strings"
	"testing"

	"streamsched/internal/platform"
)

func TestJSONRoundTrip(t *testing.T) {
	s := fixture(t)
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(data, s.G, s.P)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped schedule invalid: %v", err)
	}
	if back.Stages() != s.Stages() || back.LatencyBound() != s.LatencyBound() {
		t.Fatal("metrics changed across round trip")
	}
	if back.Algorithm != s.Algorithm || back.Eps != s.Eps || back.Period != s.Period {
		t.Fatal("header changed across round trip")
	}
	for _, r := range s.All() {
		br := back.Replica(r.Ref)
		if br == nil || br.Proc != r.Proc || br.Start != r.Start || len(br.In) != len(r.In) {
			t.Fatalf("replica %v changed", r.Ref)
		}
	}
}

func TestJSONContent(t *testing.T) {
	s := fixture(t)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	// json.Marshal compacts the output of custom MarshalJSON methods.
	str := string(data)
	for _, want := range []string{`"algorithm":"test"`, `"stages":2`, `"name":"a"`} {
		if !strings.Contains(str, want) {
			t.Fatalf("JSON missing %q:\n%s", want, str)
		}
	}
}

func TestLoadJSONRejectsMismatch(t *testing.T) {
	s := fixture(t)
	data, _ := s.MarshalJSON()
	wrongP := platform.Homogeneous(2, 1, 1)
	if _, err := LoadJSON(data, s.G, wrongP); err == nil {
		t.Fatal("platform mismatch accepted")
	}
	wrongG := chainAB()
	wrongG.AddTask("extra", 1)
	if _, err := LoadJSON(data, wrongG, s.P); err == nil {
		t.Fatal("graph mismatch accepted")
	}
}

func TestLoadJSONRejectsGarbage(t *testing.T) {
	s := fixture(t)
	if _, err := LoadJSON([]byte("{not json"), s.G, s.P); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadJSON([]byte(`{"period":0,"tasks":2,"procs":4}`), s.G, s.P); err == nil {
		t.Fatal("zero period accepted")
	}
}

// TestLoadJSONRejectsOutOfRange: every index a serialized schedule carries
// is checked against its own header and the bound graph and platform, so a
// malformed document is an error, never a panic or a dangling reference.
func TestLoadJSONRejectsOutOfRange(t *testing.T) {
	s := fixture(t)
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(m map[string]any){
		"negative eps":       func(m map[string]any) { m["eps"] = -1 },
		"replica task":       func(m map[string]any) { replica(m, 0)["task"] = 999 },
		"negative task":      func(m map[string]any) { replica(m, 0)["task"] = -1 },
		"replica copy":       func(m map[string]any) { replica(m, 0)["copy"] = 9 },
		"negative copy":      func(m map[string]any) { replica(m, 0)["copy"] = -1 },
		"replica proc":       func(m map[string]any) { replica(m, 0)["proc"] = 999 },
		"negative proc":      func(m map[string]any) { replica(m, 0)["proc"] = -1 },
		"comm fromTask":      func(m map[string]any) { firstComm(t, m)["fromTask"] = 999 },
		"comm fromCopy":      func(m map[string]any) { firstComm(t, m)["fromCopy"] = 9 },
		"negative comm copy": func(m map[string]any) { firstComm(t, m)["fromCopy"] = -1 },
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			var m map[string]any
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			edit(m)
			bad, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadJSON(bad, s.G, s.P); err == nil {
				t.Fatal("out-of-range schedule accepted")
			}
		})
	}
}

func replica(m map[string]any, i int) map[string]any {
	return m["replicas"].([]any)[i].(map[string]any)
}

// firstComm returns the first incoming communication of any replica.
func firstComm(t *testing.T, m map[string]any) map[string]any {
	t.Helper()
	for _, r := range m["replicas"].([]any) {
		if in, ok := r.(map[string]any)["in"].([]any); ok && len(in) > 0 {
			return in[0].(map[string]any)
		}
	}
	t.Fatal("fixture has no communication")
	return nil
}
