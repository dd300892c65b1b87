package service

// Wire transcript and exposition goldens. TestWireTranscript sends a fixed
// request list to one httptest server and pins every reply byte for byte —
// status, Content-Type, Allow, Retry-After and body — plus the request,
// response and work counters, against testdata/transcript.golden.
// TestPrometheusExposition pins the text exposition of a fixed metrics
// snapshot against testdata/prometheus.golden. Regenerate both with
//
//	go test ./internal/service -run 'TestWireTranscript|TestPrometheusExposition' -update-golden
//
// only for an intentional wire change.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// checkGolden compares got with testdata/name, rewriting it under
// -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// wireStep is one transcript request. A []byte body is sent verbatim; any
// other non-nil body is JSON-encoded.
type wireStep struct {
	name   string
	method string
	path   string
	body   any
}

// transcriptMaxBody is the transcript server's body cap: large enough for
// every valid request below, small enough to make a 413 cheap.
const transcriptMaxBody = 64 << 10

func transcriptSteps(t *testing.T) []wireStep {
	feasible := feasibleRequest(2)
	infeasible := infeasibleRequest()
	withOptions := func(o Options) SolveRequest { r := feasibleRequest(2); r.Options = o; return r }
	noProcs := feasibleRequest(2)
	noProcs.Platform = Platform{}
	oversize := []byte(`{"graph":{"name":"` + strings.Repeat("x", transcriptMaxBody) + `"}}`)

	problem := func(r SolveRequest, o *Options) BatchProblem {
		return BatchProblem{Graph: r.Graph, Platform: r.Platform, Options: o}
	}
	batch := BatchRequest{
		Options: feasible.Options,
		Problems: []BatchProblem{
			problem(feasible, nil),
			problem(feasibleRequest(3), nil),
			problem(infeasible, &infeasible.Options),
			{},
		},
	}

	good := replanRequest(t, 2, PlatformDelta{Speed: []ProcSpeed{{Proc: 1, Speed: 2}}})
	replan := func(edit func(*ReplanRequest)) ReplanRequest { r := good; edit(&r); return r }

	simulate := func(r SolveRequest, sc ...Scenario) SimulateRequest {
		return SimulateRequest{Graph: r.Graph, Platform: r.Platform, Options: r.Options, Scenarios: sc}
	}
	sweep := []Scenario{
		{Name: "default"},
		{Name: "crash", CrashProcs: []int{0}, CrashAt: 5},
		{Name: "sync", Synchronous: true, Items: 20, Warmup: 5},
	}

	post := func(name, path string, body any) wireStep { return wireStep{name, http.MethodPost, path, body} }
	get := func(name, path string) wireStep { return wireStep{name, http.MethodGet, path, nil} }
	return []wireStep{
		post("solve solved", "/v1/solve", feasible),
		post("solve cached", "/v1/solve", feasible),
		post("solve infeasible", "/v1/solve", infeasible),
		post("solve infeasible cached", "/v1/solve", infeasible),
		get("solve GET", "/v1/solve"),
		post("solve invalid JSON", "/v1/solve", []byte("{nope")),
		post("solve too large", "/v1/solve", oversize),
		post("solve bad schema", "/v1/solve", SolveRequest{SchemaVersion: 99}),
		post("solve no tasks", "/v1/solve", SolveRequest{Options: feasible.Options}),
		post("solve no processors", "/v1/solve", noProcs),
		post("solve no period", "/v1/solve", withOptions(Options{Eps: 1})),
		post("solve bad algorithm", "/v1/solve", withOptions(Options{Algorithm: "hef", Period: 40})),

		post("batch mixed", "/v1/batch", batch),
		post("batch cached", "/v1/batch", batch),
		get("batch GET", "/v1/batch"),
		post("batch invalid JSON", "/v1/batch", []byte("[1,2")),
		post("batch too large", "/v1/batch", oversize),
		post("batch bad schema", "/v1/batch", BatchRequest{SchemaVersion: 99}),
		post("batch empty", "/v1/batch", BatchRequest{Options: feasible.Options}),

		post("replan repaired", "/v1/replan", good),
		post("replan cached", "/v1/replan", good),
		post("replan infeasible", "/v1/replan", replan(func(r *ReplanRequest) { r.Delta = PlatformDelta{Lost: []int{0, 1, 2}} })),
		post("replan budget conflict", "/v1/replan", replan(func(r *ReplanRequest) {
			r.Delta, r.RepairBudget, r.NoColdFallback = PlatformDelta{Lost: []int{0}}, 1, true
		})),
		get("replan GET", "/v1/replan"),
		post("replan invalid JSON", "/v1/replan", []byte(`{"schedule":}`)),
		post("replan too large", "/v1/replan", oversize),
		post("replan bad schema", "/v1/replan", replan(func(r *ReplanRequest) { r.SchemaVersion = 99 })),
		post("replan no tasks", "/v1/replan", replan(func(r *ReplanRequest) { r.Graph = Graph{} })),
		post("replan no schedule", "/v1/replan", replan(func(r *ReplanRequest) { r.Schedule = nil })),
		post("replan bad schedule", "/v1/replan",
			editSchedule(t, good, func(m map[string]any) { firstReplica(m)["proc"] = 999 })),
		post("replan options mismatch", "/v1/replan", replan(func(r *ReplanRequest) { r.Options.Eps = 0 })),
		post("replan negative budget", "/v1/replan", replan(func(r *ReplanRequest) { r.RepairBudget = -1 })),
		post("replan bad delta", "/v1/replan", replan(func(r *ReplanRequest) { r.Delta = PlatformDelta{Lost: []int{99}} })),

		post("simulate cached", "/v1/simulate", simulate(feasible, sweep...)),
		post("simulate solved", "/v1/simulate", simulate(feasibleRequest(4))),
		post("simulate infeasible", "/v1/simulate", simulate(infeasible)),
		get("simulate GET", "/v1/simulate"),
		post("simulate invalid JSON", "/v1/simulate", []byte("null x")),
		post("simulate too large", "/v1/simulate", oversize),
		post("simulate bad schema", "/v1/simulate", SimulateRequest{SchemaVersion: 99}),
		post("simulate no period", "/v1/simulate", simulate(withOptions(Options{Eps: 1}))),
		post("simulate crash proc out of range", "/v1/simulate",
			simulate(feasible, Scenario{Name: "ok"}, Scenario{CrashProcs: []int{4}})),

		get("readyz", "/readyz"),
		get("healthz", "/healthz"),
	}
}

// drainedSteps run after the handle has begun draining.
func drainedSteps(t *testing.T) []wireStep {
	feasible := feasibleRequest(2)
	return []wireStep{
		{"drained solve", http.MethodPost, "/v1/solve", feasible},
		{"drained replan", http.MethodPost, "/v1/replan", replanRequest(t, 2, PlatformDelta{})},
		{"drained simulate", http.MethodPost, "/v1/simulate",
			SimulateRequest{Graph: feasible.Graph, Platform: feasible.Platform, Options: feasible.Options}},
		{"drained readyz", http.MethodGet, "/readyz", nil},
	}
}

var uptimeField = regexp.MustCompile(`"uptimeSeconds":[^,}]*`)

// recordStep sends one step and appends its reply to the transcript.
func recordStep(t *testing.T, ts *httptest.Server, out *bytes.Buffer, st wireStep) {
	t.Helper()
	var body io.Reader
	switch b := st.body.(type) {
	case nil:
	case []byte:
		body = bytes.NewReader(b)
	default:
		enc, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(st.method, ts.URL+st.path, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	data = uptimeField.ReplaceAll(data, []byte(`"uptimeSeconds":"<masked>"`))
	fmt.Fprintf(out, "=== %s\n%s %s\nStatus: %d\n", st.name, st.method, st.path, resp.StatusCode)
	for _, h := range []string{"Content-Type", "Allow", "Retry-After"} {
		fmt.Fprintf(out, "%s: %s\n", h, resp.Header.Get(h))
	}
	fmt.Fprintf(out, "Body-Bytes: %d\n", len(data))
	out.Write(data)
	if !bytes.HasSuffix(data, []byte("\n")) {
		out.WriteString("\n")
	}
}

// writeCounters appends a labeled counter map in key order.
func writeCounters(out *bytes.Buffer, name string, m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%s[%s]: %d\n", name, k, m[k])
	}
}

// TestWireTranscript pins the whole HTTP contract of the four /v1
// endpoints and the probes: every success, cached and infeasible reply,
// every 400/405/413 refusal and the 503s after a drain.
func TestWireTranscript(t *testing.T) {
	srv := New(Config{MaxBodyBytes: transcriptMaxBody})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out bytes.Buffer
	for _, st := range transcriptSteps(t) {
		recordStep(t, ts, &out, st)
	}
	srv.Drain(context.Background())
	for _, st := range drainedSteps(t) {
		recordStep(t, ts, &out, st)
	}

	m := srv.Metrics()
	out.WriteString("=== counters\n")
	writeCounters(&out, "requests", m.Requests)
	writeCounters(&out, "responses", m.Responses)
	fmt.Fprintf(&out, "solveCalls: %d\nsimRuns: %d\npanics: %d\nlatencyCount: %d\n",
		m.SolveCalls, m.SimRuns, m.Panics, m.LatencyMs.Count)
	checkGolden(t, "transcript.golden", out.Bytes())
}

// TestPrometheusExposition pins the text exposition of a fixed snapshot
// carrying both quantile families: the request window and two stages.
func TestPrometheusExposition(t *testing.T) {
	s := MetricsSnapshot{
		UptimeSeconds:    12.5,
		Requests:         map[string]int64{"solve": 7, "batch": 1, "simulate": 2},
		Responses:        map[string]int64{"200": 8, "409": 1, "429": 1},
		SolveCalls:       5,
		SimRuns:          3,
		Coalesced:        1,
		Panics:           0,
		SnapshotWrites:   2,
		SnapshotReplayed: 4,
		SnapshotSkipped:  1,
		Draining:         true,
		Cache:            CacheStats{Hits: 3, Misses: 5, HitRatio: 0.375, Entries: 5, Capacity: 1024},
		Queue:            QueueStats{Depth: 1, InFlight: 2, Capacity: 10, Rejected: 1},
		LatencyMs:        LatencyStats{Count: 10, P50: 1.5, P90: 4, P99: 9.25, Max: 12},
		StagesMs: map[string]LatencyStats{
			"solve":  {Count: 5, P50: 0.75, P90: 2, P99: 3.5, Max: 4},
			"decode": {Count: 10, P50: 0.01, P90: 0.02, P99: 0.05, Max: 0.125},
		},
	}
	checkGolden(t, "prometheus.golden", renderPrometheus(s))
}
