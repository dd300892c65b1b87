package main

// The traced run's in-process replay: the same request sequence, each
// request taken apart into the calls the daemon makes, every call timed at
// the layer's public function. Spans are kept in memory and written to a
// file when the run ends.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"streamsched/internal/core"
	"streamsched/internal/obs"
	"streamsched/internal/schedule"
	"streamsched/internal/service"
)

// span is one recorded span. Self is the span's own time: its duration
// less its children, and less any work it repeats that another span
// already accounts for (Handle.Solve re-hashes the problem).
type span struct {
	Name   string  `json:"name"`
	Req    int     `json:"req"`
	Parent int     `json:"parent"`
	Start  float64 `json:"startUs"`
	End    float64 `json:"endUs"`
	Self   float64 `json:"selfUs"`
}

// recorder keeps the spans of one traced run in memory.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return float64(time.Since(r.t0)) / float64(time.Microsecond) }

// begin opens a span of request req under parent (-1: a request root).
// A nil recorder records nothing.
func (r *recorder) begin(name string, req, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: r.now()})
	return len(r.spans) - 1
}

// end closes span id and charges its duration to its parent's children.
func (r *recorder) end(id int) float64 {
	if r == nil {
		return 0
	}
	sp := &r.spans[id]
	sp.End = r.now()
	d := sp.End - sp.Start
	sp.Self += d
	if sp.Parent >= 0 {
		r.spans[sp.Parent].Self -= d
	}
	return d
}

// discount removes us of repeated work from span id's self time (the
// time stays with the parent, where the other span also sits).
func (r *recorder) discount(id int, us float64) {
	if r == nil {
		return
	}
	r.spans[id].Self -= us
	if p := r.spans[id].Parent; p >= 0 {
		r.spans[p].Self += us
	}
}

// layerTotals sums self time (µs) by span name over the non-root spans.
func (r *recorder) layerTotals() map[string]float64 {
	tot := make(map[string]float64)
	for _, sp := range r.spans {
		if sp.Parent >= 0 {
			tot[sp.Name] += sp.Self
		}
	}
	return tot
}

// write stores the spans as JSON in dir.
func (r *recorder) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": r.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// counters are the deterministic work counts of a replay.
type counters struct {
	solves                               int
	trials, placements, rollbacks, falls int64
	replans, tasks, replayed, repaired   int
	coldFallbacks                        int
	syncRuns                             int
	wakes                                int64
	// schedules returned by solves and replans, and the sum of their
	// LatencyBound/Period.
	feasible int
	periods  float64
}

// addTrace folds the ltf/rltf spans of a solver trace into the mapper
// counters.
func (c *counters) addTrace(tr *obs.Trace) {
	if c == nil {
		return
	}
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name != "ltf" && sp.Name != "rltf" {
			continue
		}
		c.addPhase(sp.Args)
	}
}

func (c *counters) addPhase(args map[string]any) {
	c.solves++
	c.trials += argInt(args, "trials")
	c.placements += argInt(args, "placements")
	c.rollbacks += argInt(args, "rollbacks")
	c.falls += argInt(args, "fallbacks")
}

func argInt(args map[string]any, key string) int64 {
	switch v := args[key].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	case float64:
		return int64(v)
	}
	return 0
}

// addRepair records one successful replan of a tasks-task schedule.
func (c *counters) addRepair(tasks int, st core.RepairStats) {
	if c == nil {
		return
	}
	c.replans++
	c.tasks += tasks
	c.replayed += st.Replayed
	c.repaired += st.Repaired
	if st.ColdSolve {
		c.coldFallbacks++
	}
}

// addWakes records one synchronous simulation.
func (c *counters) addWakes(n int64) {
	if c == nil {
		return
	}
	c.syncRuns++
	c.wakes += n
}

// addSchedule records a returned schedule for sched_latency_periods.
func (c *counters) addSchedule(s *schedule.Schedule) {
	if c == nil {
		return
	}
	c.feasible++
	c.periods += s.LatencyBound() / s.Period
}

// replayer is the traced run's pipeline: it replays requests one at a
// time, every layer call a span, with cached requests served by an
// in-process service.Handle warmed like the daemon.
type replayer struct {
	pipeline
	handle *service.Handle
}

func newReplayer(w *workload) *replayer {
	rp := &replayer{handle: service.NewHandle(service.Config{CacheEntries: cacheEntries})}
	rp.pipeline = pipeline{w: w, rec: newRecorder(), hit: rp.lookup}
	return rp
}

// warm solves the set-up templates through the in-process handle, as the
// daemon's set-up does.
func (rp *replayer) warm() error {
	for _, ti := range rp.w.warmup {
		var req service.SolveRequest
		if err := json.Unmarshal(rp.w.templates[ti].body(), &req); err != nil {
			return err
		}
		d, err := buildProblem(req.Graph, req.Platform, req.Options)
		if err != nil {
			return err
		}
		if _, err := rp.handle.Solve(context.Background(), service.Spec{Graph: d.g, Platform: d.p, Solver: d.sv}); err != nil {
			return err
		}
	}
	return nil
}

// lookup serves a cache hit through the in-process handle. Handle.Solve
// hashes the problem itself; the hash is timed again right after, on the
// same data, and its time moves from service.lookup to service.hash.
func (rp *replayer) lookup(_ int, d decoded) (service.Outcome, error) {
	sp := rp.begin("service.lookup")
	out, err := rp.handle.Solve(context.Background(), service.Spec{Graph: d.g, Platform: d.p, Solver: d.sv})
	rp.end(sp)
	hs := rp.begin("service.hash")
	service.ProblemHash(d.g, d.p, d.sv)
	rp.rec.discount(sp, rp.rec.end(hs))
	return out, err
}

// replay renders template ti as request req, every layer call a span, and
// returns the digest of the reply.
func (rp *replayer) replay(req, ti int) ([32]byte, error) {
	rp.req = req
	rp.root = rp.rec.begin("request", req, -1)
	_, err := rp.render(&rp.w.templates[ti])
	rp.rec.end(rp.root)
	return sha256.Sum256(rp.buf.Bytes()), err
}

// count renders the templates again, untimed, with obs tracing armed, and
// returns the work they took. The timed replay runs without tracing, as
// the daemon under test does.
func (rp *replayer) count(tpls []int) (counters, error) {
	var c counters
	rec := rp.rec
	rp.rec, rp.c = nil, &c
	defer func() { rp.rec, rp.c = rec, nil }()
	var err error
	withObs(func() {
		for _, ti := range tpls {
			if _, err = rp.render(&rp.w.templates[ti]); err != nil {
				return
			}
		}
	})
	return c, err
}
