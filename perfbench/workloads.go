package main

// Workload generation. Every input is a pure function of (workload, seed):
// the daemon only ever receives the bodies generated here, and the
// verifier recomputes each expected reply from the same bytes.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"streamsched/internal/dag"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/rng"
	"streamsched/internal/service"
)

// Seeds recorded for gain claims: the default seed is the one a change is
// developed against; the held-out seed confirms the claim afterwards.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// Load shape shared by the service workloads.
const (
	// setups is how many times a run starts the daemon and warms it up;
	// setup_s is their median.
	setups = 5
	// closedSlots and openSlots are how many closed-loop chunks (about a
	// second each) and open-loop windows (about half a second) a service
	// run times; it sends openSlots/closedSlots windows after each chunk.
	closedSlots = 5
	openSlots   = 30
	// cacheEntries is the daemon's LRU bound (-cache): small enough that
	// solve-miss evicts on nearly every request once the cache is full.
	cacheEntries = 256
	// auditEvery picks which ε=3 schedules get the exhaustive failure
	// audit of Schedule.Validate (about 0.1 s each); every other schedule
	// gets the full audit, and every schedule gets the structural checks.
	auditEvery = 16
	// procs is the paper's platform size.
	procs = 20
)

// spec fixes one workload's shape. The rates were measured on a 2-vCPU
// Intel Xeon @ 2.10GHz and stay fixed so that runs on one machine compare.
type spec struct {
	name string
	// closedS and closedRPS size the closed-loop campaign: closedS ×
	// closedRPS requests, closedS seconds at the reference rate (at most
	// half of --seconds). The open loop gets the rest of --seconds.
	closedS, closedRPS float64
	// openRPS is the open loop's offered rate, below the closed-loop
	// throughput of the commit that defined the benchmark.
	openRPS float64
	// replay is how many open-loop requests the traced run replays
	// in-process, layer by layer.
	replay int
	// hot is solve-hit's hot-set size; committed bounds replan-sim's
	// committed schedules.
	hot, committed int
	// graphsPerPoint sizes fig3a (all ten granularity points of Fig. 3a).
	graphsPerPoint int
}

var specs = []*spec{
	{
		name:    "solve-miss",
		closedS: 4, closedRPS: 160, openRPS: 72, replay: 150,
	},
	{
		name:    "solve-hit",
		closedS: 4, closedRPS: 950, openRPS: 320, replay: 400, hot: 60,
	},
	{
		name:    "replan-sim",
		closedS: 4, closedRPS: 150, openRPS: 72, replay: 200, committed: 40,
	},
	{
		name:           "fig3a",
		graphsPerPoint: 20,
	},
}

func lookupSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// kind is the endpoint a template targets.
type kind uint8

const (
	kindSolve kind = iota
	kindReplan
	kindSimulate
)

var kindPath = [...]string{"/v1/solve", "/v1/replan", "/v1/simulate"}

// template is one distinct request body plus what its reply must be.
type template struct {
	kind kind
	// segs concatenate to the body; large shared prefixes (graph,
	// platform, committed schedule) are stored once per problem.
	segs [][]byte
	size int
	// cached: the reply must come from the daemon's cache.
	cached bool
	// audit: run the exhaustive failure audit on the returned schedule.
	audit bool
	// problem indexes workload.problems.
	problem int
}

func (t *template) body() []byte {
	if len(t.segs) == 1 {
		return t.segs[0]
	}
	return bytes.Join(t.segs, nil)
}

// workload is the generated input of one run.
type workload struct {
	spec      *spec
	seed      uint64
	templates []template
	// problems are the /v1/solve bodies of the problems templates build
	// on; the reference decodes them.
	problems [][]byte
	// warmup is sent once per set-up, after /readyz; closed is the
	// closed-loop campaign, closedSlots chunks of chunk requests, and open
	// the open-loop sequence, openSlots windows of window requests. Each is
	// followed by a reserve of a quarter as many for slots that replace
	// disturbed ones.
	warmup, closed, open []int
	chunk, window        int
	genTime              time.Duration
	deep                 int // ε=3 schedules seen by audit
}

// requestCounts sizes the two phases of a service workload.
func requestCounts(sp *spec, seconds float64) (closed, open int) {
	cs := min(sp.closedS, seconds/2)
	closed = int(math.Round(cs * sp.closedRPS))
	open = int(math.Round((seconds - cs) * sp.openRPS))
	return max(closed, 1), max(open, 1)
}

// generate builds the workload's inputs from the seed.
func generate(sp *spec, seed uint64, seconds float64) (*workload, error) {
	start := time.Now()
	w := &workload{spec: sp, seed: seed}
	h := fnv.New64a()
	h.Write([]byte(sp.name))
	r := rng.New(seed ^ h.Sum64())
	nClosed, nOpen := requestCounts(sp, seconds)
	w.chunk = max(nClosed/closedSlots, 1)
	w.window = max(nOpen/openSlots, 1)
	nClosed = (closedSlots + (closedSlots+3)/4) * w.chunk
	nOpen = (openSlots + (openSlots+3)/4) * w.window
	var err error
	switch sp.name {
	case "solve-miss":
		w.genSolveMiss(r, nClosed, nOpen)
	case "solve-hit":
		err = w.genSolveHit(r, nClosed, nOpen)
	case "replan-sim":
		err = w.genReplanSim(r, nClosed, nOpen)
	case "fig3a":
	default:
		err = fmt.Errorf("unknown workload %q", sp.name)
	}
	w.genTime = time.Since(start)
	return w, err
}

// granularities are the paper's sweep points (Fig. 3/4 x-axis).
var granularities = []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}

// genProblem draws the i-th paper-sized problem: randgraph.Stream on a
// 20-processor heterogeneous platform, period 10(ε+1). The task count
// v∈[50,150], the granularity, ε∈{1,3} and the algorithm (LTF, R-LTF)
// cycle with i, so every seed sees the same balanced mix and only the
// graph structure, weights and platform are random. ε alternates fastest:
// consecutive requests never bunch the heavier ε=3 problems together.
func genProblem(r *rng.Source, i int) (service.SolveRequest, *dag.Graph, *platform.Platform) {
	p := platform.RandomHeterogeneous(r, procs, 0.5, 1.0, 0.5, 1.0, 100)
	cfg := randgraph.DefaultStreamConfig()
	v := cfg.MinTasks + (i*37)%(cfg.MaxTasks-cfg.MinTasks+1)
	cfg.MinTasks, cfg.MaxTasks = v, v
	cfg.Granularity = granularities[(i/4)%len(granularities)]
	g := randgraph.Stream(r, cfg, p)
	eps := []int{1, 3}[i%2]
	algo := []string{"ltf", "rltf"}[(i/2)%2]
	req := service.SolveRequest{
		SchemaVersion: service.Version,
		Graph:         service.GraphDTO(g),
		Platform:      service.PlatformDTO(p),
		Options:       service.Options{Algorithm: algo, Eps: eps, Period: cfg.PeriodBase * float64(eps+1)},
	}
	return req, g, p
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// addProblem registers a problem and returns its index.
func (w *workload) addProblem(body []byte) int {
	w.problems = append(w.problems, body)
	return len(w.problems) - 1
}

// addTemplate registers a template and returns its index.
func (w *workload) addTemplate(t template) int {
	for _, s := range t.segs {
		t.size += len(s)
	}
	w.templates = append(w.templates, t)
	return len(w.templates) - 1
}

// audit reports whether the next returned schedule of ε eps gets the
// exhaustive failure audit: every ε=1 schedule and every auditEvery-th
// ε=3 one.
func (w *workload) audit(eps int) bool {
	if eps <= 1 {
		return true
	}
	w.deep++
	return w.deep%auditEvery == 1
}

// genSolveMiss: every request is a distinct problem; the closed-loop
// campaign and the open loop never share one.
func (w *workload) genSolveMiss(r *rng.Source, nClosed, nOpen int) {
	seen := make(map[[32]byte]bool)
	for i := 0; len(w.templates) < nClosed+nOpen; i++ {
		req, _, _ := genProblem(r, i)
		body := mustJSON(req)
		sum := sha256.Sum256(body)
		if seen[sum] {
			continue
		}
		seen[sum] = true
		pi := w.addProblem(body)
		ti := w.addTemplate(template{kind: kindSolve, segs: [][]byte{body}, audit: w.audit(req.Options.Eps), problem: pi})
		if ti < nClosed {
			w.closed = append(w.closed, ti)
		} else {
			w.open = append(w.open, ti)
		}
	}
}

// genSolveHit: a hot set solved during set-up, then repeats of it. The
// hot set holds the first spec.hot feasible problems of the problem cycle,
// so its size and its mix of replies do not depend on how many problems a
// seed makes infeasible.
func (w *workload) genSolveHit(r *rng.Source, nClosed, nOpen int) error {
	var hits []int
	for i := 0; len(hits) < w.spec.hot; i++ {
		if i >= 4*w.spec.hot {
			return fmt.Errorf("solve-hit: fewer than %d feasible problems", w.spec.hot)
		}
		req, g, p := genProblem(r, i)
		sv, err := req.Options.Solver()
		if err != nil {
			return err
		}
		if _, err := sv.Solve(context.Background(), g, p); err != nil {
			continue // infeasible: not hot
		}
		body := mustJSON(req)
		pi := w.addProblem(body)
		w.warmup = append(w.warmup, w.addTemplate(template{kind: kindSolve, segs: [][]byte{body}, audit: w.audit(req.Options.Eps), problem: pi}))
		hits = append(hits, w.addTemplate(template{kind: kindSolve, segs: [][]byte{body}, cached: true, problem: pi}))
	}
	// Each pass over the hot set is a fresh shuffle, so every hot problem
	// is requested equally often.
	var seq []int
	for len(seq) < nClosed+nOpen {
		for _, k := range r.Perm(len(hits)) {
			seq = append(seq, hits[k])
		}
	}
	w.closed, w.open = seq[:nClosed], seq[nClosed:nClosed+nOpen]
	return nil
}

// committed is one replan-sim problem with its committed schedule.
type committed struct {
	problem   int
	eps       int
	speeds    []float64
	replanPre []byte // ReplanRequest body up to the delta value
	simPre    []byte // SimulateRequest body without its closing brace
	lost      []int  // processors not yet used by a lost-processor delta
}

// genReplanSim: committed schedules (solved in-process here, solved by the
// daemon during set-up), then two distinct replans for every simulate
// sweep over them. The committed problems are the ε=1 problems among the
// first 2·spec.committed of the problem cycle, less the infeasible ones:
// ε=3 schedules would double every replan body and reply, and the open
// loop could no longer run at half the daemon's capacity.
func (w *workload) genReplanSim(r *rng.Source, nClosed, nOpen int) error {
	var cs []*committed
	for i := 0; i < 2*w.spec.committed; i += 2 {
		req, g, p := genProblem(r, i)
		sv, err := req.Options.Solver()
		if err != nil {
			return err
		}
		sched, err := sv.Solve(context.Background(), g, p)
		if err != nil {
			continue // infeasible: nothing to commit
		}
		body := mustJSON(req)
		eps := req.Options.Eps
		pi := w.addProblem(body)
		w.warmup = append(w.warmup, w.addTemplate(template{kind: kindSolve, segs: [][]byte{body}, audit: w.audit(eps), problem: pi}))
		c := &committed{problem: pi, eps: eps, speeds: req.Platform.Speeds, lost: r.Perm(procs)}
		c.replanPre, err = replanPrefix(req, mustJSON(sched))
		if err != nil {
			return err
		}
		sim := mustJSON(service.SimulateRequest{SchemaVersion: service.Version, Graph: req.Graph, Platform: req.Platform, Options: req.Options})
		c.simPre = sim[:len(sim)-1]
		cs = append(cs, c)
	}
	if len(cs) == 0 {
		return fmt.Errorf("replan-sim: no feasible problem to commit")
	}
	// Replans walk the committed problems in order and simulate sweeps
	// walk them half a cycle apart, so adjacent requests hit different
	// problems and every committed problem is re-read from the cache once
	// per cycle, well within the LRU bound.
	seen := make(map[string]bool)
	replans, sims := 0, 0
	for j := 0; j < nClosed+nOpen; j++ {
		var ti int
		if j%3 != 2 {
			c := cs[replans%len(cs)]
			delta := nextDelta(r, c, seen)
			ti = w.addTemplate(template{kind: kindReplan, segs: [][]byte{c.replanPre, append(delta, '}')}, audit: w.audit(c.eps), problem: c.problem})
			replans++
		} else {
			c := cs[(sims+len(cs)/2)%len(cs)]
			ti = w.addTemplate(template{kind: kindSimulate, segs: [][]byte{c.simPre, simScenarios(r, c)}, cached: true, problem: c.problem})
			sims++
		}
		if j < nClosed {
			w.closed = append(w.closed, ti)
		} else {
			w.open = append(w.open, ti)
		}
	}
	return nil
}

// replanPrefix renders a ReplanRequest for the committed schedule and cuts
// it just before the delta value, so each replan body is the shared prefix
// plus its own delta.
func replanPrefix(req service.SolveRequest, sched []byte) ([]byte, error) {
	full := mustJSON(service.ReplanRequest{
		SchemaVersion: service.Version,
		Graph:         req.Graph,
		Platform:      req.Platform,
		Options:       req.Options,
		Schedule:      sched,
	})
	const marker = `"delta":{}}`
	if !bytes.HasSuffix(full, []byte(marker)) {
		return nil, fmt.Errorf("unexpected ReplanRequest encoding")
	}
	return full[:len(full)-len(marker)+len(`"delta":`)], nil
}

// nextDelta draws a platform delta never used before on this workload: a
// lost processor (a third of the time, while unused processors remain) or
// a speed degradation of one processor to 50–90% of its speed.
func nextDelta(r *rng.Source, c *committed, seen map[string]bool) []byte {
	for {
		var d service.PlatformDelta
		if len(c.lost) > 0 && r.IntN(3) == 0 {
			d.Lost = []int{c.lost[0]}
			c.lost = c.lost[1:]
		} else {
			u := r.IntN(procs)
			d.Speed = []service.ProcSpeed{{Proc: u, Speed: c.speeds[u] * r.Uniform(0.5, 0.9)}}
		}
		b := mustJSON(d)
		key := fmt.Sprintf("%d:%s", c.problem, b)
		if !seen[key] {
			seen[key] = true
			return b
		}
	}
}

// simScenarios renders the scenario list of one simulate request: the
// same crash set (one processor at ε=1, two at ε=3) in dataflow and in
// stage-synchronized mode, 20 items each.
func simScenarios(r *rng.Source, c *committed) []byte {
	crashes := 1
	if c.eps > 1 {
		crashes = 2
	}
	crash := r.Sample(procs, crashes)
	sc := []service.Scenario{
		{Name: "dataflow", Items: 20, Warmup: 5, CrashProcs: crash},
		{Name: "sync", Items: 20, Warmup: 5, Synchronous: true, CrashProcs: crash},
	}
	return append(append([]byte(`,"scenarios":`), mustJSON(sc)...), '}')
}
