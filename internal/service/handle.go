package service

// The in-process service API. Handle owns the full serving pipeline —
// canonical hashing, the LRU result cache, single-flight coalescing,
// admission (bounded queue + worker slots), the simulate sweep and the
// metrics — with no HTTP anywhere in sight: embedders call
// Solve/SolveBatch/Replan directly and get the same caching, coalescing
// and backpressure behaviour as a remote client of streamschedd. Server
// (server.go) is a thin HTTP adapter over a Handle: it decodes wire DTOs,
// delegates here, and renders responses.
//
// Every request is a keyed job: its canonical hash plus the computation a
// led flight runs (solve or replan). One chain resolves every job:
//
//	resolve:       cache (hit: return) → flight Claim
//	  follower:    wait for the flight's outcome (no queue slot consumed)
//	  leader:      start runFlight in a DETACHED goroutine under the
//	               handle's own compute budget (MaxTimeout), then wait on
//	               it like a follower
//	runFlight:     computeFlight → Fulfill
//	computeFlight: panic boundary → cache recheck → admission (bounded
//	               queue → worker slot) → compute → cache.Put
//	compute:       fault sites → the job's computation → render
//
// Detaching the computation from the leader's caller context is what
// makes coalescing sound: a leader that gives up, or whose deadline is
// shorter than a follower's, must not poison the followers with its
// context error. Every caller honors its own deadline while waiting; the
// work itself always runs to completion (within MaxTimeout) and lands in
// the cache. A replan job is keyed by ReplanHash — the (problem, schedule,
// delta, policy) tuple — in the same cache and flight map as solve jobs
// (the key spaces are disjoint by construction: distinct leading magics).
//
// Admission counts work units — a computing solve (each batch problem is
// its own), a replan, a simulate sweep (one unit, taken after its solve's,
// never nested in it) — and bounds them to Workers executing plus
// QueueLimit waiting; beyond that, ErrQueueFull (HTTP 429). Cache hits and
// coalesced followers bypass it: they consume no solver capacity.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamsched/internal/core"
	"streamsched/internal/dag"
	"streamsched/internal/faultinject"
	"streamsched/internal/infeas"
	"streamsched/internal/obs"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
	"streamsched/internal/sim"
)

// ErrQueueFull is the admission rejection: the handle already has
// Workers+QueueLimit work units pending. The HTTP adapter maps it to 429.
var ErrQueueFull = errors.New("service: work queue full")

// Handle is the in-process scheduling service. Build with NewHandle (or
// New for the HTTP-serving Server). Methods are safe for concurrent use.
type Handle struct {
	cfg     Config
	slots   chan struct{}
	cache   *lruCache
	flights *flightGroup
	m       *metrics
	// traces is the /debug/traces ring; nil unless Config.Tracing. Its
	// non-nilness is the handle-level tracing switch — the HTTP adapter
	// only opens traces when it is set, and NewHandle arms the obs layer
	// process-wide exactly once per traced handle.
	traces *obs.Ring

	// Lifecycle (lifecycle.go). life holds lifeStarting/lifeReady/
	// lifeDraining; drainMu synchronizes flight registration against the
	// drain transition, and flightWG is the set of registered flights a
	// drain waits out.
	life     atomic.Int32
	drainMu  sync.RWMutex
	flightWG sync.WaitGroup

	// Snapshot machinery (persist.go, lifecycle.go). snapMu serializes
	// spills; snapStop/snapDone bracket the background ticker goroutine.
	snapMu    sync.Mutex
	loopOnce  sync.Once
	snapStop  chan struct{}
	snapDone  chan struct{}
	drainOnce sync.Once
	drainRep  DrainReport

	// solve and replan perform one underlying computation; tests swap them
	// to gate or count solver entry deterministically.
	solve  func(ctx context.Context, sv *core.Solver, g *dag.Graph, p *platform.Platform) (*schedule.Schedule, error)
	replan func(ctx context.Context, sv *core.Solver, old *schedule.Schedule, d core.Delta, opts ...core.ReplanOption) (*core.ReplanResult, error)
}

// NewHandle builds an in-process service handle from cfg (zero value:
// sensible defaults).
func NewHandle(cfg Config) *Handle {
	cfg = cfg.withDefaults()
	h := &Handle{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.Workers),
		cache:   newLRUCache(cfg.CacheEntries),
		flights: newFlightGroup(),
		m:       newMetrics(),
	}
	if cfg.Tracing {
		h.traces = obs.NewRing(cfg.TraceRingSize)
		// Arm the process-wide tracing gate for the handle's lifetime.
		// Handles have no Close; the arming is monotone, which is safe —
		// untraced handles never open a trace, so their requests still pay
		// only the FromContext atomic load.
		obs.Enable()
	}
	if cfg.SnapshotPath == "" {
		// No warm start to wait for: born ready. With a snapshot path the
		// handle starts in lifeStarting and WarmStart flips it.
		h.life.Store(lifeReady)
	}
	h.solve = func(ctx context.Context, sv *core.Solver, g *dag.Graph, p *platform.Platform) (*schedule.Schedule, error) {
		if err := h.debugDelay(ctx); err != nil {
			return nil, err
		}
		return sv.Solve(ctx, g, p)
	}
	h.replan = func(ctx context.Context, sv *core.Solver, old *schedule.Schedule, d core.Delta, opts ...core.ReplanOption) (*core.ReplanResult, error) {
		if err := h.debugDelay(ctx); err != nil {
			return nil, err
		}
		return sv.Replan(ctx, old, d, opts...)
	}
	return h
}

// debugDelay sleeps the configured SolveDelay (load/smoke testing only).
func (h *Handle) debugDelay(ctx context.Context) error {
	if h.cfg.SolveDelay <= 0 {
		return nil
	}
	select {
	case <-time.After(h.cfg.SolveDelay):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Metrics returns a point-in-time snapshot of the service counters.
func (h *Handle) Metrics() MetricsSnapshot { return h.snapshot() }

// ---- public request/result types ---------------------------------------

// Spec is one in-process solve request: a validated in-memory problem.
// (Wire-facing callers decode their DTOs first; see Graph.Build,
// Platform.Build and Options.Solver.)
type Spec struct {
	Graph    *dag.Graph
	Platform *platform.Platform
	Solver   *core.Solver
}

func (sp Spec) validate() error {
	if sp.Graph == nil || sp.Platform == nil || sp.Solver == nil {
		return errors.New("service: spec requires graph, platform and solver")
	}
	return nil
}

// ReplanSpec is one in-process replan request: a committed schedule (which
// carries its graph and pre-delta platform), the solver to repair or
// re-solve with, the platform delta, and the repair policy.
type ReplanSpec struct {
	Old    *schedule.Schedule
	Solver *core.Solver
	Delta  core.Delta
	// RepairBudget bounds search re-placements (0 = unlimited).
	RepairBudget int
	// NoColdFallback surfaces repair failure instead of re-solving cold.
	NoColdFallback bool
}

func (sp ReplanSpec) validate() error {
	if sp.Old == nil || sp.Solver == nil {
		return errors.New("service: replan spec requires the committed schedule and a solver")
	}
	return nil
}

// Outcome is the in-process result of Solve or Replan. Exactly one of
// Schedule (with ScheduleJSON and Summary) and Infeasible is set.
type Outcome struct {
	// Hash is the canonical cache key of the request.
	Hash string
	// Cached reports an LRU hit; Coalesced that the call piggybacked on an
	// identical in-flight computation.
	Cached    bool
	Coalesced bool
	// Schedule is the result; ScheduleJSON its interchange rendering,
	// marshalled once at solve time and shared by every cache hit.
	Schedule     *schedule.Schedule
	ScheduleJSON []byte
	Summary      *ScheduleSummary
	// Infeasible is the typed "no schedule exists" outcome.
	Infeasible *Infeasible
	// Replan carries the repair statistics of a Replan outcome.
	Replan *core.RepairStats
}

// BatchResult pairs one batch element's outcome with its error; exactly
// one of the two is meaningful.
type BatchResult struct {
	Outcome Outcome
	Err     error
}

// publish converts an internal outcome to the public form.
func publish(out outcome, hash string, state hitState) Outcome {
	return Outcome{
		Hash:         hash,
		Cached:       state == hitCache,
		Coalesced:    state == hitCoalesced,
		Schedule:     out.sched,
		ScheduleJSON: out.schedJSON,
		Summary:      out.summary,
		Infeasible:   out.infeas,
		Replan:       out.replan,
	}
}

// ---- public pipeline entry points ---------------------------------------

// Solve resolves one problem through cache → coalescing → admission →
// solver, waiting under ctx (which should carry the caller's deadline).
// Infeasibility is an Outcome, not an error; ErrQueueFull and context
// errors are errors.
func (h *Handle) Solve(ctx context.Context, sp Spec) (Outcome, error) {
	if h.Draining() {
		return Outcome{}, ErrDraining
	}
	if err := sp.validate(); err != nil {
		return Outcome{}, err
	}
	hs := obs.FromContext(ctx).Child("hash")
	hash := ProblemHash(sp.Graph, sp.Platform, sp.Solver)
	hs.End()
	return h.resolve(ctx, h.solveJob(hash, sp))
}

// Replan resolves one replan request through the same cache → coalescing →
// admission pipeline as Solve, keyed by the canonical replan hash.
func (h *Handle) Replan(ctx context.Context, sp ReplanSpec) (Outcome, error) {
	if h.Draining() {
		return Outcome{}, ErrDraining
	}
	if err := sp.validate(); err != nil {
		return Outcome{}, err
	}
	hash, err := ReplanHash(sp)
	if err != nil {
		return Outcome{}, err
	}
	return h.resolve(ctx, h.replanJob(hash, sp))
}

// SolveBatch resolves many problems, returning one result per spec in
// order. Cache hits and coalesced joins resolve without consuming solver
// capacity; the led solves fan out through core.Batch on the worker pool,
// each admitting itself as its own work unit, so one batch can never
// exceed the handle's Workers bound. A nil result error accompanies a
// complete Outcome (possibly infeasible).
func (h *Handle) SolveBatch(ctx context.Context, specs []Spec) []BatchResult {
	if h.Draining() {
		results := make([]BatchResult, len(specs))
		for i := range results {
			results[i] = BatchResult{Err: ErrDraining}
		}
		return results
	}
	items := make([]batchItem, len(specs))
	var leaders []int
	for i, sp := range specs {
		it := &items[i]
		if it.err = sp.validate(); it.err != nil {
			continue
		}
		it.job = h.solveJob(ProblemHash(sp.Graph, sp.Platform, sp.Solver), sp)
		if out, ok := h.cache.Get(it.job.hash); ok {
			h.m.cacheHits.Add(1)
			it.out, it.state = out, hitCache
			continue
		}
		f, leader, err := h.claimFlight(it.job.hash)
		if err != nil {
			it.err = err
			continue
		}
		if !leader {
			h.m.coalesced.Add(1)
			it.flight, it.state = f, hitCoalesced
			continue
		}
		h.m.cacheMisses.Add(1)
		it.lead = f
		leaders = append(leaders, i)
	}

	// Start the led solves detached from this caller's context, like any
	// flight (file header), then collect every non-cached element's flight
	// under the caller's deadline.
	if len(leaders) > 0 {
		go h.runBatchFlights(leaders, items, obs.FromContext(ctx))
	}
	results := make([]BatchResult, len(items))
	for i := range items {
		it := &items[i]
		if f := it.lead; f != nil {
			it.out, it.err = f.Wait(ctx)
		} else if it.flight != nil {
			it.out, it.err = it.flight.Wait(ctx)
			if errors.Is(it.err, ErrInternalPanic) {
				// The foreign flight this item coalesced onto panicked;
				// retry through the full pipeline like any follower.
				results[i].Outcome, results[i].Err = h.resolve(ctx, it.job)
				continue
			}
		}
		if it.err != nil {
			results[i] = BatchResult{Outcome: Outcome{Hash: it.job.hash}, Err: it.err}
			continue
		}
		results[i] = BatchResult{Outcome: publish(it.out, it.job.hash, it.state)}
	}
	return results
}

// ---- internal pipeline ---------------------------------------------------

// admit acquires one work unit: a place within the Workers+QueueLimit
// bound, then a worker slot. It returns the release function, ErrQueueFull
// when the bound is exceeded, or ctx.Err() if the deadline expires while
// queued.
func (h *Handle) admit(ctx context.Context) (release func(), err error) {
	if faultinject.Fire(SiteAdmitReject) {
		h.m.rejected.Add(1)
		return nil, ErrQueueFull
	}
	limit := int64(h.cfg.Workers + h.cfg.QueueLimit)
	if h.m.pending.Add(1) > limit {
		h.m.pending.Add(-1)
		h.m.rejected.Add(1)
		return nil, ErrQueueFull
	}
	select {
	case h.slots <- struct{}{}:
		h.m.inFlight.Add(1)
		return func() {
			<-h.slots
			h.m.inFlight.Add(-1)
			h.m.pending.Add(-1)
		}, nil
	case <-ctx.Done():
		h.m.pending.Add(-1)
		return nil, ctx.Err()
	}
}

// hitState records how an outcome was obtained.
type hitState int

const (
	hitSolved hitState = iota
	hitCache
	hitCoalesced
)

// job is one keyed computation: the canonical cache key and the work a led
// flight runs for it, returning the schedule and, for a replan, the repair
// statistics.
type job struct {
	hash string
	run  func(ctx context.Context) (*schedule.Schedule, *core.RepairStats, error)
}

// solveJob is the job of one solve request keyed by its problem hash.
func (h *Handle) solveJob(hash string, sp Spec) job {
	return job{hash: hash, run: func(ctx context.Context) (*schedule.Schedule, *core.RepairStats, error) {
		sched, err := h.solve(ctx, sp.Solver, sp.Graph, sp.Platform)
		return sched, nil, err
	}}
}

// replanJob is the job of one replan request keyed by its replan hash. Its
// solve span is tagged kind=replan.
func (h *Handle) replanJob(hash string, sp ReplanSpec) job {
	return job{hash: hash, run: func(ctx context.Context) (*schedule.Schedule, *core.RepairStats, error) {
		if ss := obs.FromContext(ctx); ss.Active() {
			ss.SetArg("kind", "replan")
		}
		res, err := h.replan(ctx, sp.Solver, sp.Old, sp.Delta,
			core.WithRepairBudget(sp.RepairBudget), core.WithColdFallback(!sp.NoColdFallback))
		if err != nil {
			return nil, nil, err
		}
		return res.Schedule, &res.Stats, nil
	}}
}

// resolve runs j through cache → coalescing → admission → computation.
// Every returned outcome has exactly one of Schedule/Infeasible set; err
// covers everything else (queue full, deadline, draining, solver fault).
// The caller waits under its own ctx; the computation runs detached (see
// the file header). A follower whose leader's flight panicked re-enters
// the pipeline — the panic is the leader's failure, not the problem's —
// bounded by maxPanicRetries so a deterministically panicking computation
// still surfaces.
func (h *Handle) resolve(ctx context.Context, j job) (Outcome, error) {
	sp := obs.FromContext(ctx)
	for attempt := 0; ; attempt++ {
		cs := sp.Child("cache")
		out, ok := h.cache.Get(j.hash)
		cs.End()
		if ok {
			h.m.cacheHits.Add(1)
			return publish(out, j.hash, hitCache), nil
		}
		f, leader, err := h.claimFlight(j.hash)
		if err != nil {
			return Outcome{Hash: j.hash}, err
		}
		state, cw := hitSolved, obs.SpanRef{}
		if leader {
			h.m.cacheMisses.Add(1)
			go h.runFlight(j, f, sp)
		} else {
			h.m.coalesced.Add(1)
			state, cw = hitCoalesced, sp.Child("coalesce")
		}
		out, err = f.Wait(ctx)
		cw.End()
		if err != nil {
			if !leader && errors.Is(err, ErrInternalPanic) && attempt < maxPanicRetries {
				continue
			}
			return Outcome{Hash: j.hash}, err
		}
		return publish(out, j.hash, state), nil
	}
}

// runFlight executes one claimed flight — computeFlight, then fulfillment
// — under the handle's own compute budget, independent of any requester's
// context. Queue-full is decided immediately (admit rejects without
// blocking when the bound is exceeded), so a rejected flight resolves at
// once.
func (h *Handle) runFlight(j job, f *flight, tsp obs.SpanRef) {
	// Registered before Fulfill's work so it runs after it: when the drain
	// WaitGroup clears, every flight's outcome is committed to the cache.
	defer h.flightWG.Done()
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.MaxTimeout)
	defer cancel()
	// The flight runs detached from the requester's context, but its spans
	// belong to the leading requester's trace: re-inject the span into the
	// detached context. An abandoned flight keeps writing to the trace
	// after Finish — recorded, never raced (obs.Trace is mutex'd).
	fs := tsp.Child("flight")
	out, err := h.computeFlight(obs.ContextWith(ctx, fs), j)
	fs.End()
	h.flights.Fulfill(j.hash, f, out, err)
}

// computeFlight resolves a led flight behind the panic isolation boundary:
// a panic anywhere below (solver fault or injected) unwinds the admission
// defers, becomes an ErrInternalPanic error for the flight's waiters, and
// never reaches the detached goroutine's top — where it would kill the
// process, not a request. Inside the boundary: one last cache check — a
// previous flight may have fulfilled and vanished between this requester's
// cache miss and its Claim, and recomputing an already-cached key would
// break the "equal hashes compute once" invariant — then an
// admission-bounded computation whose result fills the cache.
func (h *Handle) computeFlight(ctx context.Context, j job) (out outcome, err error) {
	defer h.recoverFault(&err)
	if cached, ok := h.cache.Get(j.hash); ok {
		return cached, nil
	}
	release, err := h.admitTraced(ctx)
	if err != nil {
		return outcome{}, err
	}
	defer release()
	out, err = h.compute(ctx, j)
	if err == nil {
		h.cache.Put(j.hash, out)
	}
	return out, err
}

// admitTraced is admit wrapped in an "admission" span — the queue wait a
// traced request sees.
func (h *Handle) admitTraced(ctx context.Context) (release func(), err error) {
	as := obs.FromContext(ctx).Child("admission")
	release, err = h.admit(ctx)
	as.End()
	return release, err
}

// compute runs the job's computation and folds typed infeasibility into
// the outcome (it is a result, not a failure). It counts as a solver
// invocation: the coalescing and caching invariants ("equal hashes compute
// once") are asserted against solveCalls.
func (h *Handle) compute(ctx context.Context, j job) (outcome, error) {
	if err := h.injectFlightFaults(ctx); err != nil {
		return outcome{}, err
	}
	h.m.solveCalls.Add(1)
	sp := obs.FromContext(ctx)
	ss := sp.Child("solve")
	sched, stats, err := j.run(obs.ContextWith(ctx, ss))
	ss.End()
	if err != nil {
		return foldInfeasible(err)
	}
	// Render once, at solve time: cache hits reuse the bytes instead of
	// re-marshalling the schedule.
	rs := sp.Child("render")
	raw, err := json.Marshal(sched)
	out := outcome{sched: sched, schedJSON: raw, summary: summarize(sched), replan: stats}
	rs.End()
	if err != nil {
		return outcome{}, fmt.Errorf("service: encoding schedule: %w", err)
	}
	return out, nil
}

// foldInfeasible converts an infeasibility error into a cacheable outcome;
// any other error propagates.
func foldInfeasible(err error) (outcome, error) {
	var ie *infeas.Error
	if errors.As(err, &ie) {
		return outcome{infeas: ie}, nil
	}
	if errors.Is(err, infeas.ErrInfeasible) {
		return outcome{infeas: infeas.New(infeas.ReasonUnknown, 0, err.Error())}, nil
	}
	return outcome{}, err
}

// simulate sweeps scenarios (none: one default scenario) over out, a
// feasible outcome of sp, as its own admitted work unit under the
// "simulate" span. One engine serves the whole sweep: the derived schedule
// tables and the simulation buffers are built once and reused per
// scenario.
func (h *Handle) simulate(ctx context.Context, sp Spec, out Outcome, scenarios []Scenario) ([]ScenarioResult, error) {
	sched := out.Schedule
	if sched == nil {
		// The outcome was restored from a snapshot, which keeps only the
		// rendered bytes (persist.go); rebuild the in-memory schedule from
		// them against sp — an identical hash means an identical problem.
		var err error
		if sched, err = schedule.LoadJSON(out.ScheduleJSON, sp.Graph, sp.Platform); err != nil {
			return nil, err
		}
	}
	if len(scenarios) == 0 {
		scenarios = []Scenario{{}}
	}
	release, err := h.admitTraced(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	ss := obs.FromContext(ctx).Child("simulate")
	defer ss.End()
	if ss.Active() {
		ss.SetArg("scenarios", len(scenarios))
	}
	eng, err := sim.NewEngine(sched)
	if err != nil {
		return nil, err
	}
	results := make([]ScenarioResult, len(scenarios))
	for i, sc := range scenarios {
		cfg := sim.DefaultConfig(sched)
		if sc.Items > 0 {
			cfg.Items = sc.Items
		}
		if sc.Warmup > 0 {
			cfg.Warmup = sc.Warmup
		}
		cfg.Synchronous = sc.Synchronous
		if len(sc.CrashProcs) > 0 {
			procs := make([]platform.ProcID, len(sc.CrashProcs))
			for k, u := range sc.CrashProcs {
				procs[k] = platform.ProcID(u)
			}
			cfg.Failures = sim.FailureSpec{Procs: procs, At: sc.CrashAt}
		}
		h.m.simRuns.Add(1)
		res, err := eng.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		results[i] = ScenarioResult{
			Name:           sc.Name,
			MeanLatency:    jsonFloat(res.MeanLatency),
			MaxLatency:     jsonFloat(res.MaxLatency),
			AchievedPeriod: jsonFloat(res.AchievedPeriod),
			Delivered:      res.Delivered,
			Items:          res.Items,
		}
	}
	return results, nil
}

// batchItem tracks one problem of a batch through the pipeline.
type batchItem struct {
	job    job
	out    outcome
	state  hitState
	err    error
	flight *flight // non-nil: wait on a foreign in-flight solve
	lead   *flight // non-nil: this batch owns the flight and must fulfill
}

// runBatchFlights executes a batch's led solves through core.Batch under
// the handle's compute budget. Each problem's flight is fulfilled (and the
// cache filled) inside the pool hook, the moment its own result lands —
// a waiter coalesced onto problem #1 must not stall behind problem #100.
// The hook admits every problem individually: the pool's goroutines queue
// on the shared worker slots, they do not multiply them.
func (h *Handle) runBatchFlights(leaders []int, items []batchItem, tsp obs.SpanRef) {
	// One WaitGroup registration per led flight (claimFlight); all of them
	// resolve — including the leftover loop below — before this returns.
	defer func() {
		for range leaders {
			h.flightWG.Done()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.MaxTimeout)
	defer cancel()
	// The hook runs each item's own job; the requests only size the pool.
	reqs := make([]core.Request, len(leaders))
	fulfilled := make([]bool, len(leaders)) // per-lane writes, no sharing
	batch := core.Batch{Workers: h.cfg.Workers}
	results := batch.SolveFunc(ctx, reqs, func(ctx context.Context, k int, _ core.Request) (*schedule.Schedule, error) {
		it := &items[leaders[k]]
		fs := tsp.Child("flight")
		if fs.Active() {
			fs.SetArg("hash", it.job.hash[:12])
		}
		out, err := h.computeFlight(obs.ContextWith(ctx, fs), it.job)
		fs.End()
		h.flights.Fulfill(it.job.hash, it.lead, out, err)
		fulfilled[k] = true
		return nil, err // the flight already carries the outcome
	})
	// SolveFunc fails requests fast without running the hook once its
	// context expires; their flights must still resolve or waiters would
	// hang until their own deadlines.
	for k, i := range leaders {
		if !fulfilled[k] {
			h.flights.Fulfill(items[i].job.hash, items[i].lead, outcome{}, results[k].Err)
		}
	}
}
