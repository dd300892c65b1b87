package service

// The HTTP adapter: routing, wire decoding and response rendering over the
// in-process Handle (handle.go), which owns the whole pipeline — hashing,
// cache, coalescing, admission, metrics. Nothing here computes; every
// handler decodes its DTOs, pre-validates what must become a 400, delegates
// to the Handle, and renders the outcome.
//
// Backpressure policy. Admission counts work units — individual solves
// that must actually compute (a batch's problems are each their own
// unit, so one batch cannot exceed the Workers bound by fanning out),
// replans, and simulate sweeps. At most Workers units execute concurrently
// and at most QueueLimit more may wait; a unit beyond that bound is
// rejected immediately with 429 and a Retry-After hint — the client, not
// the server, owns the retry budget. Cache hits and coalesced followers
// bypass admission entirely: they consume no solver capacity, so
// rejecting them would only waste work already done. Per-request
// deadlines (TimeoutMs, clamped to MaxTimeout, default
// Config.DefaultTimeout) bound the requester's wait including queueing;
// an expired deadline surfaces as 504.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"streamsched/internal/core"
	"streamsched/internal/dag"
	"streamsched/internal/infeas"
	"streamsched/internal/obs"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
	"streamsched/internal/sim"
)

// Config parameterizes a Handle (and therefore a Server). The zero value
// is usable: every field falls back to the documented default.
type Config struct {
	// Workers bounds the concurrently executing work units (≤0 → GOMAXPROCS).
	Workers int
	// QueueLimit bounds the admitted-but-waiting work units (<0 → 0,
	// 0 → 4×Workers... see withDefaults; use NoQueue for a hard 0).
	QueueLimit int
	// NoQueue disables waiting entirely: beyond Workers executing units,
	// requests are rejected immediately.
	NoQueue bool
	// CacheEntries bounds the LRU result cache (≤0 → 1024).
	CacheEntries int
	// DefaultTimeout is the per-request deadline when the request does not
	// carry TimeoutMs (≤0 → 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-supplied TimeoutMs — without a ceiling a
	// client could pin worker slots indefinitely — and budgets the
	// server-side computation of each flight (≤0 → 5m, raised to
	// DefaultTimeout if configured smaller).
	MaxTimeout time.Duration
	// MaxBodyBytes caps request bodies (≤0 → 16 MiB).
	MaxBodyBytes int64
	// RetryAfter is the hint attached to 429 responses (≤0 → 1s).
	RetryAfter time.Duration
	// SolveDelay artificially delays every underlying solve and replan. It
	// exists for load and smoke testing (deterministic 429/coalescing
	// scenarios); production configs leave it zero.
	SolveDelay time.Duration
	// SnapshotPath enables persistent cache spill + warm start (DESIGN.md
	// §11): the LRU is written here on drain and every SnapshotInterval,
	// and replayed by WarmStart. Empty disables persistence.
	SnapshotPath string
	// SnapshotInterval is the background spill period (0 → 30s when
	// SnapshotPath is set; <0 → periodic spill disabled, drain still spills).
	SnapshotInterval time.Duration
	// Logf receives operational log lines (background snapshot failures);
	// nil discards them.
	Logf func(format string, args ...any)
	// Tracing enables per-request tracing (internal/obs, DESIGN.md §12):
	// every HTTP request gets an X-Trace-Id and a span tree, recent API
	// traces are retained for GET /debug/traces, per-stage latency rings
	// fill, and ?debug=timing adds a Server-Timing breakdown. Disabled,
	// requests pay one atomic load per instrumentation site and nothing
	// else.
	Tracing bool
	// TraceRingSize bounds the /debug/traces ring (≤0 → 128).
	TraceRingSize int
	// RequestLog, if set, receives one record per traced HTTP request
	// after its response is written (the daemon renders it as one
	// structured JSON log line). Requires Tracing; called synchronously,
	// so keep it cheap.
	RequestLog func(RequestLogEntry)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.NoQueue || c.QueueLimit < 0 {
		c.QueueLimit = 0
	} else if c.QueueLimit == 0 {
		c.QueueLimit = 4 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxTimeout < c.DefaultTimeout {
		c.MaxTimeout = c.DefaultTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SnapshotPath != "" && c.SnapshotInterval == 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the HTTP adapter over an in-process Handle. Build with New,
// mount Handler() on an http.Server. The embedded Handle is exported:
// hybrid embedders can serve HTTP and call the in-process API against the
// same cache and admission bounds.
type Server struct {
	*Handle
}

// New builds a Server (and its Handle) from cfg.
func New(cfg Config) *Server {
	return &Server{Handle: NewHandle(cfg)}
}

// Handler returns the service's HTTP routing table, wrapped in the
// last-resort panic recovery middleware: a panic that escapes a handler
// goroutine (as opposed to a detached flight, which computeFlight
// isolates) becomes a 500 with the stable "internal-panic" token instead
// of net/http's connection reset.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/replan", s.handleReplan)
	mux.HandleFunc("/v1/simulate", s.handleSimulate)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/traces", s.handleDebugTraces)
	// Tracing wraps OUTSIDE recovery so a panicking handler still gets its
	// trace finished (with the recovered 500 status) and logged.
	return s.traceMiddleware(s.recoverMiddleware(mux))
}

// recoverMiddleware is the handler-goroutine panic boundary. The 500 is
// best-effort: if the handler already wrote a header the rendered body is
// garbage appended to a half response, but the process survives — which is
// the point.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.m.panics.Add(1)
				s.writeJSON(w, http.StatusInternalServerError, SolveResponse{
					SchemaVersion: Version,
					Error:         fmt.Sprintf("%v: %v", ErrInternalPanic, rec),
				})
			}
		}()
		next.ServeHTTP(w, r)
	})
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

// renderOutcome serializes the schedule once, at solve time; cache hits
// reuse the rendered bytes instead of re-marshalling the schedule struct.
func renderOutcome(sched *schedule.Schedule) (outcome, error) {
	raw, err := json.Marshal(sched)
	if err != nil {
		return outcome{}, fmt.Errorf("service: encoding schedule: %w", err)
	}
	return outcome{sched: sched, schedJSON: raw, summary: summarize(sched)}, nil
}

// requestContext applies the per-request deadline, clamped to MaxTimeout.
// The clamp compares in milliseconds before converting — multiplying an
// absurd TimeoutMs into a time.Duration first could wrap to an arbitrary
// small value.
func (s *Server) requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		if int64(timeoutMs) > int64(s.cfg.MaxTimeout/time.Millisecond) {
			d = s.cfg.MaxTimeout
		} else {
			d = time.Duration(timeoutMs) * time.Millisecond
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// ---- HTTP plumbing ----------------------------------------------------

// writeJSON renders the response compactly: responses are machine-read,
// and indenting would re-format the pre-rendered schedule RawMessage on
// every cache hit.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body) // write errors mean the client is gone
	s.m.countResponse(status)
}

// errorStatus maps a pipeline error to its HTTP status.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrRepairBudget):
		// The caller disabled the cold fallback and the repair budget was
		// exceeded: no result under the requested policy — a conflict with
		// the request's constraints, not a server fault.
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log counters only.
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// statusClientClosedRequest is nginx's conventional code for "client
// cancelled"; no standard constant exists.
const statusClientClosedRequest = 499

// writeError renders a pipeline error in a SolveResponse envelope,
// attaching Retry-After to 429s.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.writeJSON(w, s.errorHeaders(w, err), SolveResponse{SchemaVersion: Version, Error: err.Error()})
}

// writeBatchError is writeError in the BatchResponse envelope, so batch
// clients decode every /v1/batch body into one documented type.
func (s *Server) writeBatchError(w http.ResponseWriter, err error) {
	s.writeJSON(w, s.errorHeaders(w, err), BatchResponse{SchemaVersion: Version, Error: err.Error()})
}

// writeReplanError is writeError in the ReplanResponse envelope.
func (s *Server) writeReplanError(w http.ResponseWriter, err error) {
	s.writeJSON(w, s.errorHeaders(w, err), ReplanResponse{SchemaVersion: Version, Error: err.Error()})
}

// errorHeaders maps the error to its status and sets error-specific
// headers on the way.
func (s *Server) errorHeaders(w http.ResponseWriter, err error) int {
	status := errorStatus(err)
	// 429 (queue full) and 503 (draining) both mean "come back later";
	// Retry-After carries the hint either way.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(s.cfg.RetryAfter)))
	}
	return status
}

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// decodeRequest parses the body into dst, enforcing method and size; the
// caller checks the decoded schema version with checkSchemaVersion. It
// reports (status, error) on failure, (0, nil) on success.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, dst any) (int, error) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return http.StatusMethodNotAllowed, fmt.Errorf("service: %s requires POST", r.URL.Path)
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("service: body exceeds %d bytes", tooBig.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("service: invalid JSON: %w", err)
	}
	return 0, nil
}

// buildProblem decodes one (graph, platform, options) triple.
func buildProblem(g Graph, p Platform, o Options) (*dag.Graph, *platform.Platform, *core.Solver, error) {
	dg, err := g.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	pp, err := p.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	sv, err := o.Solver()
	if err != nil {
		return nil, nil, nil, err
	}
	return dg, pp, sv, nil
}

// ---- Handlers ---------------------------------------------------------

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.m.reqSolve.Add(1)
	start := time.Now()
	defer func() { s.m.lat.observe(float64(time.Since(start)) / float64(time.Millisecond)) }()

	sp := obs.FromContext(r.Context())
	ds := sp.Child("decode")
	var req SolveRequest
	if status, err := s.decodeRequest(w, r, &req); status != 0 {
		ds.End()
		s.writeJSON(w, status, SolveResponse{SchemaVersion: Version, Error: err.Error()})
		return
	}
	if err := checkSchemaVersion(req.SchemaVersion); err != nil {
		ds.End()
		s.writeJSON(w, http.StatusBadRequest, SolveResponse{SchemaVersion: Version, Error: err.Error()})
		return
	}
	g, p, sv, err := buildProblem(req.Graph, req.Platform, req.Options)
	ds.End()
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, SolveResponse{SchemaVersion: Version, Error: err.Error()})
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	out, err := s.Handle.Solve(ctx, Spec{Graph: g, Platform: p, Solver: sv})
	if err != nil {
		setTraceOutcome(sp, out.Hash, "error")
		s.writeError(w, err)
		return
	}
	setTraceOutcome(sp, out.Hash, outcomeLabel(out))
	rs := sp.Child("render")
	s.writeJSON(w, solveStatus(out), solveResponse(out))
	rs.End()
}

// setTraceOutcome stamps the root span with the request's cache key prefix
// and outcome label — what the request log and /debug/traces lead with.
func setTraceOutcome(sp obs.SpanRef, hash, outcome string) {
	if !sp.Active() {
		return
	}
	if len(hash) > 12 {
		hash = hash[:12]
	}
	if hash != "" {
		sp.SetArg("hash", hash)
	}
	sp.SetArg("outcome", outcome)
}

// outcomeLabel classifies a successful Outcome for traces and logs.
func outcomeLabel(out Outcome) string {
	switch {
	case out.Infeasible != nil:
		return "infeasible"
	case out.Cached:
		return "cached"
	case out.Coalesced:
		return "coalesced"
	default:
		return "solved"
	}
}

// solveResponse renders one Outcome in the SolveResponse envelope.
func solveResponse(out Outcome) SolveResponse {
	resp := SolveResponse{
		SchemaVersion: Version,
		Hash:          out.Hash,
		Cached:        out.Cached,
		Coalesced:     out.Coalesced,
	}
	if out.Infeasible != nil {
		resp.Infeasible = out.Infeasible
		return resp
	}
	resp.Schedule = out.ScheduleJSON
	resp.Summary = out.Summary
	return resp
}

// solveStatus maps an Outcome to its HTTP status.
func solveStatus(out Outcome) int {
	if out.Infeasible != nil {
		return http.StatusConflict
	}
	return http.StatusOK
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.m.reqBatch.Add(1)
	start := time.Now()
	defer func() { s.m.lat.observe(float64(time.Since(start)) / float64(time.Millisecond)) }()

	sp := obs.FromContext(r.Context())
	ds := sp.Child("decode")
	var req BatchRequest
	if status, err := s.decodeRequest(w, r, &req); status != 0 {
		ds.End()
		s.writeJSON(w, status, BatchResponse{SchemaVersion: Version, Error: err.Error()})
		return
	}
	if err := checkSchemaVersion(req.SchemaVersion); err != nil {
		ds.End()
		s.writeJSON(w, http.StatusBadRequest, BatchResponse{SchemaVersion: Version, Error: err.Error()})
		return
	}
	if len(req.Problems) == 0 {
		ds.End()
		s.writeJSON(w, http.StatusBadRequest, BatchResponse{SchemaVersion: Version, Error: "service: batch has no problems"})
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	// Decode every problem; undecodable ones get their error slot and the
	// rest go through the in-process batch pipeline.
	decodeErrs := make([]error, len(req.Problems))
	specs := make([]Spec, 0, len(req.Problems))
	specIdx := make([]int, 0, len(req.Problems))
	for i, bp := range req.Problems {
		opts := req.Options
		if bp.Options != nil {
			opts = *bp.Options
		}
		g, p, sv, err := buildProblem(bp.Graph, bp.Platform, opts)
		if err != nil {
			decodeErrs[i] = err
			continue
		}
		specs = append(specs, Spec{Graph: g, Platform: p, Solver: sv})
		specIdx = append(specIdx, i)
	}
	ds.End()
	if sp.Active() {
		sp.SetArg("problems", len(req.Problems))
	}
	batchResults := s.Handle.SolveBatch(ctx, specs)
	results := make([]BatchResult, len(req.Problems))
	for i, err := range decodeErrs {
		if err != nil {
			results[i] = BatchResult{Err: err}
		}
	}
	for k, i := range specIdx {
		results[i] = batchResults[k]
	}

	// A batch whose every problem was rejected by admission is a rejected
	// batch: surface the 429 (with Retry-After) rather than a 200 full of
	// queue-full errors. Mixed outcomes keep the 200 envelope with
	// per-problem errors — cached results must not be discarded.
	allRejected := true
	for i := range results {
		if !errors.Is(results[i].Err, ErrQueueFull) {
			allRejected = false
			break
		}
	}
	if allRejected && len(results) > 0 {
		s.writeBatchError(w, ErrQueueFull)
		return
	}

	resp := BatchResponse{SchemaVersion: Version, Results: make([]SolveResponse, len(results))}
	for i := range results {
		if err := results[i].Err; err != nil {
			resp.Results[i] = SolveResponse{SchemaVersion: Version, Hash: results[i].Outcome.Hash, Error: err.Error()}
			continue
		}
		resp.Results[i] = solveResponse(results[i].Outcome)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReplan(w http.ResponseWriter, r *http.Request) {
	s.m.reqReplan.Add(1)
	start := time.Now()
	defer func() { s.m.lat.observe(float64(time.Since(start)) / float64(time.Millisecond)) }()

	sp := obs.FromContext(r.Context())
	ds := sp.Child("decode")
	var req ReplanRequest
	if status, err := s.decodeRequest(w, r, &req); status != 0 {
		ds.End()
		s.writeJSON(w, status, ReplanResponse{SchemaVersion: Version, Error: err.Error()})
		return
	}
	badRequest := func(err error) {
		ds.End()
		s.writeJSON(w, http.StatusBadRequest, ReplanResponse{SchemaVersion: Version, Error: err.Error()})
	}
	if err := checkSchemaVersion(req.SchemaVersion); err != nil {
		badRequest(err)
		return
	}
	g, p, sv, err := buildProblem(req.Graph, req.Platform, req.Options)
	if err != nil {
		badRequest(err)
		return
	}
	if len(req.Schedule) == 0 {
		badRequest(errors.New("service: replan requires the committed schedule"))
		return
	}
	old, err := schedule.LoadJSON(req.Schedule, g, p)
	if err != nil {
		badRequest(fmt.Errorf("service: decoding schedule: %w", err))
		return
	}
	// The committed schedule must agree with the solver options on the
	// replication degree and the period; a mismatch is a client error, not
	// a computation to admit.
	if old.Eps != req.Options.Eps || old.Period != req.Options.Period {
		badRequest(fmt.Errorf("service: options (eps=%d, period=%v) do not match the schedule (eps=%d, period=%v)",
			req.Options.Eps, req.Options.Period, old.Eps, old.Period))
		return
	}
	if req.RepairBudget < 0 {
		badRequest(fmt.Errorf("service: negative repair budget %d", req.RepairBudget))
		return
	}
	delta := req.Delta.Build()
	if _, _, err := delta.Apply(p); err != nil {
		badRequest(err)
		return
	}
	ds.End()
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	out, err := s.Handle.Replan(ctx, ReplanSpec{
		Old:            old,
		Solver:         sv,
		Delta:          delta,
		RepairBudget:   req.RepairBudget,
		NoColdFallback: req.NoColdFallback,
	})
	if err != nil {
		setTraceOutcome(sp, out.Hash, "error")
		s.writeReplanError(w, err)
		return
	}
	setTraceOutcome(sp, out.Hash, outcomeLabel(out))
	resp := ReplanResponse{
		SchemaVersion: Version,
		Hash:          out.Hash,
		Cached:        out.Cached,
		Coalesced:     out.Coalesced,
	}
	if out.Infeasible != nil {
		resp.Infeasible = out.Infeasible
		s.writeJSON(w, http.StatusConflict, resp)
		return
	}
	resp.Schedule = out.ScheduleJSON
	resp.Summary = out.Summary
	resp.Replan = replanStatsDTO(out.Replan)
	rs := sp.Child("render")
	s.writeJSON(w, http.StatusOK, resp)
	rs.End()
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.m.reqSimulate.Add(1)
	start := time.Now()
	defer func() { s.m.lat.observe(float64(time.Since(start)) / float64(time.Millisecond)) }()

	sp := obs.FromContext(r.Context())
	ds := sp.Child("decode")
	var req SimulateRequest
	if status, err := s.decodeRequest(w, r, &req); status != 0 {
		ds.End()
		s.writeJSON(w, status, SimulateResponse{SchemaVersion: Version, Error: err.Error()})
		return
	}
	if err := checkSchemaVersion(req.SchemaVersion); err != nil {
		ds.End()
		s.writeJSON(w, http.StatusBadRequest, SimulateResponse{SchemaVersion: Version, Error: err.Error()})
		return
	}
	g, p, sv, err := buildProblem(req.Graph, req.Platform, req.Options)
	ds.End()
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, SimulateResponse{SchemaVersion: Version, Error: err.Error()})
		return
	}
	scenarios := req.Scenarios
	if len(scenarios) == 0 {
		scenarios = []Scenario{{}}
	}
	for _, sc := range scenarios {
		for _, u := range sc.CrashProcs {
			if u < 0 || u >= p.NumProcs() {
				s.writeJSON(w, http.StatusBadRequest, SimulateResponse{
					SchemaVersion: Version, Error: fmt.Sprintf("service: crash processor %d out of range [0,%d)", u, p.NumProcs()),
				})
				return
			}
		}
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	// Solve through the shared cache/coalescing path (same hash space as
	// /v1/solve), then run the sweep as its own admitted work unit. The
	// two acquisitions are sequential, never nested, so a Workers=1 server
	// cannot deadlock against its own solve.
	out, err := s.Solve(ctx, Spec{Graph: g, Platform: p, Solver: sv})
	if err != nil {
		setTraceOutcome(sp, out.Hash, "error")
		s.writeError(w, err)
		return
	}
	setTraceOutcome(sp, out.Hash, "simulated")
	resp := SimulateResponse{
		SchemaVersion: Version,
		Hash:          out.Hash,
		Cached:        out.Cached,
		Coalesced:     out.Coalesced,
	}
	if out.Infeasible != nil {
		resp.Infeasible = out.Infeasible
		s.writeJSON(w, http.StatusConflict, resp)
		return
	}
	resp.Summary = out.Summary

	sched := out.Schedule
	if sched == nil {
		// The outcome was restored from a snapshot, which keeps only the
		// rendered bytes (persist.go); rebuild the in-memory schedule from
		// them against this request's decoded problem — an identical hash
		// means an identical problem.
		sched, err = schedule.LoadJSON(out.ScheduleJSON, g, p)
		if err != nil {
			s.writeError(w, err)
			return
		}
	}

	release, err := s.admitTraced(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()

	sim1 := sp.Child("simulate")
	if sim1.Active() {
		sim1.SetArg("scenarios", len(scenarios))
	}
	// One engine for the whole sweep: the derived schedule tables and the
	// simulation state buffers are built once and reused per scenario.
	eng, err := sim.NewEngine(sched)
	if err != nil {
		sim1.End()
		s.writeError(w, err)
		return
	}
	resp.Scenarios = make([]ScenarioResult, 0, len(scenarios))
	for _, sc := range scenarios {
		res, err := s.runScenario(ctx, eng, sched, sc)
		if err != nil {
			sim1.End()
			s.writeError(w, err)
			return
		}
		resp.Scenarios = append(resp.Scenarios, res)
	}
	sim1.End()
	s.writeJSON(w, http.StatusOK, resp)
}

// runScenario executes one scenario on the request's engine.
func (s *Server) runScenario(ctx context.Context, eng *sim.Engine, sched *schedule.Schedule, sc Scenario) (ScenarioResult, error) {
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
		for i, u := range sc.CrashProcs {
			procs[i] = platform.ProcID(u)
		}
		cfg.Failures = sim.FailureSpec{Procs: procs, At: sc.CrashAt}
	}
	s.m.simRuns.Add(1)
	res, err := eng.Run(ctx, cfg)
	if err != nil {
		return ScenarioResult{}, err
	}
	return ScenarioResult{
		Name:           sc.Name,
		MeanLatency:    jsonFloat(res.MeanLatency),
		MaxLatency:     jsonFloat(res.MaxLatency),
		AchievedPeriod: jsonFloat(res.AchievedPeriod),
		Delivered:      res.Delivered,
		Items:          res.Items,
	}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.m.reqHealthz.Add(1)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.m.start).Seconds(),
	})
}

// handleReadyz is readiness, distinct from /healthz liveness: it reports
// 503 while the warm-start replay runs and again once a drain begins, so
// a load balancer routes around a booting or terminating replica that is
// nonetheless alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ready"
	switch s.life.Load() {
	case lifeStarting:
		status, state = http.StatusServiceUnavailable, "starting"
	case lifeDraining:
		status, state = http.StatusServiceUnavailable, "draining"
	}
	s.writeJSON(w, status, map[string]any{"status": state})
}

// handleMetrics serves the metrics snapshot: the expvar-style JSON
// document by default, Prometheus text exposition when the scraper asks
// for it (?format=prometheus, or an Accept header preferring text/plain —
// how Prometheus itself scrapes).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.m.reqMetrics.Add(1)
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write(renderPrometheus(s.snapshot()))
		s.m.countResponse(http.StatusOK)
		return
	}
	s.writeJSON(w, http.StatusOK, s.snapshot())
}
