package service

// The HTTP adapter over the in-process Handle (handle.go), which owns the
// whole pipeline — hashing, cache, coalescing, admission, the simulate
// sweep, metrics. Nothing here computes. Every /v1 handler has one shape:
//
//	route:  count the request and time it (one wrapper for the four routes)
//	decode: in the decode span, refuse a non-POST (405 + Allow), an
//	        oversized body (413), malformed JSON, an unsupported schema
//	        version and whatever the endpoint's own check rejects (400
//	        each); then apply the request's deadline
//	Handle: Solve, SolveBatch, Replan, or Solve and the simulate sweep
//	write:  settle stamps the trace outcome and refuses a pipeline error
//	        with its status; a result renders in its endpoint's envelope
//
// Every refusal goes through fail and carries one body whatever the
// endpoint, {"schemaVersion":1,"error":"…"}; 429 (queue full) and 503
// (draining) add Retry-After — the client, not the server, owns the retry
// budget. The deadline is TimeoutMs clamped to MaxTimeout (absent:
// Config.DefaultTimeout); it bounds the requester's wait, queueing
// included, and an expired one surfaces as 504.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"streamsched/internal/core"
	"streamsched/internal/dag"
	"streamsched/internal/obs"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
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
	mux.HandleFunc("/v1/solve", s.route(&s.m.reqSolve, s.handleSolve))
	mux.HandleFunc("/v1/batch", s.route(&s.m.reqBatch, s.handleBatch))
	mux.HandleFunc("/v1/replan", s.route(&s.m.reqReplan, s.handleReplan))
	mux.HandleFunc("/v1/simulate", s.route(&s.m.reqSimulate, s.handleSimulate))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/traces", s.handleDebugTraces)
	// Tracing wraps OUTSIDE recovery so a panicking handler still gets its
	// trace finished (with the recovered 500 status) and logged.
	return s.traceMiddleware(s.recoverMiddleware(mux))
}

// route wraps a /v1 handler: it counts the request on requests and
// observes its latency, a panicking request's included.
func (s *Server) route(requests *atomic.Int64, handle http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		start := time.Now()
		defer func() { s.m.lat.observe(float64(time.Since(start)) / float64(time.Millisecond)) }()
		handle(w, r)
	}
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
				s.fail(w, http.StatusInternalServerError, fmt.Errorf("%w: %v", ErrInternalPanic, rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
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

// fail refuses a request with status and the error body every endpoint
// shares. 429 (queue full) and 503 (draining) both mean "come back
// later"; Retry-After carries the hint either way.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
	}
	s.writeJSON(w, status, SolveResponse{SchemaVersion: Version, Error: err.Error()})
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

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// wireRequest is what the decode path reads of every /v1 request.
type wireRequest interface {
	header() (schemaVersion, timeoutMs int)
}

// decode is the request path of every /v1 handler (see the file header):
// it reads the body into req, runs check — the endpoint's own validation
// of the decoded req — and on success returns the request context under
// the request's deadline. The clamp compares in milliseconds before
// converting: an absurd TimeoutMs multiplied into a time.Duration first
// could wrap to an arbitrary small value.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req wireRequest, check func() error) (ctx context.Context, cancel context.CancelFunc, ok bool) {
	ds := obs.FromContext(r.Context()).Child("decode")
	refuse := func(status int, err error) (context.Context, context.CancelFunc, bool) {
		ds.End()
		s.fail(w, status, err)
		return nil, nil, false
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return refuse(http.StatusMethodNotAllowed, fmt.Errorf("service: %s requires POST", r.URL.Path))
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return refuse(http.StatusRequestEntityTooLarge, fmt.Errorf("service: body exceeds %d bytes", tooBig.Limit))
		}
		return refuse(http.StatusBadRequest, fmt.Errorf("service: invalid JSON: %w", err))
	}
	version, timeoutMs := req.header()
	if err := checkSchemaVersion(version); err != nil {
		return refuse(http.StatusBadRequest, err)
	}
	if err := check(); err != nil {
		return refuse(http.StatusBadRequest, err)
	}
	ds.End()
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		if int64(timeoutMs) > int64(s.cfg.MaxTimeout/time.Millisecond) {
			d = s.cfg.MaxTimeout
		} else {
			d = time.Duration(timeoutMs) * time.Millisecond
		}
	}
	ctx, cancel = context.WithTimeout(r.Context(), d)
	return ctx, cancel, true
}

// settle closes the Handle step of a request: it stamps the root span sp
// with the request's cache key prefix and outcome label ("error" when err
// is set) — what the request log and /debug/traces lead with — and
// refuses a pipeline error with its status. It reports whether a result
// is left to render.
func (s *Server) settle(w http.ResponseWriter, sp obs.SpanRef, out Outcome, label string, err error) bool {
	if err != nil {
		label = "error"
	}
	if sp.Active() {
		if hash := out.Hash; len(hash) > 12 {
			sp.SetArg("hash", hash[:12])
		} else if hash != "" {
			sp.SetArg("hash", hash)
		}
		sp.SetArg("outcome", label)
	}
	if err != nil {
		s.fail(w, errorStatus(err), err)
		return false
	}
	return true
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
	return SolveResponse{
		SchemaVersion: Version,
		Hash:          out.Hash,
		Cached:        out.Cached,
		Coalesced:     out.Coalesced,
		Schedule:      out.ScheduleJSON,
		Summary:       out.Summary,
		Infeasible:    out.Infeasible,
	}
}

// resultStatus maps an Outcome to its HTTP status.
func resultStatus(out Outcome) int {
	if out.Infeasible != nil {
		return http.StatusConflict
	}
	return http.StatusOK
}

// batchRefusal returns the admission error that refused every problem of
// a batch (ErrQueueFull or ErrDraining), or nil.
func batchRefusal(results []BatchResult) error {
	for _, refusal := range [...]error{ErrQueueFull, ErrDraining} {
		all := true
		for i := range results {
			all = all && errors.Is(results[i].Err, refusal)
		}
		if all {
			return refusal
		}
	}
	return nil
}

// ---- Handlers ---------------------------------------------------------

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	var spec Spec
	ctx, cancel, ok := s.decode(w, r, &req, func() (err error) {
		spec.Graph, spec.Platform, spec.Solver, err = buildProblem(req.Graph, req.Platform, req.Options)
		return err
	})
	if !ok {
		return
	}
	defer cancel()
	out, err := s.Handle.Solve(ctx, spec)
	sp := obs.FromContext(r.Context())
	if !s.settle(w, sp, out, outcomeLabel(out), err) {
		return
	}
	rs := sp.Child("render")
	s.writeJSON(w, resultStatus(out), solveResponse(out))
	rs.End()
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	var results []BatchResult
	var specs []Spec
	var specIdx []int
	ctx, cancel, ok := s.decode(w, r, &req, func() error {
		if len(req.Problems) == 0 {
			return errors.New("service: batch has no problems")
		}
		// An undecodable problem gets its error slot; the rest go through
		// the in-process batch pipeline.
		results = make([]BatchResult, len(req.Problems))
		specs = make([]Spec, 0, len(req.Problems))
		specIdx = make([]int, 0, len(req.Problems))
		for i, bp := range req.Problems {
			opts := req.Options
			if bp.Options != nil {
				opts = *bp.Options
			}
			g, p, sv, err := buildProblem(bp.Graph, bp.Platform, opts)
			if err != nil {
				results[i].Err = err
				continue
			}
			specs = append(specs, Spec{Graph: g, Platform: p, Solver: sv})
			specIdx = append(specIdx, i)
		}
		return nil
	})
	if !ok {
		return
	}
	defer cancel()
	if sp := obs.FromContext(r.Context()); sp.Active() {
		sp.SetArg("problems", len(req.Problems))
	}
	for k, res := range s.Handle.SolveBatch(ctx, specs) {
		results[specIdx[k]] = res
	}

	// A batch whose every problem was refused by admission is a refused
	// batch: surface the 429 or 503 (with Retry-After) rather than a 200
	// full of identical refusals. Mixed outcomes keep the 200 envelope with
	// per-problem errors — cached results must not be discarded.
	if err := batchRefusal(results); err != nil {
		s.fail(w, errorStatus(err), err)
		return
	}
	resp := BatchResponse{SchemaVersion: Version, Results: make([]SolveResponse, len(results))}
	for i, res := range results {
		if res.Err != nil {
			resp.Results[i] = SolveResponse{SchemaVersion: Version, Hash: res.Outcome.Hash, Error: res.Err.Error()}
			continue
		}
		resp.Results[i] = solveResponse(res.Outcome)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReplan(w http.ResponseWriter, r *http.Request) {
	var req ReplanRequest
	var spec ReplanSpec
	ctx, cancel, ok := s.decode(w, r, &req, func() error {
		g, p, sv, err := buildProblem(req.Graph, req.Platform, req.Options)
		if err != nil {
			return err
		}
		if len(req.Schedule) == 0 {
			return errors.New("service: replan requires the committed schedule")
		}
		old, err := schedule.LoadJSON(req.Schedule, g, p)
		if err != nil {
			return fmt.Errorf("service: decoding schedule: %w", err)
		}
		// The committed schedule must agree with the solver options on the
		// replication degree and the period; a mismatch is a client error,
		// not a computation to admit.
		if old.Eps != req.Options.Eps || old.Period != req.Options.Period {
			return fmt.Errorf("service: options (eps=%d, period=%v) do not match the schedule (eps=%d, period=%v)",
				req.Options.Eps, req.Options.Period, old.Eps, old.Period)
		}
		if req.RepairBudget < 0 {
			return fmt.Errorf("service: negative repair budget %d", req.RepairBudget)
		}
		spec = ReplanSpec{Old: old, Solver: sv, Delta: req.Delta.Build(),
			RepairBudget: req.RepairBudget, NoColdFallback: req.NoColdFallback}
		_, _, err = spec.Delta.Apply(p)
		return err
	})
	if !ok {
		return
	}
	defer cancel()
	out, err := s.Handle.Replan(ctx, spec)
	sp := obs.FromContext(r.Context())
	if !s.settle(w, sp, out, outcomeLabel(out), err) {
		return
	}
	resp := ReplanResponse{
		SchemaVersion: Version,
		Hash:          out.Hash,
		Cached:        out.Cached,
		Coalesced:     out.Coalesced,
		Schedule:      out.ScheduleJSON,
		Summary:       out.Summary,
		Replan:        replanStatsDTO(out.Replan),
		Infeasible:    out.Infeasible,
	}
	if out.Infeasible != nil {
		s.writeJSON(w, http.StatusConflict, resp)
		return
	}
	rs := sp.Child("render")
	s.writeJSON(w, http.StatusOK, resp)
	rs.End()
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	var spec Spec
	ctx, cancel, ok := s.decode(w, r, &req, func() (err error) {
		spec.Graph, spec.Platform, spec.Solver, err = buildProblem(req.Graph, req.Platform, req.Options)
		if err != nil {
			return err
		}
		return checkScenarios(req.Scenarios, spec.Platform.NumProcs())
	})
	if !ok {
		return
	}
	defer cancel()
	// Solve through the shared cache/coalescing path (same hash space as
	// /v1/solve), then sweep the scenarios behind the Handle.
	out, err := s.Handle.Solve(ctx, spec)
	if !s.settle(w, obs.FromContext(r.Context()), out, "simulated", err) {
		return
	}
	resp := SimulateResponse{
		SchemaVersion: Version,
		Hash:          out.Hash,
		Cached:        out.Cached,
		Coalesced:     out.Coalesced,
		Summary:       out.Summary,
		Infeasible:    out.Infeasible,
	}
	if out.Infeasible == nil {
		if resp.Scenarios, err = s.simulate(ctx, spec, out, req.Scenarios); err != nil {
			s.fail(w, errorStatus(err), err)
			return
		}
	}
	s.writeJSON(w, resultStatus(out), resp)
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
