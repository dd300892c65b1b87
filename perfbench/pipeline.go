package main

// The daemon's request path run in-process: decode, hash, solve / replan /
// simulate, marshal and render, each a call into the layer's public
// function. The verifier runs it untimed to compute every expected reply;
// the traced run runs it once with a recorder, which makes each call a
// span, and once more with counters and obs tracing armed, which count the
// solver, repair and simulator work.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"streamsched/internal/core"
	"streamsched/internal/dag"
	"streamsched/internal/infeas"
	"streamsched/internal/obs"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
	"streamsched/internal/service"
	"streamsched/internal/sim"
)

// pipeline renders replies in-process. The verifier and the traced run
// differ only in hit, where a cached request's outcome comes from: the
// verifier solves the problem itself, the traced run looks it up in a
// service.Handle warmed like the daemon.
type pipeline struct {
	w   *workload
	rec *recorder // nil: untimed
	c   *counters // nil: uncounted
	hit func(pi int, d decoded) (service.Outcome, error)
	buf bytes.Buffer
	// req and root place the spans of the request being rendered.
	req, root int
}

// reply is what rendering one template gave: the status, the schedule the
// reply carries (solve and replan replies with 200), and the body in the
// pipeline's buffer.
type reply struct {
	status int
	sched  *schedule.Schedule
}

// begin opens a span of the current request; end closes it.
func (p *pipeline) begin(name string) int { return p.rec.begin(name, p.req, p.root) }
func (p *pipeline) end(id int)            { p.rec.end(id) }

// solverCtx attaches an obs trace to a solver call when the pipeline
// counts; done folds the trace's mapper counters in.
func (p *pipeline) solverCtx(name string) (ctx context.Context, done func()) {
	if p.c == nil {
		return context.Background(), func() {}
	}
	tr := obs.NewTrace(name)
	return obs.ContextWith(context.Background(), tr.Root()), func() { p.c.addTrace(tr) }
}

// render computes template t's reply into p.buf.
func (p *pipeline) render(t *template) (reply, error) {
	switch t.kind {
	case kindSolve:
		return p.solve(t)
	case kindReplan:
		return p.replan(t)
	case kindSimulate:
		return p.simulate(t)
	}
	return reply{}, fmt.Errorf("unknown template kind %d", t.kind)
}

// decode is the daemon's decode stage: JSON into req, then the problem.
func (p *pipeline) decode(body []byte, req any, g func() (decoded, error)) (decoded, error) {
	sp := p.begin("service.decode")
	defer p.end(sp)
	if err := json.Unmarshal(body, req); err != nil {
		return decoded{}, err
	}
	return g()
}

// encode renders the response envelope.
func (p *pipeline) encode(v any) error {
	sp := p.begin("service.render")
	defer p.end(sp)
	return encodeReply(&p.buf, v)
}

func (p *pipeline) solve(t *template) (reply, error) {
	var r service.SolveRequest
	d, err := p.decode(t.body(), &r, func() (decoded, error) { return buildProblem(r.Graph, r.Platform, r.Options) })
	if err != nil {
		return reply{}, err
	}
	var out service.Outcome
	if t.cached {
		if out, err = p.hit(t.problem, d); err != nil {
			return reply{}, err
		}
	} else {
		sp := p.begin("service.hash")
		out.Hash = service.ProblemHash(d.g, d.p, d.sv)
		p.end(sp)
		ctx, done := p.solverCtx("solve")
		sp = p.begin(solveSpan(r.Options.Algorithm))
		sched, err := d.sv.Solve(ctx, d.g, d.p)
		p.end(sp)
		done()
		if out.Infeasible, err = infeasibleOf(err); err != nil {
			return reply{}, err
		}
		if out.Infeasible == nil {
			sp = p.begin("schedule.marshal")
			out.ScheduleJSON, err = json.Marshal(sched)
			p.end(sp)
			if err != nil {
				return reply{}, err
			}
			out.Schedule, out.Summary = sched, summaryOf(sched)
			p.c.addSchedule(sched)
		}
	}
	resp := service.SolveResponse{
		SchemaVersion: service.Version,
		Hash:          out.Hash,
		Cached:        out.Cached,
		Coalesced:     out.Coalesced,
		Infeasible:    out.Infeasible,
		Schedule:      out.ScheduleJSON,
		Summary:       out.Summary,
	}
	return reply{status: statusOf(out.Infeasible), sched: out.Schedule}, p.encode(resp)
}

func (p *pipeline) replan(t *template) (reply, error) {
	var r service.ReplanRequest
	var delta core.Delta
	d, err := p.decode(t.body(), &r, func() (decoded, error) {
		d, err := buildProblem(r.Graph, r.Platform, r.Options)
		if err != nil {
			return d, err
		}
		delta = r.Delta.Build()
		_, _, err = delta.Apply(d.p)
		return d, err
	})
	if err != nil {
		return reply{}, err
	}
	sp := p.begin("schedule.load")
	old, err := schedule.LoadJSON(r.Schedule, d.g, d.p)
	p.end(sp)
	if err != nil {
		return reply{}, err
	}
	sp = p.begin("service.hash")
	hash, err := service.ReplanHash(service.ReplanSpec{Old: old, Solver: d.sv, Delta: delta, RepairBudget: r.RepairBudget, NoColdFallback: r.NoColdFallback})
	p.end(sp)
	if err != nil {
		return reply{}, err
	}
	ctx, done := p.solverCtx("replan")
	sp = p.begin("repair.replan")
	res, err := d.sv.Replan(ctx, old, delta, replanOptions(r)...)
	p.end(sp)
	done()
	resp := service.ReplanResponse{SchemaVersion: service.Version, Hash: hash}
	if resp.Infeasible, err = infeasibleOf(err); err != nil {
		return reply{}, err
	}
	var sched *schedule.Schedule
	if resp.Infeasible == nil {
		sched = res.Schedule
		sp = p.begin("schedule.marshal")
		resp.Schedule, err = json.Marshal(sched)
		p.end(sp)
		if err != nil {
			return reply{}, err
		}
		st := res.Stats
		resp.Summary = summaryOf(sched)
		resp.Replan = &service.ReplanStats{Replayed: st.Replayed, Preserved: st.Preserved, Repaired: st.Repaired, ColdSolve: st.ColdSolve}
		p.c.addRepair(old.G.NumTasks(), st)
		p.c.addSchedule(sched)
	}
	return reply{status: statusOf(resp.Infeasible), sched: sched}, p.encode(resp)
}

func (p *pipeline) simulate(t *template) (reply, error) {
	var r service.SimulateRequest
	d, err := p.decode(t.body(), &r, func() (decoded, error) { return buildProblem(r.Graph, r.Platform, r.Options) })
	if err != nil {
		return reply{}, err
	}
	out, err := p.hit(t.problem, d)
	if err != nil {
		return reply{}, err
	}
	if out.Schedule == nil {
		return reply{}, fmt.Errorf("simulate target %d is not feasible", t.problem)
	}
	sp := p.begin("sim.build")
	eng, err := sim.NewEngine(out.Schedule)
	p.end(sp)
	if err != nil {
		return reply{}, err
	}
	resp := service.SimulateResponse{
		SchemaVersion: service.Version,
		Hash:          out.Hash,
		Cached:        out.Cached,
		Coalesced:     out.Coalesced,
		Summary:       out.Summary,
	}
	for _, sc := range r.Scenarios {
		name := "sim.run_dataflow"
		if sc.Synchronous {
			name = "sim.run_sync"
		}
		sp = p.begin(name)
		res, err := eng.Run(context.Background(), scenarioConfig(out.Schedule, sc))
		p.end(sp)
		if err != nil {
			return reply{}, err
		}
		if sc.Synchronous {
			p.c.addWakes(eng.Wakes())
		}
		resp.Scenarios = append(resp.Scenarios, scenarioResult(sc, res))
	}
	return reply{status: http.StatusOK}, p.encode(resp)
}

// statusOf is the daemon's status for an outcome: 409 when infeasible.
func statusOf(inf *service.Infeasible) int {
	if inf != nil {
		return http.StatusConflict
	}
	return http.StatusOK
}

// solveSpan names the solver layer of an algorithm token.
func solveSpan(algo string) string {
	switch algo {
	case "ltf":
		return "ltf.solve"
	case "ff":
		return "ff.solve"
	default:
		return "rltf.solve"
	}
}

// decoded is one decoded problem, as the daemon's buildProblem builds it.
type decoded struct {
	g  *dag.Graph
	p  *platform.Platform
	sv *core.Solver
}

func buildProblem(g service.Graph, p service.Platform, o service.Options) (decoded, error) {
	var d decoded
	var err error
	if d.g, err = g.Build(); err != nil {
		return d, err
	}
	if d.p, err = p.Build(); err != nil {
		return d, err
	}
	d.sv, err = o.Solver()
	return d, err
}

// encodeReply renders a reply envelope exactly as the daemon's writeJSON.
func encodeReply(buf *bytes.Buffer, v any) error {
	buf.Reset()
	return json.NewEncoder(buf).Encode(v)
}

// infeasibleOf folds a solver error into the daemon's 409 payload; nil
// stays nil and any other error is returned as is.
func infeasibleOf(err error) (*service.Infeasible, error) {
	if err == nil {
		return nil, nil
	}
	var ie *infeas.Error
	if errors.As(err, &ie) {
		return ie, nil
	}
	if errors.Is(err, infeas.ErrInfeasible) {
		return infeas.New(infeas.ReasonUnknown, 0, err.Error()), nil
	}
	return nil, err
}

// replanOptions is the repair policy the daemon applies to a replan.
func replanOptions(r service.ReplanRequest) []core.ReplanOption {
	return []core.ReplanOption{core.WithRepairBudget(r.RepairBudget), core.WithColdFallback(!r.NoColdFallback)}
}

// scenarioConfig is the simulator configuration the daemon derives from a
// wire scenario.
func scenarioConfig(s *schedule.Schedule, sc service.Scenario) sim.Config {
	cfg := sim.DefaultConfig(s)
	if sc.Items > 0 {
		cfg.Items = sc.Items
	}
	if sc.Warmup > 0 {
		cfg.Warmup = sc.Warmup
	}
	cfg.Synchronous = sc.Synchronous
	if len(sc.CrashProcs) > 0 {
		ps := make([]platform.ProcID, len(sc.CrashProcs))
		for i, u := range sc.CrashProcs {
			ps[i] = platform.ProcID(u)
		}
		cfg.Failures = sim.FailureSpec{Procs: ps, At: sc.CrashAt}
	}
	return cfg
}

// scenarioResult is the wire form of one scenario's measurements.
func scenarioResult(sc service.Scenario, r *sim.Result) service.ScenarioResult {
	return service.ScenarioResult{
		Name:           sc.Name,
		MeanLatency:    jsonFloat(r.MeanLatency),
		MaxLatency:     jsonFloat(r.MaxLatency),
		AchievedPeriod: jsonFloat(r.AchievedPeriod),
		Delivered:      r.Delivered,
		Items:          r.Items,
	}
}

// jsonFloat maps NaN (nothing delivered) to null, as the daemon does.
func jsonFloat(x float64) *float64 {
	if x != x {
		return nil
	}
	return &x
}

// summaryOf is the daemon's schedule summary.
func summaryOf(s *schedule.Schedule) *service.ScheduleSummary {
	return &service.ScheduleSummary{
		Algorithm:    s.Algorithm,
		Stages:       s.Stages(),
		LatencyBound: s.LatencyBound(),
		Makespan:     s.Makespan(),
		CrossComms:   s.CrossComms(),
	}
}
