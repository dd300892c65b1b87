package main

// Correctness, kept off the timed path: every reply the daemon sent is
// compared byte for byte with the reply the in-process pipeline renders
// from the same request body — core.Solver.Solve / Replan + json.Marshal
// for schedules, sim.Engine.Run for simulate scenarios — and every
// returned schedule passes Schedule.Validate.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"streamsched/internal/schedule"
	"streamsched/internal/service"
)

// expectation is the reply the daemon must send for one template.
type expectation struct {
	status int
	digest [32]byte
	// sched is the returned schedule (solve and replan replies with 200).
	sched *schedule.Schedule
	// invalid is set when the schedule fails Validate: every reply
	// carrying it is incorrect.
	invalid error
	err     error // the reference itself failed: a broken run
}

// verifier computes expectations, once per template.
type verifier struct {
	w    *workload
	exp  []expectation
	done []bool
	refs []problemRef
}

// problemRef is the reference solve of one problem, shared by the
// templates built on it (simulate sweeps reuse the committed schedule).
type problemRef struct {
	once  sync.Once
	sched *schedule.Schedule
	err   error
}

func newVerifier(w *workload) *verifier {
	return &verifier{
		w:    w,
		exp:  make([]expectation, len(w.templates)),
		done: make([]bool, len(w.templates)),
		refs: make([]problemRef, len(w.problems)),
	}
}

// validate runs Schedule.Validate, or its structural checks only when the
// exhaustive failure audit is not selected for this schedule.
func validate(s *schedule.Schedule, full bool) error {
	if full {
		return s.Validate()
	}
	return s.ValidateOpts(schedule.ValidateOptions{SkipFaultTolerance: true})
}

// problemSchedule solves problem pi once from its /v1/solve body.
func (v *verifier) problemSchedule(pi int) (*schedule.Schedule, error) {
	ref := &v.refs[pi]
	ref.once.Do(func() {
		var req service.SolveRequest
		if ref.err = json.Unmarshal(v.w.problems[pi], &req); ref.err != nil {
			return
		}
		d, err := buildProblem(req.Graph, req.Platform, req.Options)
		if err != nil {
			ref.err = err
			return
		}
		ref.sched, ref.err = d.sv.Solve(context.Background(), d.g, d.p)
	})
	return ref.sched, ref.err
}

// hit is the outcome the daemon's cache must hold for problem pi.
func (v *verifier) hit(pi int, d decoded) (service.Outcome, error) {
	out := service.Outcome{Hash: service.ProblemHash(d.g, d.p, d.sv), Cached: true}
	sched, err := v.problemSchedule(pi)
	if out.Infeasible, err = infeasibleOf(err); err != nil || out.Infeasible != nil {
		return out, err
	}
	out.Schedule, out.Summary = sched, summaryOf(sched)
	out.ScheduleJSON, err = json.Marshal(sched)
	return out, err
}

// expect computes template ti's expected reply on pipeline p.
func (v *verifier) expect(p *pipeline, ti int) expectation {
	t := &v.w.templates[ti]
	r, err := p.render(t)
	if err != nil {
		return expectation{err: fmt.Errorf("template %d: %w", ti, err)}
	}
	e := expectation{status: r.status, digest: sha256.Sum256(p.buf.Bytes()), sched: r.sched}
	if e.sched != nil {
		e.invalid = validate(e.sched, t.audit)
	}
	return e
}

// ensure computes the expectations of every listed template not computed
// yet, on nproc workers.
func (v *verifier) ensure(tpls []int) {
	var todo []int
	seen := make(map[int]bool)
	for _, ti := range tpls {
		if !v.done[ti] && !seen[ti] {
			seen[ti] = true
			todo = append(todo, ti)
		}
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &pipeline{w: v.w, hit: v.hit}
			for ti := range next {
				v.exp[ti] = v.expect(p, ti)
			}
		}()
	}
	for _, ti := range todo {
		next <- ti
	}
	close(next)
	wg.Wait()
	for _, ti := range todo {
		v.done[ti] = true
	}
}

// tally is the verdict over a set of samples.
type tally struct {
	attempted, failed, mismatched int
	firstMismatch                 string
}

// check verifies samples against their expectations. A transport error,
// timeout, 429 or 5xx is a failed request; a reply that differs from the
// reference is failed and a mismatch, which makes the run incorrect.
func (v *verifier) check(t *tally, samples []sample) error {
	tpls := make([]int, len(samples))
	for i := range samples {
		tpls[i] = samples[i].tpl
	}
	v.ensure(tpls)
	for i := range samples {
		sm := &samples[i]
		e := &v.exp[sm.tpl]
		if e.err != nil {
			return e.err
		}
		t.attempted++
		switch {
		case sm.status == 0 || sm.status == http.StatusTooManyRequests || sm.status >= 500:
			t.failed++
		case sm.status != e.status || sm.digest != e.digest || e.invalid != nil:
			t.failed++
			t.mismatched++
			if t.firstMismatch == "" {
				t.firstMismatch = fmt.Sprintf("template %d (%s): status %d, want %d; schedule audit: %v",
					sm.tpl, kindPath[v.w.templates[sm.tpl].kind], sm.status, e.status, e.invalid)
			}
		}
	}
	return nil
}

// ok reports whether a sample matched its expectation (after check).
func (v *verifier) ok(sm *sample) bool {
	e := &v.exp[sm.tpl]
	return v.done[sm.tpl] && sm.status == e.status && sm.digest == e.digest && e.invalid == nil
}

// scheduleStats are the paper's objective over the distinct schedules the
// daemon returned for the listed templates of kind k: the share of
// distinct problems (or replans) that got a schedule, and the mean
// LatencyBound/Period (= 2S−1).
func (v *verifier) scheduleStats(tpls []int, k kind) (feasible, periods float64) {
	seen := make(map[int]bool)
	var n, ok int
	var sum float64
	for _, ti := range tpls {
		if seen[ti] || v.w.templates[ti].kind != k {
			continue
		}
		seen[ti] = true
		n++
		if s := v.exp[ti].sched; s != nil {
			ok++
			sum += s.LatencyBound() / s.Period
		}
	}
	if n == 0 || ok == 0 {
		return 0, 0
	}
	return float64(ok) / float64(n), sum / float64(ok)
}
