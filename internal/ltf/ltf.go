// Package ltf implements the LTF (Latency, Throughput, Failures) scheduling
// algorithm — Algorithm 4.1 of the paper. LTF extends Iso-Level CAFT with a
// throughput constraint: tasks are consumed in priority order in chunks β of
// up to B ready tasks, each task is replicated ε+1 times, replicas are
// placed with the one-to-one mapping procedure while singleton processors
// remain (minimizing replicated communications) and with full communication
// replication otherwise, and every placement must satisfy condition (1):
// the target's computing load and the affected send/receive port loads must
// all fit within the period Δ = 1/T. LTF fails — returns an error — when no
// processor can accommodate a replica within the period.
package ltf

import (
	"context"
	"fmt"

	"streamsched/internal/dag"
	"streamsched/internal/mapper"
	"streamsched/internal/obs"
	"streamsched/internal/platform"
	"streamsched/internal/schedule"
)

// Options tune the algorithm.
type Options struct {
	// ChunkSize is B, the number of ready tasks mapped per iso-level chunk.
	// 0 means the paper's default, B = m. ChunkSize 1 degrades LTF to plain
	// one-task-at-a-time list scheduling (the ablation of DESIGN.md §E10).
	ChunkSize int
	// DisableOneToOne forces full communication replication everywhere —
	// the (ε+1)² baseline the one-to-one procedure improves on (§4.2 claim,
	// DESIGN.md §E9).
	DisableOneToOne bool
	// Lookahead enables speculative chunk placement (DESIGN.md §7): windows
	// of k ready tasks are placed once per candidate strategy under one
	// transaction over the window (mapper.State.Begin), each complete
	// placement is scored by (max stage, max finish) over the window, and
	// the best is kept. 0 or 1 disables speculation and reproduces the
	// plain chunked loop exactly; k > 1 trades construction time for
	// schedule quality.
	Lookahead int
}

// Schedule maps g onto p tolerating eps failures at the given period, and
// returns the resulting schedule. The error is non-nil when the instance is
// infeasible for LTF (a *mapper.InfeasibleError classifying the failure,
// matchable with errors.Is against infeas.ErrInfeasible) or when ctx is
// cancelled mid-placement (ctx.Err()).
func Schedule(ctx context.Context, g *dag.Graph, p *platform.Platform, eps int, period float64, opts Options) (*schedule.Schedule, error) {
	st, err := mapper.New(g, p, eps, period, "LTF")
	if err != nil {
		return nil, err
	}
	st.OneToOneOff = opts.DisableOneToOne
	b := opts.ChunkSize
	if b <= 0 {
		b = p.NumProcs()
	}
	sp := obs.FromContext(ctx).Child("ltf")
	err = run(obs.ContextWith(ctx, sp), st, b, opts.Lookahead, mapper.MinFinish)
	EndPhaseSpan(sp, st, err)
	if err != nil {
		return nil, err
	}
	return st.Sched, nil
}

// EndPhaseSpan attaches the construction's phase counters (and the error,
// if any) to an algorithm-level trace span and closes it. No-op on an
// inactive span. Shared with rltf.
func EndPhaseSpan(sp obs.SpanRef, st *mapper.State, err error) {
	if sp.Active() {
		sp.SetArg("trials", st.Phases.Trials)
		sp.SetArg("placements", st.Phases.Placements)
		sp.SetArg("rollbacks", st.Phases.Rollbacks)
		sp.SetArg("fallbacks", st.Phases.Fallbacks)
		if err != nil {
			sp.SetArg("err", err.Error())
		}
	}
	sp.End()
}

// run executes the chunked replica-placement loop shared with R-LTF (which
// calls it on the reversed graph with a different comparator factory).
func run(ctx context.Context, st *mapper.State, chunkSize, lookahead int, better mapper.Better) error {
	return runWith(ctx, st, chunkSize, lookahead, func(dag.TaskID) mapper.Better { return better })
}

// runWith is run with a per-task comparator (R-LTF's Rule 1 bound depends on
// the stages of the current task's already-placed neighbors).
//
// Forward mode interleaves the chunk tasks' replica rounds (the iso-level
// balancing of Algorithm 4.1). Reverse mode places each task's ε+1 replicas
// contiguously and all-or-nothing — either every copy through the
// one-to-one procedure or every copy through the fallback — because a
// mixture would leave the consumers that are no chain's head fed only by
// the fallback copies, an untracked vulnerability (see mapper's discipline
// note). A mid-way one-to-one failure rolls the task back through its
// transaction.
//
// With lookahead > 1 the loop pops windows of k ready tasks and places each
// window speculatively (placeChunkSpeculative): every candidate strategy is
// built in full under a window transaction, scored, rolled back, and the best
// one re-run for keeps. lookahead <= 1 is the plain loop, bit for bit.
func runWith(ctx context.Context, st *mapper.State, chunkSize, lookahead int, betterFor func(dag.TaskID) mapper.Better) error {
	// Tracing is per chunk, not per placement: a chunk is the coarsest unit
	// that still shows where a construction spent its time, and the span is
	// inactive (pure no-op) unless the request is traced.
	sp := obs.FromContext(ctx)
	pop := chunkSize
	if lookahead > 1 {
		pop = lookahead
	}
	for !st.Done() {
		// Cancellation is checked once per chunk: a chunk is the placement
		// loop's unit of work, so an abandoned search (tricrit, Batch) stops
		// within one chunk's worth of placements.
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := st.PopChunk(pop)
		if len(chunk) == 0 {
			return fmt.Errorf("ltf: no ready task but %s", "unscheduled tasks remain (graph not acyclic?)")
		}
		cs := sp.Child("chunk")
		if cs.Active() {
			cs.SetArg("tasks", len(chunk))
		}
		var err error
		switch {
		case lookahead > 1 && len(chunk) > 1:
			err = placeChunkSpeculative(st, chunk, betterFor, cs)
		case st.ReverseMode:
			err = placeChunkReverse(st, chunk, false, betterFor, cs)
		default:
			err = placeChunkForward(st, chunk, false, betterFor, cs)
		}
		if err != nil {
			cs.End()
			return err
		}
		st.MarkScheduled(chunk)
		cs.End()
	}
	return nil
}

// placeChunkForward places one forward-mode chunk. The default interleaves
// the chunk tasks' replica rounds (the iso-level balancing of Algorithm
// 4.1); sequential is the speculative alternative that finishes all ε+1
// copies of each task before starting the next, letting later tasks chain
// onto the completed placements of earlier ones.
func placeChunkForward(st *mapper.State, chunk []dag.TaskID, sequential bool, betterFor func(dag.TaskID) mapper.Better, cs obs.SpanRef) error {
	if sequential {
		for _, t := range chunk {
			better := betterFor(t)
			pools := st.Pools(t)
			theta := st.Theta(pools)
			z := 0
			for n := 0; n <= st.Eps; n++ {
				if !st.OneToOneOff && z < theta && st.OneToOne(t, n, pools, better) {
					z++
					continue
				}
				if err := st.Fallback(t, n, better); err != nil {
					return err
				}
			}
		}
		return nil
	}
	pools := make([][][]schedule.Ref, len(chunk))
	theta := make([]int, len(chunk))
	z := make([]int, len(chunk))
	for k, t := range chunk {
		pools[k] = st.Pools(t)
		theta[k] = st.Theta(pools[k])
	}
	for n := 0; n <= st.Eps; n++ {
		for k, t := range chunk {
			better := betterFor(t)
			if !st.OneToOneOff && z[k] < theta[k] && st.OneToOne(t, n, pools[k], better) {
				z[k]++
				continue
			}
			if err := st.Fallback(t, n, better); err != nil {
				return err
			}
		}
	}
	return nil
}

// placeChunkReverse places one reverse-mode chunk task by task through the
// all-or-nothing retry ladder, in priority order by default or back to front
// when reversed (the speculative alternative: the lowest-priority task picks
// its merge targets first).
func placeChunkReverse(st *mapper.State, chunk []dag.TaskID, reversed bool, betterFor func(dag.TaskID) mapper.Better, cs obs.SpanRef) error {
	for i := range chunk {
		t := chunk[i]
		if reversed {
			t = chunk[len(chunk)-1-i]
		}
		if err := placeTaskAllOrNothing(st, t, betterFor(t), cs); err != nil {
			return err
		}
	}
	return nil
}

// placeChunkSpeculative is the lookahead driver: each placement strategy
// builds the whole window under one transaction, the complete placements
// are scored by (max stage, max finish) over the window's replicas — lower
// is better, ties keep the earlier variant — and after every variant has
// been rolled back the winner re-runs for keeps (the machinery is
// deterministic, so the re-run reproduces the scored placement exactly).
// When every variant fails the error of the canonical strategy is returned,
// so infeasibility classification matches the non-speculative loop.
func placeChunkSpeculative(st *mapper.State, chunk []dag.TaskID, betterFor func(dag.TaskID) mapper.Better, cs obs.SpanRef) error {
	const variants = 2
	best := -1
	bestStage, bestFin := 0, 0.0
	var firstErr error
	for v := 0; v < variants; v++ {
		st.Begin(chunk...)
		err := placeChunkVariant(st, chunk, v, betterFor, cs)
		if err != nil {
			if v == 0 {
				firstErr = err
			}
			st.Abort()
			continue
		}
		stage, fin := windowScore(st, chunk)
		if best < 0 || stage < bestStage || (stage == bestStage && fin < bestFin) {
			best, bestStage, bestFin = v, stage, fin
		}
		st.Abort()
	}
	if best < 0 {
		return firstErr
	}
	if cs.Active() {
		cs.SetArg("variant", best)
	}
	return placeChunkVariant(st, chunk, best, betterFor, cs)
}

// placeChunkVariant runs one placement strategy over the window: variant 0
// is the mode's canonical order, variant 1 its alternative.
func placeChunkVariant(st *mapper.State, chunk []dag.TaskID, variant int, betterFor func(dag.TaskID) mapper.Better, cs obs.SpanRef) error {
	if st.ReverseMode {
		return placeChunkReverse(st, chunk, variant == 1, betterFor, cs)
	}
	return placeChunkForward(st, chunk, variant == 1, betterFor, cs)
}

// windowScore reduces a fully placed window to its speculative score: the
// maximum pipeline stage and maximum finish time over the window's replicas.
// Stage dominates — it bounds the synchronous latency (2S−1)Δ — and finish
// breaks ties toward the placement that leaves the most timeline headroom.
func windowScore(st *mapper.State, chunk []dag.TaskID) (stage int, fin float64) {
	for _, t := range chunk {
		for _, ref := range schedule.ReplicaRefs(t, st.Eps) {
			if s := st.ReplicaStage(ref); s > stage {
				stage = s
			}
			if r := st.Sched.Replica(ref); r != nil && r.Finish > fin {
				fin = r.Finish
			}
		}
	}
	return stage, fin
}

// placeTaskAllOrNothing implements the reverse-mode per-task dichotomy with
// a retry ladder: a full one-to-one chain with the stage-preserving
// comparator first; if the aggressive merging runs the chains into a wall,
// a full chain with the finish-time comparator (which spreads load); and
// only then the all-fallback placement with its (ε+1)²-per-edge
// communications. Each failed rung rolls back through the task's
// transaction (journaled undo, O(changes)); inside a speculative window it
// nests in the window's transaction.
func placeTaskAllOrNothing(st *mapper.State, t dag.TaskID, better mapper.Better, sp obs.SpanRef) error {
	if !st.OneToOneOff && st.Theta(st.Pools(t)) >= st.Eps+1 {
		for rung := 0; rung < 2; rung++ {
			b := better
			if rung == 1 {
				b = mapper.MinFinish
			}
			pools := st.Pools(t)
			st.Begin(t)
			ok := true
			for n := 0; n <= st.Eps; n++ {
				if !st.OneToOne(t, n, pools, b) {
					ok = false
					break
				}
			}
			if ok {
				st.Commit()
				return nil
			}
			st.Abort()
			if sp.Active() {
				sp.Event("rollback", map[string]any{"task": int(t), "rung": rung})
			}
		}
	}
	for n := 0; n <= st.Eps; n++ {
		if err := st.Fallback(t, n, better); err != nil {
			return err
		}
	}
	return nil
}

// Run is the shared driver exposed for R-LTF. It is not part of the public
// façade API.
func Run(ctx context.Context, st *mapper.State, chunkSize, lookahead int, betterFor func(dag.TaskID) mapper.Better) error {
	return runWith(ctx, st, chunkSize, lookahead, betterFor)
}
