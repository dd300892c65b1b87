package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamsched/internal/dag"
	"streamsched/internal/platform"
	"streamsched/internal/randgraph"
	"streamsched/internal/rng"
	"streamsched/internal/schedule"
)

func TestSolverOptions(t *testing.T) {
	cases := []struct {
		name    string
		opts    []Option
		wantErr bool
	}{
		{"minimal", []Option{WithPeriod(10)}, false},
		{"full", []Option{
			WithAlgorithm(LTF), WithEps(2), WithPeriod(10),
			WithChunkSize(4), WithLookahead(2), WithOneToOne(false), WithLatencyCap(100),
		}, false},
		{"portfolio", []Option{WithAlgorithm(Portfolio), WithPeriod(10)}, false},
		{"missing period", nil, true},
		{"zero period", []Option{WithPeriod(0)}, true},
		{"negative period", []Option{WithPeriod(-1)}, true},
		{"negative eps", []Option{WithEps(-1), WithPeriod(10)}, true},
		{"negative chunk", []Option{WithChunkSize(-1), WithPeriod(10)}, true},
		{"lookahead", []Option{WithLookahead(4), WithPeriod(10)}, false},
		{"zero lookahead", []Option{WithLookahead(0), WithPeriod(10)}, true},
		{"negative lookahead", []Option{WithLookahead(-2), WithPeriod(10)}, true},
		{"unknown algorithm", []Option{WithAlgorithm(Algorithm(99)), WithPeriod(10)}, true},
		{"last option wins", []Option{WithPeriod(10), WithPeriod(20)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSolver(tc.opts...)
			if tc.wantErr {
				if err == nil {
					t.Fatal("expected error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if s == nil {
				t.Fatal("nil solver")
			}
		})
	}
}

func TestSolverDefaults(t *testing.T) {
	s, err := NewSolver(WithPeriod(12))
	if err != nil {
		t.Fatal(err)
	}
	if s.Algorithm() != RLTF || s.Eps() != 0 || s.Period() != 12 {
		t.Fatalf("defaults: algo=%v eps=%d period=%v", s.Algorithm(), s.Eps(), s.Period())
	}
}

// chain builds a → b with the given works and edge volume.
func chainGraph(workA, workB, vol float64) *dag.Graph {
	g := dag.New("chain")
	a := g.AddTask("a", workA)
	b := g.AddTask("b", workB)
	g.MustAddEdge(a, b, vol)
	return g
}

func TestInfeasibleReasonPeriodExceeded(t *testing.T) {
	// One task of work 10 at speed 1 can never fit a period of 5.
	g := dag.New("heavy")
	g.AddTask("a", 10)
	p := platform.Homogeneous(2, 1, 1)
	for _, algo := range []Algorithm{LTF, RLTF} {
		s, err := NewSolver(WithAlgorithm(algo), WithPeriod(5))
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Solve(context.Background(), g, p)
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%v: err = %v, want ErrInfeasible", algo, err)
		}
		var inf *InfeasibleError
		if !errors.As(err, &inf) {
			t.Fatalf("%v: error type %T", algo, err)
		}
		if inf.Reason != ReasonPeriodExceeded {
			t.Fatalf("%v: reason = %v, want period exceeded", algo, inf.Reason)
		}
	}
}

func TestInfeasibleReasonPortOverload(t *testing.T) {
	// Tiny compute, huge transfer: with ε=1 on two processors and full
	// communication replication (one-to-one off), every copy of b receives
	// from the remote copy of a, and the port budget — not the compute
	// load — kills every placement.
	g := chainGraph(0.1, 0.1, 1000)
	p := platform.Homogeneous(2, 1, 1) // transfer time 1000 ≫ period
	s, err := NewSolver(WithAlgorithm(LTF), WithEps(1), WithPeriod(10), WithOneToOne(false))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Solve(context.Background(), g, p)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	var inf *InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("error type %T", err)
	}
	if inf.Reason != ReasonPortOverload {
		t.Fatalf("reason = %v, want port overload", inf.Reason)
	}
}

func TestInfeasibleReasonNoProcessor(t *testing.T) {
	// ε+1 = 4 replicas on a 2-processor platform: no placement exists.
	g := chainGraph(1, 1, 1)
	p := platform.Homogeneous(2, 1, 1)
	s, err := NewSolver(WithAlgorithm(RLTF), WithEps(3), WithPeriod(100))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Solve(context.Background(), g, p)
	var inf *InfeasibleError
	if !errors.As(err, &inf) || inf.Reason != ReasonNoProcessor {
		t.Fatalf("err = %v, want no-processor infeasibility", err)
	}
}

func TestInfeasibleReasonLatencyExceeded(t *testing.T) {
	g := chainGraph(1, 1, 1)
	p := platform.Homogeneous(4, 1, 1)
	s, err := NewSolver(WithAlgorithm(RLTF), WithPeriod(10), WithLatencyCap(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Solve(context.Background(), g, p)
	var inf *InfeasibleError
	if !errors.As(err, &inf) || inf.Reason != ReasonLatencyExceeded {
		t.Fatalf("err = %v, want latency-exceeded infeasibility", err)
	}
}

func TestSolveNilAndInvalidInputs(t *testing.T) {
	s, err := NewSolver(WithPeriod(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), nil, platform.Homogeneous(2, 1, 1)); err == nil {
		t.Fatal("nil graph must fail")
	}
	if _, err := s.Solve(context.Background(), dag.New("g"), nil); err == nil {
		t.Fatal("nil platform must fail")
	}
	// Empty graph fails graph validation, not infeasibility.
	if _, err := s.Solve(context.Background(), dag.New("empty"), platform.Homogeneous(2, 1, 1)); err == nil || errors.Is(err, ErrInfeasible) {
		t.Fatalf("empty graph: err = %v, want a non-infeasibility validation error", err)
	}
}

func TestSolveCancelledContext(t *testing.T) {
	g := randgraph.Chain(20, 1, 0.1)
	p := platform.Homogeneous(4, 1, 10)
	s, err := NewSolver(WithPeriod(100))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Solve(ctx, g, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPortfolioKeepsBetterSchedule(t *testing.T) {
	r := rng.New(3)
	p := platform.RandomHeterogeneous(r, 10, 0.5, 1, 0.5, 1, 100)
	cfg := randgraph.DefaultStreamConfig()
	g := randgraph.Stream(r, cfg, p)

	period := 20.0
	solve := func(algo Algorithm) (*InfeasibleError, float64) {
		s, err := NewSolver(WithAlgorithm(algo), WithEps(1), WithPeriod(period))
		if err != nil {
			t.Fatal(err)
		}
		sched, err := s.Solve(context.Background(), g, p)
		if err != nil {
			var inf *InfeasibleError
			if !errors.As(err, &inf) {
				t.Fatal(err)
			}
			return inf, 0
		}
		return nil, sched.LatencyBound()
	}
	infL, boundL := solve(LTF)
	infR, boundR := solve(RLTF)
	infP, boundP := solve(Portfolio)

	if infL != nil && infR != nil {
		if infP == nil {
			t.Fatal("portfolio feasible where both algorithms fail")
		}
		return
	}
	if infP != nil {
		t.Fatalf("portfolio infeasible (%v) although one algorithm succeeds", infP)
	}
	best := boundR
	if infR != nil || (infL == nil && boundL < boundR) {
		best = boundL
	}
	if boundP != best {
		t.Fatalf("portfolio bound %v, want best of LTF %v / RLTF %v", boundP, boundL, boundR)
	}
}

func TestSolverLookahead(t *testing.T) {
	r := rng.New(7)
	p := platform.RandomHeterogeneous(r, 10, 0.5, 1, 0.5, 1, 100)
	g := randgraph.Stream(r, randgraph.DefaultStreamConfig(), p)
	period := 20.0
	for _, algo := range []Algorithm{LTF, RLTF} {
		solve := func(opts ...Option) *schedule.Schedule {
			t.Helper()
			opts = append([]Option{WithAlgorithm(algo), WithEps(1), WithPeriod(period)}, opts...)
			s, err := NewSolver(opts...)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := s.Solve(context.Background(), g, p)
			if err != nil {
				t.Fatalf("%v: %v", algo, err)
			}
			return sched
		}
		// k = 1 must be the plain loop, byte for byte.
		base, err := solve().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		one, err := solve(WithLookahead(1)).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, one) {
			t.Fatalf("%v: WithLookahead(1) schedule differs from the default", algo)
		}
		// k > 1 schedules must stay valid under the full invariant check and
		// reproduce their goldens byte for byte: speculative placement nests
		// transactions, and a rollback that restores the wrong state would
		// still validate.
		for _, k := range []int{2, 4} {
			sched := solve(WithLookahead(k))
			if err := sched.Validate(); err != nil {
				t.Fatalf("%v lookahead %d: invalid schedule: %v", algo, k, err)
			}
			got, err := json.Marshal(sched)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("lookahead_%s_k%d.json", strings.ToLower(strings.ReplaceAll(algo.String(), "-", "")), k)
			checkGolden(t, filepath.Join("testdata", "golden", name), append(got, '\n'))
		}
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden files")

// checkGolden compares got against the golden file at path, or rewrites the
// file under -update-golden. Regenerate only for an intentional algorithmic
// change, never to paper over an equivalence break.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("schedule diverges from golden %s (%d vs %d bytes)", path, len(got), len(want))
	}
}

// campaign builds n random instance requests with per-request option
// overrides.
func campaign(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		r := rng.New(uint64(1000 + i))
		p := platform.RandomHeterogeneous(r, 8+i%5, 0.5, 1, 0.5, 1, 100)
		cfg := randgraph.DefaultStreamConfig()
		cfg.Granularity = 0.4 + 0.1*float64(i%10)
		g := randgraph.Stream(r, cfg, p)
		reqs[i] = Request{Graph: g, Platform: p, Opts: []Option{WithEps(i % 2)}}
	}
	return reqs
}

func TestSolveManyDeterministicAcrossWorkerCounts(t *testing.T) {
	// Same 50-instance campaign, 1 worker vs 8 workers: the schedules must
	// be byte-identical (and failures must fail identically). Run under
	// -race in CI, this also exercises the pool for data races.
	reqs := campaign(50)
	opts := []Option{WithAlgorithm(Portfolio), WithPeriod(20)}
	serial := (&Batch{Workers: 1, Opts: opts}).Solve(context.Background(), reqs)
	parallel := (&Batch{Workers: 8, Opts: opts}).Solve(context.Background(), reqs)
	if len(serial) != len(reqs) || len(parallel) != len(reqs) {
		t.Fatalf("result lengths %d/%d", len(serial), len(parallel))
	}
	for i := range reqs {
		se, pe := serial[i].Err, parallel[i].Err
		if (se == nil) != (pe == nil) {
			t.Fatalf("request %d: error mismatch %v vs %v", i, se, pe)
		}
		if se != nil {
			if se.Error() != pe.Error() {
				t.Fatalf("request %d: different errors %q vs %q", i, se, pe)
			}
			continue
		}
		sj, err := serial[i].Schedule.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		pj, err := parallel[i].Schedule.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj, pj) {
			t.Fatalf("request %d: schedules differ between worker counts", i)
		}
	}
}

func TestSolveManyCapturesPerRequestErrors(t *testing.T) {
	good := chainGraph(1, 1, 0.1)
	heavy := dag.New("heavy")
	heavy.AddTask("x", 1000)
	p := platform.Homogeneous(4, 1, 10)
	reqs := []Request{
		{Graph: good, Platform: p},
		{Graph: heavy, Platform: p}, // infeasible at the batch period
		{Graph: nil, Platform: p},   // invalid request
	}
	results := SolveMany(context.Background(), reqs, WithPeriod(10))
	if results[0].Err != nil || results[0].Schedule == nil {
		t.Fatalf("request 0: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, ErrInfeasible) {
		t.Fatalf("request 1: err = %v, want ErrInfeasible", results[1].Err)
	}
	if results[2].Err == nil || errors.Is(results[2].Err, ErrInfeasible) {
		t.Fatalf("request 2: err = %v, want non-infeasibility fault", results[2].Err)
	}
}

func TestSolveManyCancelledContext(t *testing.T) {
	reqs := campaign(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range SolveMany(ctx, reqs, WithPeriod(20)) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("request %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestSolveManyEmpty(t *testing.T) {
	if res := SolveMany(context.Background(), nil, WithPeriod(10)); len(res) != 0 {
		t.Fatalf("got %d results for empty batch", len(res))
	}
}
