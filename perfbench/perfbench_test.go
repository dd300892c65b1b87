package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric registry
// and the workload table.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, want %q", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], want %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestPercentileLeavesTenBeyondP99 checks the nearest-rank p99 of 1000
// samples leaves exactly ten samples above it.
func TestPercentileLeavesTenBeyondP99(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p := percentile(xs, 0.99); p != 989 {
		t.Fatalf("p99 = %v, want 989", p)
	}
}

// TestOpenP99IsMedianOfCalmWindows checks that a stall in one window
// moves only that window's p99, and that a window the host disturbed is
// left out of the latency metrics.
func TestOpenP99IsMedianOfCalmWindows(t *testing.T) {
	window := func(stallMs float64, steal float64) slot {
		s := slot{steal: steal}
		for i := 0; i < 200; i++ {
			lat := time.Duration(1+i%3) * time.Millisecond
			if i < 10 {
				lat = time.Duration(stallMs * float64(time.Millisecond))
			}
			s.samples = append(s.samples, sample{status: 200, done: lat})
		}
		return s
	}
	var all []slot
	for i := 0; i < 2*minCalmWindows; i++ {
		all = append(all, window(3, 0))
	}
	all[0] = window(50, 0)               // a stall in a calm window
	all = append(all, window(900, 0.10)) // a window the host disturbed
	ok := func(*sample) bool { return true }
	st := summarizeOpen(all, ok)
	if st.windows != 2*minCalmWindows || st.p99 != 3 || st.p50 != 2 || st.beyond != 10 {
		t.Fatalf("windows %d, p50 %v ms, p99 %v ms, %d beyond; want %d, 2, 3, 10", st.windows, st.p50, st.p99, st.beyond, 2*minCalmWindows)
	}
	if p := windowP99(all[0], ok); p != 50 {
		t.Fatalf("stalled window p99 = %v ms, want 50", p)
	}
}

// TestUpperQuartile pins fig3a's tail statistic over a few campaigns.
func TestUpperQuartile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 3, 4}, 4.5},
		{[]float64{4, 1, 3, 2}, 3.25},
		{[]float64{5, 4, 3, 2, 1}, 4},
	} {
		if got := upperQuartile(c.xs); got != c.want {
			t.Errorf("upperQuartile(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestGenerateDeterministic checks that a seed fixes the inputs, that
// solve-miss never repeats a problem and replan-sim never repeats a delta.
func TestGenerateDeterministic(t *testing.T) {
	for _, name := range []string{"solve-miss", "solve-hit", "replan-sim"} {
		sp, _ := lookupSpec(name)
		a, err := generate(sp, 3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(sp, 3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.templates) != len(b.templates) {
			t.Fatalf("%s: %d vs %d templates", name, len(a.templates), len(b.templates))
		}
		seen := make(map[string]bool)
		for i := range a.templates {
			ta, tb := &a.templates[i], &b.templates[i]
			if !bytes.Equal(ta.body(), tb.body()) {
				t.Fatalf("%s: template %d differs between two generations", name, i)
			}
			if ta.kind == kindSimulate || ta.cached {
				continue
			}
			if key := string(ta.body()); seen[key] {
				t.Fatalf("%s: template %d repeats an earlier request", name, i)
			} else {
				seen[key] = true
			}
		}
	}
}

// replayWorkload generates a small workload, replays its open-loop
// requests in-process and counts their work. It returns the replayer, the
// reply digests and the counters.
func replayWorkload(t *testing.T, name string, seed uint64) (*replayer, [][32]byte, counters) {
	t.Helper()
	sp, _ := lookupSpec(name)
	w, err := generate(sp, seed, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer(w)
	if err := rp.warm(); err != nil {
		t.Fatal(err)
	}
	var digests [][32]byte
	for i, ti := range w.open {
		dig, err := rp.replay(i, ti)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, dig)
	}
	c, err := rp.count(w.open)
	if err != nil {
		t.Fatal(err)
	}
	return rp, digests, c
}

// TestTracedReplayDeterministic: two traced replays of one seed give
// identical mapper, repair and sim counters, the same objective and the
// same replies, and the replies equal the verifier's references.
func TestTracedReplayDeterministic(t *testing.T) {
	for _, name := range []string{"solve-miss", "replan-sim"} {
		a, da, ca := replayWorkload(t, name, 5)
		_, db, cb := replayWorkload(t, name, 5)
		if ca != cb {
			t.Errorf("%s: counters differ between replays:\n%+v\n%+v", name, ca, cb)
		}
		if ca.solves+ca.replans == 0 || ca.feasible == 0 {
			t.Errorf("%s: replay did no work: %+v", name, ca)
		}
		if name == "replan-sim" && (ca.replans == 0 || ca.syncRuns == 0) {
			t.Errorf("replan-sim: no replan or no synchronous simulation: %+v", ca)
		}
		v := newVerifier(a.w)
		v.ensure(a.w.open)
		for i, ti := range a.w.open {
			if da[i] != db[i] {
				t.Fatalf("%s: reply %d differs between replays", name, i)
			}
			if e := v.exp[ti]; e.err != nil || da[i] != e.digest {
				t.Fatalf("%s: reply %d differs from the verifier's reference (%v)", name, i, e.err)
			}
		}
	}
}

// TestLayerMeansAddUp: the per-layer means plus the remainder add up to
// the mean request time, so the layers' self times partition it.
func TestLayerMeansAddUp(t *testing.T) {
	for _, name := range []string{"solve-hit", "replan-sim"} {
		rp, _, _ := replayWorkload(t, name, 7)
		var total, glue float64
		n := 0
		for _, sp := range rp.rec.spans {
			if sp.Parent < 0 {
				total += sp.End - sp.Start
				glue += sp.Self
				n++
			}
		}
		meanMs := total / 1000 / float64(n)
		vals := layerMillis(rp.rec, n)
		other := meanMs - sumLayerMillis(vals)
		if want := glue / 1000 / float64(n); math.Abs(other-want) > 1e-9 {
			t.Errorf("%s: remainder %.6f ms, want the requests' own time %.6f ms", name, other, want)
		}
	}
}
