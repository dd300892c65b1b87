package main

// The three service workloads: a real streamschedd over loopback HTTP.

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one benchmark run.
type runConfig struct {
	spec      *spec
	seed      uint64
	seconds   float64
	trace     bool
	daemonBin string
	outDir    string
}

// setUp starts a daemon and warms it: keep-alive connections, then the
// workload's set-up requests.
func setUp(rc runConfig, w *workload, traced bool, conns int) (*daemon, []sample, error) {
	d, err := startDaemon(rc.daemonBin, traced, conns)
	if err != nil {
		return nil, nil, err
	}
	d.warmConns(conns)
	warm, _ := drive(d, w, w.warmup, 0, conns)
	return d, warm, nil
}

// maxSteal is the share of a slot's CPU time the host may steal before
// the slot counts as disturbed. Steal time (the steal column of
// /proc/stat) is time this machine's CPUs were ready to run but the
// hypervisor ran something else; on a shared virtual machine it comes in
// bursts that stretch every request they overlap.
const maxSteal = 0.015

// slot is one timed stretch of a service run, a closed-loop chunk of the
// campaign or an open-loop window, and the share of its CPU time the host
// stole.
type slot struct {
	samples []sample
	wall    time.Duration
	steal   float64
}

// passes are the slots of a service run on one daemon, in the order sent.
type passes struct {
	chunks, windows []slot
}

// measure alternates closed-loop chunks with open-loop windows, so that
// both sample the whole run and not one stretch of a machine whose speed
// drifts. A slot the host disturbed is replaced by one more from the
// reserve, until closedSlots chunks and openSlots windows are calm or the
// reserve is spent. With open false it runs the closed chunks only.
func measure(d *daemon, w *workload, conns int, open bool) passes {
	var ps passes
	nc, no := 0, 0 // the next closed-loop and open-loop request
	needC := func() bool { return countCalm(steals(ps.chunks)) < closedSlots && nc+w.chunk <= len(w.closed) }
	needO := func() bool { return open && countCalm(steals(ps.windows)) < openSlots && no+w.window <= len(w.open) }
	for needC() || needO() {
		if needC() {
			tpls := w.closed[nc : nc+w.chunk]
			nc += w.chunk
			ps.chunks = append(ps.chunks, timeSlot(func() ([]sample, time.Duration) { return drive(d, w, tpls, 0, conns) }))
		}
		for k := 0; k < openSlots/closedSlots && needO(); k++ {
			tpls := w.open[no : no+w.window]
			no += w.window
			ps.windows = append(ps.windows, timeSlot(func() ([]sample, time.Duration) { return drive(d, w, tpls, w.spec.openRPS, conns) }))
		}
	}
	return ps
}

// timeSlot runs one slot and measures the host's steal during it.
func timeSlot(run func() ([]sample, time.Duration)) slot {
	st0 := stealTicks()
	samples, wall := run()
	return slot{samples: samples, wall: wall, steal: stealShare(st0, wall)}
}

// stealShare is the share of the CPU time of a wall-long stretch that
// began at steal count st0 which the host stole.
func stealShare(st0 int64, wall time.Duration) float64 {
	return float64(stealTicks()-st0) / 100 / (wall.Seconds() * float64(runtime.NumCPU()))
}

// stealTicks reads the machine's steal time from /proc/stat in clock
// ticks (100 per second); 0 where it is not reported.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// steals are the steal shares of slots.
func steals(slots []slot) []float64 {
	out := make([]float64, len(slots))
	for i, s := range slots {
		out[i] = s.steal
	}
	return out
}

// countCalm counts the steal shares that are not over maxSteal.
func countCalm(steal []float64) int {
	n := 0
	for _, st := range steal {
		if st <= maxSteal {
			n++
		}
	}
	return n
}

// stealNote lists steal shares in percent.
func stealNote(steal []float64) string {
	var b strings.Builder
	for i, st := range steal {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.1f", 100*st)
	}
	return b.String()
}

// timed are the n slots the metrics are taken from: the calm ones, topped
// up with the least disturbed others when the reserve ran out first.
func timed(slots []slot, n int) []slot {
	var out []slot
	for _, i := range calmFirst(steals(slots))[:min(n, len(slots))] {
		out = append(out, slots[i])
	}
	return out
}

// calm are the calm slots, at least n of them: when fewer are calm, the
// least disturbed others fill in.
func calm(slots []slot, n int) []slot {
	return timed(slots, max(countCalm(steals(slots)), n))
}

// calmFirst orders the indices of items with the given steal shares: the
// calm ones in order, then the disturbed ones from the least disturbed.
func calmFirst(steal []float64) []int {
	var calm, rest []int
	for i, st := range steal {
		if st <= maxSteal {
			calm = append(calm, i)
		} else {
			rest = append(rest, i)
		}
	}
	sort.SliceStable(rest, func(a, b int) bool { return steal[rest[a]] < steal[rest[b]] })
	return append(calm, rest...)
}

// samplesOf concatenates the samples of slots.
func samplesOf(slots []slot) []sample {
	var out []sample
	for _, s := range slots {
		out = append(out, s.samples...)
	}
	return out
}

// throughput is successful requests per second over the timed closed-loop
// chunks, and campaign their summed wall time.
func throughput(v *verifier, ps passes) (rps float64, campaign time.Duration) {
	n := 0
	for _, c := range timed(ps.chunks, closedSlots) {
		for i := range c.samples {
			if v.ok(&c.samples[i]) {
				n++
			}
		}
		campaign += c.wall
	}
	return float64(n) / campaign.Seconds(), campaign
}

// runService is an untraced run: set up the daemon, run the timed passes
// on it, then set up setups-1 more daemons
// (set-up time is the median of all set-ups; the later ones straddle the
// verification, so they sample more than one moment of a machine whose
// speed drifts).
func runService(rc runConfig, w *workload) (*result, error) {
	conns := runtime.NumCPU()
	var setup []float64
	var warm []sample
	setUpTimed := func() (*daemon, error) {
		start := time.Now()
		d, ws, err := setUp(rc, w, false, conns)
		if err == nil {
			setup = append(setup, time.Since(start).Seconds())
			warm = append(warm, ws...)
		}
		return d, err
	}
	extraSetUps := func(n int) error {
		for i := 0; i < n; i++ {
			d, err := setUpTimed()
			if err != nil {
				return err
			}
			d.stop()
		}
		return nil
	}
	d, err := setUpTimed()
	if err != nil {
		return nil, err
	}
	ps := measure(d, w, conns, true)
	rss, err := d.peakRSSMiB()
	d.stop()
	if err != nil {
		return nil, err
	}
	if err := extraSetUps((setups - 1) / 2); err != nil {
		return nil, err
	}

	v := newVerifier(w)
	var t tally
	for _, s := range [][]sample{samplesOf(ps.chunks), samplesOf(ps.windows)} {
		if err := v.check(&t, s); err != nil {
			return nil, err
		}
	}
	if err := extraSetUps(setups - len(setup)); err != nil {
		return nil, err
	}
	if err := v.check(&t, warm); err != nil {
		return nil, err
	}
	op := summarizeOpen(ps.windows, v.ok)
	rps, campaign := throughput(v, ps)
	feasible, periods := serviceScheduleStats(v, w, ps)
	fmt.Printf("# %s seed %d: latency over %d open-loop windows, %d samples at %.0f req/s, %d beyond p99; closed campaign of %d requests\n",
		w.spec.name, w.seed, op.windows, op.n, w.spec.openRPS, op.beyond, closedSlots*w.chunk)
	fmt.Printf("# slots sent: %d closed, %d open; steal %% of each: %s | %s (over %.1f: disturbed)\n",
		len(ps.chunks), len(ps.windows), stealNote(steals(ps.chunks)), stealNote(steals(ps.windows)), 100*maxSteal)
	var p99s []string
	for _, s := range ps.windows {
		p99s = append(p99s, strconv.FormatFloat(windowP99(s, v.ok), 'f', 2, 64))
	}
	fmt.Printf("# p99 ms of each open-loop window: %s\n", strings.Join(p99s, " "))
	if t.mismatched > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d replies differ from the reference; first: %s\n", t.mismatched, t.firstMismatch)
	}
	res := &result{Correct: t.mismatched == 0, Attempted: t.attempted, Failed: t.failed}
	return res, res.fill(endToEnd, map[string]float64{
		"setup_s":               median(setup),
		"throughput_rps":        rps,
		"latency_p50_ms":        op.p50,
		"latency_p99_ms":        op.p99,
		"success_ratio":         1 - float64(t.failed)/float64(t.attempted),
		"sched_latency_periods": periods,
		"feasible_ratio":        feasible,
		"campaign_s":            campaign.Seconds(),
		"peak_rss_mb":           rss,
	})
}

// serviceScheduleStats picks the schedules behind sched_latency_periods
// and feasible_ratio: the distinct problems of solve-miss, the hot set of
// solve-hit, the replans of replan-sim, among the requests sent.
func serviceScheduleStats(v *verifier, w *workload, ps passes) (feasible, periods float64) {
	if w.spec.name == "solve-hit" {
		return v.scheduleStats(w.warmup, kindSolve)
	}
	var tpls []int
	for _, s := range append(append([]slot(nil), ps.chunks...), ps.windows...) {
		for i := range s.samples {
			tpls = append(tpls, s.samples[i].tpl)
		}
	}
	if w.spec.name == "replan-sim" {
		return v.scheduleStats(tpls, kindReplan)
	}
	return v.scheduleStats(tpls, kindSolve)
}

// runServiceTraced is a traced run: the same passes against an untraced
// daemon (for /metrics and the latency the layers must add up to) and,
// for the tracing overhead and the admission stage, the closed-loop chunks
// against a daemon with -trace=true; then the in-process replay of the
// first open-loop requests, layer by layer.
func runServiceTraced(rc runConfig, w *workload) (*result, error) {
	conns := runtime.NumCPU()
	d, warm, err := setUp(rc, w, false, conns)
	if err != nil {
		return nil, err
	}
	ps := measure(d, w, conns, true)
	plain, err := d.metrics()
	d.stop()
	if err != nil {
		return nil, err
	}

	dt, warmT, err := setUp(rc, w, true, conns)
	if err != nil {
		return nil, err
	}
	psT := measure(dt, w, conns, false)
	traced, err := dt.metrics()
	dt.stop()
	if err != nil {
		return nil, err
	}

	v := newVerifier(w)
	var t tally
	for _, s := range [][]sample{warm, samplesOf(ps.chunks), samplesOf(ps.windows), warmT, samplesOf(psT.chunks)} {
		if err := v.check(&t, s); err != nil {
			return nil, err
		}
	}

	// The replay takes the first open-loop requests in the order sent,
	// so that its counters repeat exactly for a seed.
	open := samplesOf(ps.windows)
	rp := newReplayer(w)
	if err := rp.warm(); err != nil {
		return nil, err
	}
	n := min(w.spec.replay, len(open))
	var latency float64
	tpls := make([]int, n)
	for i := 0; i < n; i++ {
		tpls[i] = open[i].tpl
		dig, err := rp.replay(i, tpls[i])
		if err == nil && dig != v.exp[tpls[i]].digest {
			err = fmt.Errorf("replayed request %d differs from the reference", i)
		}
		if err != nil {
			return nil, err
		}
		latency += ms(open[i].latency())
	}
	c, err := rp.count(tpls)
	if err != nil {
		return nil, err
	}
	path, err := rp.rec.write(rc.outDir, w.spec.name, w.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# spans: %s (%d spans, %d requests replayed)\n", path, len(rp.rec.spans), n)

	vals := layerMillis(rp.rec, n)
	vals["http.other_ms"] = latency/float64(n) - sumLayerMillis(vals)
	if vals["http.other_ms"] < 0 {
		// The layers took longer in-process than the daemon took for the
		// whole request: a layer is mismeasured, or the machine was slower
		// during the replay than during the open loop.
		fmt.Printf("# warning: layer means add up to %.3f ms, more than the mean latency %.3f ms\n",
			sumLayerMillis(vals), latency/float64(n))
	}
	op := summarizeOpen(ps.windows, v.ok)
	var reqBytes, respBytes float64
	for i := range open {
		reqBytes += float64(w.templates[open[i].tpl].size)
		respBytes += float64(open[i].size)
	}
	vals["service.request_kb"] = reqBytes / float64(len(open)) / 1024
	vals["service.response_kb"] = respBytes / float64(len(open)) / 1024
	vals["service.cache_hit_ratio"] = plain.Cache.HitRatio
	vals["service.rejected"] = float64(plain.Queue.Rejected)
	vals["service.admission_wait_ms"] = traced.StagesMs["admission"].P99
	rps, _ := throughput(v, ps)
	rpsT, _ := throughput(v, psT)
	vals["obs.overhead_frac"] = 1 - rpsT/rps
	vals["loadgen.lag_p99_ms"] = op.lagP99
	vals["loadgen.backlog_end"] = float64(op.backlog)
	vals["loadgen.gen_s"] = w.genTime.Seconds()
	vals["experiments.cellgen_s"] = 0
	vals["experiments.solve_busy_s"] = 0
	c.fill(vals)

	res := &result{Correct: t.mismatched == 0, Attempted: t.attempted, Failed: t.failed}
	return res, res.fill(perLayer, vals)
}

// layerMillis is each layer's mean self time per replayed request.
func layerMillis(rec *recorder, n int) map[string]float64 {
	tot := rec.layerTotals()
	vals := make(map[string]float64, len(perLayer))
	for _, name := range layerSpans {
		vals[name+"_ms"] = tot[name] / 1000 / float64(n)
	}
	return vals
}

// sumLayerMillis adds the layer self times of vals.
func sumLayerMillis(vals map[string]float64) float64 {
	var s float64
	for _, name := range layerSpans {
		s += vals[name+"_ms"]
	}
	return s
}

// fill sets the counter metrics: mapper counts per solve, repair counts
// per replan, wakes per synchronous run.
func (c *counters) fill(vals map[string]float64) {
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	vals["mapper.trials"] = per(float64(c.trials), c.solves)
	vals["mapper.placements"] = per(float64(c.placements), c.solves)
	vals["mapper.rollbacks"] = per(float64(c.rollbacks), c.solves)
	vals["mapper.fallbacks"] = per(float64(c.falls), c.solves)
	vals["mapper.placement_ratio"] = 0
	if c.trials > 0 {
		vals["mapper.placement_ratio"] = float64(c.placements) / float64(c.trials)
	}
	vals["repair.replayed_frac"] = per(float64(c.replayed), c.tasks)
	vals["repair.repaired"] = per(float64(c.repaired), c.replans)
	vals["repair.cold_fallbacks"] = float64(c.coldFallbacks)
	vals["sim.wakes"] = per(float64(c.wakes), c.syncRuns)
}
