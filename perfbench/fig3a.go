package main

// fig3a: the paper's Fig. 3a campaign (ε=1, one crash) at reduced scale,
// through experiments.Run in-process. Each timed campaign runs in a fresh
// child process, so it starts from an empty cell cache.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"streamsched/internal/experiments"
	"streamsched/internal/obs"
)

// fig3aConfig is the campaign of a seed: all ten granularity points of
// Fig. 3a, graphsPerPoint graphs each, on nproc workers.
func fig3aConfig(sp *spec, seed uint64) experiments.Config {
	cfg := experiments.DefaultConfig(1, 1)
	cfg.GraphsPerPoint = sp.graphsPerPoint
	cfg.Seed = seed
	cfg.Workers = runtime.NumCPU()
	return cfg
}

// pointsKey renders campaign points for exact comparison (%v prints
// every float in its shortest round-tripping form, NaN included).
func pointsKey(pts []experiments.Point) string { return fmt.Sprintf("%v", pts) }

// campaignOut is a child campaign's report.
type campaignOut struct {
	ReadyUnixNano int64   `json:"readyUnixNano"`
	CampaignS     float64 `json:"campaignS"`
	PeakRSSMiB    float64 `json:"peakRssMiB"`
	Points        string  `json:"points"`
}

// campaignMain is the child: one cold campaign, timed.
func campaignMain(args []string) int {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	seed := fs.Uint64("seed", defaultSeed, "campaign seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, _ := lookupSpec("fig3a")
	cfg := fig3aConfig(sp, *seed)
	out := campaignOut{ReadyUnixNano: time.Now().UnixNano()}
	start := time.Now()
	pts, err := experiments.Run(context.Background(), cfg)
	out.CampaignS = time.Since(start).Seconds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench campaign:", err)
		return 1
	}
	out.Points = pointsKey(pts)
	if out.PeakRSSMiB, err = vmHWM(os.Getpid()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench campaign:", err)
		return 1
	}
	json.NewEncoder(os.Stdout).Encode(out)
	return 0
}

// campaignStats are sched_latency_periods and feasible_ratio of a
// campaign: the share of its (cell, algorithm) solves that got a schedule
// and the mean LatencyBound/Period over the schedules of the cells where
// FF, LTF and R-LTF all succeeded.
func campaignStats(cfg experiments.Config, pts []experiments.Point) (feasible, periods float64) {
	period := cfg.PeriodBase * float64(cfg.Eps+1)
	var fails, n int
	for _, pt := range pts {
		fails += pt.LTFFail + pt.RLTFFail + pt.FFFail
		if pt.N == 0 {
			continue
		}
		n += pt.N
		periods += float64(pt.N) * (pt.LTFBound/period + pt.RLTFBound/period + pt.FFBound/cfg.PeriodBase)
	}
	solves := 3 * len(cfg.Granularities) * cfg.GraphsPerPoint
	feasible = 1 - float64(fails)/float64(solves)
	if n > 0 {
		periods /= float64(3 * n)
	}
	return feasible, periods
}

// coldCampaign runs one campaign in a child process, so it starts from an
// empty cell cache, and returns its report and set-up time.
func coldCampaign(exe string, seed uint64) (campaignOut, float64, error) {
	var o campaignOut
	t0 := time.Now()
	cmd := exec.Command(exe, "campaign", "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	b, err := cmd.Output()
	if err != nil {
		return o, 0, fmt.Errorf("campaign: %w", err)
	}
	if err := json.Unmarshal(b, &o); err != nil {
		return o, 0, fmt.Errorf("campaign output: %w", err)
	}
	return o, float64(o.ReadyUnixNano-t0.UnixNano()) / 1e9, nil
}

// runFig3a is an untraced fig3a run: cold campaigns in child processes
// for --seconds and at least three, longer (up to 1.25 × --seconds) until
// three are calm, each checked against an in-process reference campaign
// of the same seed.
func runFig3a(rc runConfig) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	const minCampaigns = 3
	var outs []campaignOut
	var setup, steal []float64
	start := time.Now()
	for {
		elapsed := time.Since(start).Seconds()
		if len(outs) >= minCampaigns && elapsed >= rc.seconds && (countCalm(steal) >= minCampaigns || elapsed >= 1.25*rc.seconds) {
			break
		}
		st0, t0 := stealTicks(), time.Now()
		o, setupS, err := coldCampaign(exe, rc.seed)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
		setup = append(setup, setupS)
		steal = append(steal, stealShare(st0, time.Since(t0)))
	}
	// The timed campaigns are the calm ones, at least minCampaigns.
	var camp, rss, setupT []float64
	for _, i := range calmFirst(steal)[:max(countCalm(steal), minCampaigns)] {
		camp = append(camp, outs[i].CampaignS)
		rss = append(rss, outs[i].PeakRSSMiB)
		setupT = append(setupT, setup[i])
	}

	cfg := fig3aConfig(rc.spec, rc.seed)
	ref, err := experiments.Run(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	want := pointsKey(ref)
	failed := 0
	for _, o := range outs {
		if o.Points != want {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d campaigns differ from the reference\n", failed, len(outs))
	}
	feasible, periods := campaignStats(cfg, ref)
	solves := 3 * len(cfg.Granularities) * cfg.GraphsPerPoint
	var all []float64
	for _, o := range outs {
		all = append(all, o.CampaignS)
	}
	fmt.Printf("# fig3a seed %d: %d cold campaigns of %d cells, %d timed; steal %% of each: %s (over %.1f: disturbed)\n",
		rc.seed, len(outs), solves/3, len(camp), stealNote(steal), 100*maxSteal)
	fmt.Printf("# campaign seconds: %s\n", strings.Trim(fmt.Sprint(all), "[]"))
	res := &result{Correct: failed == 0, Attempted: len(outs), Failed: failed}
	return res, res.fill(endToEnd, map[string]float64{
		"setup_s":               median(setupT),
		"throughput_rps":        float64(solves) / median(camp),
		"latency_p50_ms":        1000 * median(camp),
		"latency_p99_ms":        1000 * upperQuartile(camp),
		"success_ratio":         1 - float64(failed)/float64(len(outs)),
		"sched_latency_periods": periods,
		"feasible_ratio":        feasible,
		"campaign_s":            median(camp),
		"peak_rss_mb":           median(rss),
	})
}

// upperQuartile is the upper quartile of a few values, interpolated
// between the two order statistics around rank 1 + ¾(n−1). A run times
// three to five campaigns, too few for a nearest-rank tail other than the
// slowest one, which one slow moment of the machine decides.
func upperQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := 0.75 * float64(len(s)-1)
	i := int(r)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (r-float64(i))*(s[i+1]-s[i])
}

// runFig3aTraced is a traced fig3a run. Cell generation is the median
// cold campaign (child processes) less the median warm one (this process,
// after a first campaign has filled its cell cache). Then a campaign runs
// on one worker with an obs trace attached, whose solver spans give the
// per-algorithm solve time and the mapper counters. One worker keeps the
// spans in request order — FF, LTF, R-LTF per cell — which is how FF's
// spans (named rltf, as FF is R-LTF without replication) are told apart.
func runFig3aTraced(rc runConfig) (*result, error) {
	const reps = 3
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfg := fig3aConfig(rc.spec, rc.seed)
	ctx := context.Background()
	cold, err := experiments.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	want := pointsKey(cold)
	failed := 0
	var coldS, warmS []float64
	for i := 0; i < reps; i++ {
		o, _, err := coldCampaign(exe, rc.seed)
		if err != nil {
			return nil, err
		}
		coldS = append(coldS, o.CampaignS)
		t0 := time.Now()
		warm, err := experiments.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		warmS = append(warmS, time.Since(t0).Seconds())
		if o.Points != want {
			failed++
		}
		if pointsKey(warm) != want {
			failed++
		}
	}

	one := cfg
	one.Workers = 1
	tr := obs.NewTrace("fig3a")
	var traced []experiments.Point
	withObs(func() { traced, err = experiments.Run(obs.ContextWith(ctx, tr.Root()), one) })
	if err != nil {
		return nil, err
	}

	if pointsKey(traced) != want {
		failed++
	}
	rec, c, busy, err := campaignSpans(tr)
	if err != nil {
		return nil, err
	}
	solves := 3 * len(cfg.Granularities) * cfg.GraphsPerPoint
	if c.solves != solves {
		return nil, fmt.Errorf("campaign trace has %d solver spans, want %d", c.solves, solves)
	}
	path, err := rec.write(rc.outDir, rc.spec.name, rc.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# spans: %s (%d spans)\n", path, len(rec.spans))

	vals := layerMillis(rec, solves)
	for _, k := range []string{
		"http.other_ms", "service.request_kb", "service.response_kb", "service.cache_hit_ratio",
		"service.rejected", "service.admission_wait_ms", "obs.overhead_frac",
		"loadgen.lag_p99_ms", "loadgen.backlog_end", "loadgen.gen_s",
	} {
		vals[k] = 0
	}
	vals["experiments.cellgen_s"] = median(coldS) - median(warmS)
	vals["experiments.solve_busy_s"] = busy
	c.fill(vals)
	res := &result{Correct: failed == 0, Attempted: 2*reps + 1, Failed: failed}
	return res, res.fill(perLayer, vals)
}

// campaignSpans converts the campaign trace's solver spans into recorder
// spans (one request per solve) and counts the mapper work. It returns
// the total solver busy time in seconds.
func campaignSpans(tr *obs.Trace) (*recorder, counters, float64, error) {
	rec := newRecorder()
	var c counters
	var busy float64
	names := [3]string{"ff.solve", "ltf.solve", "rltf.solve"}
	want := [3]string{"rltf", "ltf", "rltf"}
	for _, sp := range tr.Snapshot().Spans {
		if sp.Parent != 0 || (sp.Name != "ltf" && sp.Name != "rltf") {
			continue
		}
		k := c.solves % 3
		if sp.Name != want[k] {
			return nil, c, 0, fmt.Errorf("solver span %d is %q, want %q: campaign request order changed", c.solves, sp.Name, want[k])
		}
		root := len(rec.spans)
		end := sp.StartUs + sp.DurUs
		rec.spans = append(rec.spans,
			span{Name: "request", Req: c.solves, Parent: -1, Start: sp.StartUs, End: end},
			span{Name: names[k], Req: c.solves, Parent: root, Start: sp.StartUs, End: end, Self: sp.DurUs})
		busy += sp.DurUs / 1e6
		c.addPhase(sp.Args)
	}
	return rec, c, busy, nil
}

// withObs runs fn with the obs tracing gate armed.
func withObs(fn func()) {
	obs.Enable()
	defer obs.Disable()
	fn()
}
