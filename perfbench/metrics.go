package main

// Metric registry and the result line. BENCHMARK.json lists the same
// names and units; a self-test keeps the two in step.

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef names one metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0), reported on
// every workload. For fig3a, a batch job, the operation is a whole cold
// campaign: latency_p50_ms/latency_p99_ms are its median and
// upper-quartile campaign and throughput_rps counts the campaign's
// scheduling requests per second; for the service workloads campaign_s is
// the wall time of the fixed closed-loop request campaign.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"success_ratio", "fraction"},
	{"sched_latency_periods", "periods"},
	{"feasible_ratio", "fraction"},
	{"campaign_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run (--trace 1). Each *_ms is the
// mean self time per operation of the replayed sequence, so the *_ms
// values of a service workload plus http.other_ms add up to its mean
// open-loop latency. Metrics of layers a workload does not reach are 0.
var perLayer = []metricDef{
	{"service.decode_ms", "ms"},
	{"service.hash_ms", "ms"},
	{"service.lookup_ms", "ms"},
	{"service.render_ms", "ms"},
	{"service.request_kb", "KiB"},
	{"service.response_kb", "KiB"},
	{"service.cache_hit_ratio", "fraction"},
	{"service.rejected", "count"},
	{"service.admission_wait_ms", "ms"},
	{"obs.overhead_frac", "fraction"},
	{"ltf.solve_ms", "ms"},
	{"rltf.solve_ms", "ms"},
	{"ff.solve_ms", "ms"},
	{"mapper.trials", "count"},
	{"mapper.placements", "count"},
	{"mapper.rollbacks", "count"},
	{"mapper.fallbacks", "count"},
	{"mapper.placement_ratio", "fraction"},
	{"schedule.marshal_ms", "ms"},
	{"repair.replan_ms", "ms"},
	{"repair.replayed_frac", "fraction"},
	{"repair.repaired", "count"},
	{"repair.cold_fallbacks", "count"},
	{"schedule.load_ms", "ms"},
	{"sim.build_ms", "ms"},
	{"sim.run_dataflow_ms", "ms"},
	{"sim.run_sync_ms", "ms"},
	{"sim.wakes", "count"},
	{"experiments.cellgen_s", "s"},
	{"experiments.solve_busy_s", "s"},
	{"http.other_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_end", "count"},
	{"loadgen.gen_s", "s"},
}

// layerSpans are the replay span names whose self time is a *_ms metric.
var layerSpans = []string{
	"service.decode", "service.hash", "service.lookup", "service.render",
	"ltf.solve", "rltf.solve", "ff.solve", "schedule.marshal",
	"repair.replan", "schedule.load",
	"sim.build", "sim.run_dataflow", "sim.run_sync",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill sets the metrics of defs from vals; every name must be present.
func (r *result) fill(defs []metricDef, vals map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return nil
}

func (r *result) line() string {
	b, _ := json.Marshal(r)
	return string(b)
}
