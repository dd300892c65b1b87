package service

// Prometheus text exposition (format version 0.0.4) for the /metrics
// snapshot, hand-rolled: the format is a dozen lines of printf and the
// repo takes no dependencies. Families are emitted in a fixed order and
// every label set within a family is sorted, so consecutive scrapes of an
// idle server are byte-identical — diffable in tests and in incident
// tooling.
//
// Name mapping (DESIGN.md §12): every family is prefixed streamsched_.
// Counters keep Prometheus' _total suffix; latency windows become
// pseudo-summaries — streamsched_request_latency_ms{quantile="0.5"} etc.
// plus _count — with the caveat (stated in the HELP text) that quantiles
// describe the recent ring window, not the process lifetime.

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// wantsPrometheus decides the /metrics representation. The explicit query
// parameter wins; otherwise an Accept header that mentions text/plain and
// not application/json (Prometheus sends "text/plain;version=0.0.4" with
// other text forms) selects the exposition format.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

// promWriter accumulates one exposition document.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// scalar emits a family of one unlabeled sample.
func (p *promWriter) scalar(name, help, typ string, v float64) {
	p.family(name, help, typ)
	p.sample(name, "", v)
}

// sample emits one sample line; labels must be pre-rendered ("" for none).
func (p *promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	// %g keeps integers integral (no trailing .0) and floats compact.
	fmt.Fprintf(&p.b, "%s%s %g\n", name, labels, v)
}

// labeledCounter emits a counter family whose samples carry one label,
// with the label values sorted for determinism.
func (p *promWriter) labeledCounter(name, help, label string, m map[string]int64) {
	p.family(name, help, "counter")
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.sample(name, fmt.Sprintf("%s=%q", label, k), float64(m[k]))
	}
}

// quantiles emits one LatencyStats window of a pseudo-summary family:
// quantile samples plus a _count, under labels ("" for none). No _sum —
// the ring keeps no running total, and a fabricated one would make
// rate(_sum)/rate(_count) silently wrong.
func (p *promWriter) quantiles(name, labels string, l LatencyStats) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	p.sample(name, labels+sep+`quantile="0.5"`, l.P50)
	p.sample(name, labels+sep+`quantile="0.9"`, l.P90)
	p.sample(name, labels+sep+`quantile="0.99"`, l.P99)
	p.sample(name, labels+sep+`quantile="1"`, l.Max)
	p.sample(name+"_count", labels, float64(l.Count))
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// renderPrometheus turns a metrics snapshot into the text exposition
// document.
func renderPrometheus(s MetricsSnapshot) []byte {
	var p promWriter

	p.scalar("streamsched_uptime_seconds", "Seconds since the handle started.", "gauge", s.UptimeSeconds)

	p.labeledCounter("streamsched_requests_total", "HTTP requests by endpoint.", "endpoint", s.Requests)
	p.labeledCounter("streamsched_responses_total", "HTTP responses by status code.", "code", s.Responses)

	p.scalar("streamsched_solve_calls_total", "Underlying solver invocations.", "counter", float64(s.SolveCalls))
	p.scalar("streamsched_sim_runs_total", "Scenario simulations executed.", "counter", float64(s.SimRuns))
	p.scalar("streamsched_coalesced_total", "Requests served by piggybacking on an in-flight solve.", "counter", float64(s.Coalesced))
	p.scalar("streamsched_panics_total", "Flight panics recovered to 500s.", "counter", float64(s.Panics))

	p.scalar("streamsched_snapshot_writes_total", "Cache spills committed to disk.", "counter", float64(s.SnapshotWrites))
	p.scalar("streamsched_snapshot_replayed_total", "Cache entries restored by warm start.", "counter", float64(s.SnapshotReplayed))
	p.scalar("streamsched_snapshot_skipped_total", "Snapshot entries rejected during replay.", "counter", float64(s.SnapshotSkipped))

	p.scalar("streamsched_draining", "1 while the handle is draining, else 0.", "gauge", boolGauge(s.Draining))

	p.scalar("streamsched_cache_hits_total", "Result cache hits.", "counter", float64(s.Cache.Hits))
	p.scalar("streamsched_cache_misses_total", "Result cache misses.", "counter", float64(s.Cache.Misses))
	p.scalar("streamsched_cache_entries", "Result cache occupancy.", "gauge", float64(s.Cache.Entries))
	p.scalar("streamsched_cache_capacity", "Result cache capacity.", "gauge", float64(s.Cache.Capacity))

	p.scalar("streamsched_queue_depth", "Admitted work units waiting for a worker slot.", "gauge", float64(s.Queue.Depth))
	p.scalar("streamsched_queue_in_flight", "Work units executing.", "gauge", float64(s.Queue.InFlight))
	p.scalar("streamsched_queue_capacity", "Admission bound (workers + queue limit).", "gauge", float64(s.Queue.Capacity))
	p.scalar("streamsched_queue_rejected_total", "Work units rejected by admission (429s).", "counter", float64(s.Queue.Rejected))

	p.family("streamsched_request_latency_ms", "Request latency; quantiles describe the recent ring window.", "summary")
	p.quantiles("streamsched_request_latency_ms", "", s.LatencyMs)

	if len(s.StagesMs) > 0 {
		stages := make([]string, 0, len(s.StagesMs))
		for name := range s.StagesMs {
			stages = append(stages, name)
		}
		sort.Strings(stages)
		p.family("streamsched_stage_latency_ms",
			"Per-pipeline-stage latency (traced requests only); quantiles describe the recent ring window.", "summary")
		for _, name := range stages {
			p.quantiles("streamsched_stage_latency_ms", fmt.Sprintf("stage=%q", name), s.StagesMs[name])
		}
	}

	return []byte(p.b.String())
}
