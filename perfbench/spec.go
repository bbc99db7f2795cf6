package main

// metricSpec describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none. BENCHMARK.json at
// the repository root lists the same metrics (a self-test keeps the two in
// step).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; NOTES.md defines what an operation and a cell are on
// each workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"cpu_ns_per_cell", "ns", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer come from the traced run only. Every traced run reports all of
// them: it drives each layer once, whichever workload it was started for.
var perLayer = []metricSpec{
	{Name: "parallel.enumerate_ms", Unit: "ms", Better: "lower"},
	{Name: "explore.layout_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "explore.sweep_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "explore.rank_ms", Unit: "ms", Better: "lower"},
	{Name: "explore.feasible_ratio", Unit: "ratio", Better: "higher"},
	{Name: "model.batch_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "model.lower_bound_ns", Unit: "ns", Better: "lower"},
	{Name: "plan.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.expanded_ratio", Unit: "ratio", Better: "lower"},
	{Name: "model.point_ns", Unit: "ns", Better: "lower"},
	{Name: "model.infer_point_ns", Unit: "ns", Better: "lower"},
	{Name: "model.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "config.parse_us", Unit: "us", Better: "lower"},
	{Name: "serve.evaluate_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.infer_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.reject_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.local_sweep_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "serve.shard_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "serve.shard_bytes_per_cell", Unit: "B", Better: "lower"},
	{Name: "serve.shard_eval_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.job_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.journal_bytes_per_cell", Unit: "B", Better: "lower"},
	{Name: "serve.shard_retries_per_op", Unit: "count", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// workloads names every workload with the reason it exists. Only the gated
// ones are in BENCHMARK.json. serve-mix is not: on a shared 2-vCPU host its
// figures move by 15-30% whenever other guests are busy, more than the
// largest bound the benchmark may set (NOTES.md). It runs on request, and
// every traced run drives its layers, but no change is judged by it.
var workloads = []struct {
	Name, Why string
	Gated     bool
}{
	{"explore-1m", "in-process ranking and best-cell search over 1.1M cells: model, parallel, explore and plan do all the work", true},
	{"serve-mix", "Zipf-skewed single-point HTTP traffic over 2x the session cache: decode, cache and encode dominate", false},
	{"fleet-1m", "the explore-1m space through a coordinator and 2 peers, sync and durable: fan-out, framing, merge and journal", true},
}
