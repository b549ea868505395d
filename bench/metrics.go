package main

// metricDef is one line of BENCHMARK.json's end_to_end or per_layer list.
// The test in this package holds BENCHMARK.json to these tables.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are reported by every workload's untraced pass. Bound is
// the share of the parent's median by which the metric may get worse.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"windows_per_s", "1/s", "higher", 0.15},
	{"step_ms_mid", "ms", "lower", 0.20},
	{"step_ms_tail", "ms", "lower", 0.25},
	{"alloc_mb_per_window", "MB", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"checkpoint_s", "s", "lower", 0.20},
	{"restore_s", "s", "lower", 0.20},
	{"utility_per_window", "USD", "higher", 0.003},
}

// perLayerMetrics are reported by every workload's traced pass; a metric
// whose layer a workload does not reach reads 0 there.
var perLayerMetrics = []metricDef{
	{Name: "scenario.step_self_us", Unit: "us", Better: "lower"},
	{Name: "scenario.busy_windows", Unit: "count", Better: "lower"},
	{Name: "scenario.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "strategy.decide_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "strategy.decide_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "strategy.decide_share", Unit: "ratio", Better: "lower"},
	{Name: "strategy.invocations", Unit: "count", Better: "lower"},
	{Name: "strategy.plan_actions", Unit: "count", Better: "lower"},
	{Name: "core.search_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search_us_per_expansion", Unit: "us", Better: "lower"},
	{Name: "core.expansions", Unit: "count", Better: "lower"},
	{Name: "core.generated", Unit: "count", Better: "lower"},
	{Name: "core.generated_per_expansion", Unit: "ratio", Better: "lower"},
	{Name: "core.search_allocs_per_expansion", Unit: "count", Better: "lower"},
	{Name: "core.search_sim_s_mean", Unit: "s", Better: "lower"},
	{Name: "core.perfpwr_ms", Unit: "ms", Better: "lower"},
	{Name: "core.eval_calls", Unit: "count", Better: "lower"},
	{Name: "core.eval_hit_pct", Unit: "%", Better: "higher"},
	{Name: "core.steady_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "core.steady_miss_us", Unit: "us", Better: "lower"},
	{Name: "lqn.evaluate_us", Unit: "us", Better: "lower"},
	{Name: "lqn.evaluate_allocs", Unit: "count", Better: "lower"},
	{Name: "cost.predict_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.clone_apply_ns", Unit: "ns", Better: "lower"},
	{Name: "testbed.execute_us_per_action", Unit: "us", Better: "lower"},
	{Name: "testbed.measure_window_us", Unit: "us", Better: "lower"},
	{Name: "testbed.actions_applied", Unit: "count", Better: "lower"},
	{Name: "testbed.actions_failed", Unit: "count", Better: "lower"},
	{Name: "guard.admit_us", Unit: "us", Better: "lower"},
	{Name: "provenance.write_us_per_window", Unit: "us", Better: "lower"},
	{Name: "provenance.bytes_per_window", Unit: "count", Better: "lower"},
	{Name: "obs.metrics_get_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.ops_get_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.query_get_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.observer_tax_pct", Unit: "%", Better: "lower"},
	{Name: "checkpoint.write_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.read_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.mb", Unit: "MB", Better: "lower"},
	{Name: "checkpoint.write_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "checkpoint.read_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.state_get_us", Unit: "us", Better: "lower"},
	{Name: "serve.decisions_get_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.spawn_ready_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.restore_post_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.checkpoint_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.poll_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.http_errors", Unit: "count", Better: "lower"},
	{Name: "par.search_speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "runtime.gc_cycles_per_window", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_us_per_window", Unit: "us", Better: "lower"},
	{Name: "runtime.mallocs_per_window", Unit: "count", Better: "lower"},
	{Name: "bench.speed_factor", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}
