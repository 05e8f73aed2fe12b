package main

// metricDecl declares one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDecl struct {
	name, unit string
	higher     bool
}

// layerMetrics are reported by every traced run. A metric a workload does
// not exercise (service counters on a solve workload, solver spans on
// decod_open) reads 0.
var layerMetrics = []metricDecl{
	{"wlog.parse_ms", "ms", false},
	{"estimate.table_ms", "ms", false},
	{"probir.compile_ms", "ms", false},
	{"probir.prolog_compile_ms", "ms", false},
	{"opt.compile_ms", "ms", false},
	{"opt.search_ms", "ms", false},
	{"opt.search_self_ms", "ms", false},
	{"opt.states", "count", true},
	{"opt.levels", "count", true},
	{"opt.states_per_s", "1/s", true},
	{"opt.cost_fn_ms", "ms", false},
	{"opt.cost_fn_calls", "count", false},
	{"opt.cost_fn_calls_per_state", "ratio", false},
	{"opt.final_pack_ms", "ms", false},
	{"opt.delta_evals", "count", true},
	{"opt.full_evals", "count", false},
	{"opt.delta_fallbacks", "count", false},
	{"opt.delta_ratio", "ratio", true},
	{"opt.cone_plan_hits", "count", true},
	{"opt.parent_completions", "count", false},
	{"opt.snapshot_evictions", "count", false},
	{"opt.phase.kernel_build_cpu_s", "s", false},
	{"opt.phase.chunk_eval_cpu_s", "s", false},
	{"opt.phase.racing_cpu_s", "s", false},
	{"opt.phase.snapshot_put_cpu_s", "s", false},
	{"opt.phase.other_cpu_s", "s", false},
	{"sample.worlds_run", "count", false},
	{"sample.worlds_saved", "count", true},
	{"sample.worlds_saved_frac", "ratio", true},
	{"sample.worlds_reordered", "count", true},
	{"device.cpu_util", "ratio", true},
	{"device.speedup_vs_sequential", "ratio", true},
	{"gc.alloc_mb_per_solve", "MiB", false},
	{"gc.cycles", "count", false},
	{"gc.pause_ms", "ms", false},
	{"prolog.error_solves", "count", false},
	{"service.queue_wait_ms.p50", "ms", false},
	{"service.queue_wait_ms.tail", "ms", false},
	{"service.run_ms.p50", "ms", false},
	{"service.client_overhead_ms.p50", "ms", false},
	{"service.plan_cache_hit_ratio", "ratio", true},
	{"service.eval_cache_hit_ratio", "ratio", true},
	{"service.coalesced", "count", true},
	{"service.solves", "count", false},
	{"service.rejected", "count", false},
	{"service.worker_util", "ratio", false},
	{"cluster.forwards", "count", false},
	{"cluster.forward_failures", "count", false},
	{"cluster.forward_hedged", "count", false},
	{"cluster.cross_shard_hits", "count", true},
	{"loadgen.late_ms.max", "ms", false},
	{"loadgen.offered_jobs_per_s", "1/s", true},
	{"trace.overhead_frac", "ratio", false},
	{"trace.coverage_frac", "ratio", true},
}

// zeroLayerMetrics returns every per-layer metric at 0, with its unit.
func zeroLayerMetrics() map[string]metric {
	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = metric{0, lm.unit}
	}
	return m
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []metricDecl{
	{"ops_per_s", "1/s", true},
	{"latency_ms.p50", "ms", false},
	{"latency_ms.tail", "ms", false},
	{"plan_cost_usd.mean", "USD", false},
	{"plan_makespan_s.mean", "s", false},
	{"feasible_frac", "ratio", true},
	{"ok_frac", "ratio", true},
	{"setup_s", "s", false},
	{"peak_heap_mb", "MiB", false},
}
