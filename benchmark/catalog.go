package main

import "repro/internal/dfm"

// metricDef is one named metric of the benchmark. BENCHMARK.json lists
// the same names, units, directions and bounds; a test keeps the two
// in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd are reported on every workload, from passes with tracing
// off. failed_share, the sixth number printed with them, is carried by
// the result's attempted and failed counts instead: it is 0 on correct
// code, and a bound that is a share of 0 bounds nothing.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_gb", "GB", "lower", 0.15},
	{"peak_heap_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are reported by the traced run. Counts and ratios repeat
// exactly between two traced runs of the same build.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{name: "layout.generate_s", unit: "s"},
		{name: "layout.rects", unit: "count"},
		{name: "tiling.extractor_build_s", unit: "s"},
		{name: "tiling.extract_s", unit: "s"},
		{name: "tiling.extract_amplification", unit: "ratio"},
		{name: "tiling.key_hash_s", unit: "s"},
		{name: "tiling.execute_tile_s", unit: "s"},
		{name: "tiling.units", unit: "count"},
		{name: "tiling.units_computed", unit: "count"},
		{name: "tiling.tile_hit_ratio", unit: "ratio", better: "higher"},
		{name: "tiling.self_s", unit: "s"},
		{name: "tiling.warm_replay_s", unit: "s"},
		{name: "tiling.nocache_s", unit: "s"},
		{name: "tiling.delta_p50_ms", unit: "ms"},
		{name: "tiling.delta_max_ms", unit: "ms"},
		{name: "tiling.delta_spliced_ratio", unit: "ratio", better: "higher"},
		{name: "tiling.delta_vs_full", unit: "ratio", better: "higher"},
		{name: "tiling.wire_encode_s", unit: "s"},
		{name: "tiling.wire_decode_s", unit: "s"},
		{name: "tiling.wire_request_mb", unit: "MB"},
		{name: "geom.normalize_s", unit: "s"},
		{name: "geom.sweep_events", unit: "count"},
		{name: "geom.sweep_pool_reuse_ratio", unit: "ratio", better: "higher"},
		{name: "drc.deck_s", unit: "s"},
		{name: "drc.tile_p50_ms", unit: "ms"},
		{name: "drc.tile_max_ms", unit: "ms"},
		{name: "drc.density_s", unit: "s"},
		{name: "drc.violations", unit: "count"},
		{name: "litho.scan_window_s", unit: "s"},
		{name: "litho.window_p50_ms", unit: "ms"},
		{name: "litho.window_max_ms", unit: "ms"},
		{name: "litho.windows_computed", unit: "count"},
		{name: "litho.window_hit_ratio", unit: "ratio", better: "higher"},
		{name: "litho.window_alloc_mb", unit: "MB"},
		{name: "litho.pool_reuse_ratio", unit: "ratio", better: "higher"},
		{name: "litho.blur_dense_share", unit: "ratio"},
		{name: "client.unit_p50_ms", unit: "ms"},
		{name: "client.unit_tail_ms", unit: "ms"},
		{name: "client.cached_unit_p50_ms", unit: "ms"},
		{name: "router.added_p50_ms", unit: "ms"},
		{name: "router.retries", unit: "count"},
		{name: "router.failovers", unit: "count"},
		{name: "router.tile_reused_ratio", unit: "ratio", better: "higher"},
		{name: "server.key_s", unit: "s"},
		{name: "server.cache_hit_ratio", unit: "ratio", better: "higher"},
		{name: "server.deduped", unit: "count"},
		{name: "server.shed", unit: "count"},
		{name: "server.e2e_p50_ms", unit: "ms"},
		{name: "harness.queue_wait_p50_ms", unit: "ms"},
		{name: "repair.legality_s", unit: "s"},
		{name: "repair.apply_s", unit: "s"},
		{name: "repair.score_s", unit: "s"},
		{name: "repair.propose_s", unit: "s"},
		{name: "repair.fixes_applied", unit: "count", better: "higher"},
		{name: "repair.fixes_rejected", unit: "count"},
	}
	for _, name := range dfm.Techniques() {
		ms = append(ms, metricDef{name: "dfm.technique_s." + name, unit: "s"})
	}
	ms = append(ms,
		metricDef{name: "dfm.verdict_hits", unit: "count", better: "higher"},
		metricDef{name: "opc.model_iterations", unit: "count"},
		metricDef{name: "bench.traced_wall_s", unit: "s"},
		metricDef{name: "bench.span_coverage", unit: "ratio", better: "higher"},
	)
	for i := range ms {
		if ms[i].better == "" {
			ms[i].better = "lower"
		}
	}
	return ms
}()
