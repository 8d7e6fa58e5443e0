package main

// layerMetric describes one per-layer metric of the traced run: its unit,
// which direction is better, and the end-to-end metric and workload it
// should move. Exact counts repeat bit for bit for a given seed.
type layerMetric struct {
	unit, better, moves string
}

const (
	heavyLatency  = "op_p50_ms on cli-heavy"
	heavyRate     = "op_p50_ms and sim_node_slots_per_s on cli-heavy"
	heavyCPU      = "cpu_ms_per_point on cli-heavy (about 0 on cli-light)"
	lightRate     = "op_p50_ms and cpu_ms_per_point on cli-light"
	exactCount    = "exact count: context for the timings on every workload"
	serveRate     = "points_per_s and op_p90_ms on serve-overlap"
	serveCache    = "points_per_s on serve-overlap"
	serveLatency  = "op_p50_ms on serve-overlap"
	fleetRate     = "op_p50_ms and points_per_s on fleet-sharded"
	tracingItself = "tracing overhead: traced versus untraced points_per_s"
)

var layerMap = map[string]layerMetric{
	"topo.build_ms":                 {"ms", "lower", heavyLatency + " and peak_rss_mb"},
	"sim.compile_ms":                {"ms", "lower", heavyLatency + " and peak_rss_mb"},
	"sim.run_ms":                    {"ms", "lower", heavyRate},
	"sim.run_self_ms":               {"ms", "lower", heavyRate},
	"sim.step_ns_per_slot":          {"ns", "lower", heavyRate},
	"sim.inject_ns_per_msg":         {"ns", "lower", heavyRate},
	"sim.ns_per_active_node_slot":   {"ns", "lower", heavyRate},
	"sim.parallel_slot_ratio":       {"ratio", "lower", heavyCPU},
	"sim.parallel_imbalance_p50_us": {"us", "lower", heavyCPU},
	"workload.generate_ns_per_slot": {"ns", "lower", lightRate},
	"workload.rng_draws":            {"count", "lower", lightRate + " (exact count)"},
	"workload.injections_per_draw":  {"ratio", "higher", lightRate + " (exact)"},
	"sim.slots":                     {"count", "lower", exactCount},
	"sim.active_node_slots":         {"count", "lower", exactCount},
	"sim.touched_coupler_slots":     {"count", "lower", exactCount},
	"sim.injected":                  {"count", "higher", exactCount},
	"sim.delivered":                 {"count", "higher", exactCount},
	"sim.dropped":                   {"count", "lower", exactCount},
	"sim.deflections":               {"count", "lower", exactCount},
	"sim.queue_depth_p50":           {"msgs", "lower", exactCount},
	"sim.queue_depth_p99":           {"msgs", "lower", exactCount},
	"sim.batch_replicas_mean":       {"replicas", "higher", exactCount},
	"sweep.fingerprint_ms":          {"ms", "lower", serveLatency},
	"sweep.points_expand_ms":        {"ms", "lower", serveRate},
	"sweep.cachekey_us":             {"us", "lower", serveRate},
	"sweep.runcached_ms":            {"ms", "lower", serveRate},
	"sweep.runcached_self_ms":       {"ms", "lower", serveRate},
	"sweep.aggregate_ms":            {"ms", "lower", serveRate},
	"sweep.pool_utilization":        {"ratio", "higher", serveRate},
	"sweep.batch_points_mean":       {"points", "higher", serveRate + " (exact)"},
	"sweep.points_computed":         {"count", "lower", serveRate + " (exact count)"},
	"sweep.points_cached":           {"count", "higher", serveRate + " (exact count)"},
	"sweepcache.open_ms":            {"ms", "lower", "setup_s on serve-overlap"},
	"sweepcache.lookup_us":          {"us", "lower", serveCache},
	"sweepcache.store_us":           {"us", "lower", serveCache},
	"sweepcache.hits":               {"count", "higher", serveCache + " (exact count)"},
	"sweepcache.misses":             {"count", "lower", serveCache + " (exact count)"},
	"sweepcache.stores":             {"count", "lower", serveCache + " (exact count)"},
	"sweepcache.hit_ratio":          {"ratio", "higher", serveCache + " (exact)"},
	"server.submit_ms":              {"ms", "lower", serveLatency},
	"server.first_row_ms":           {"ms", "lower", serveLatency},
	"server.stream_ms":              {"ms", "lower", serveLatency},
	"server.curve_ms":               {"ms", "lower", serveLatency},
	"server.bytes_per_point":        {"bytes", "lower", serveLatency},
	"coord.acquire_ms":              {"ms", "lower", fleetRate},
	"coord.acquire_empty_ratio":     {"ratio", "lower", fleetRate},
	"coord.renew_ms":                {"ms", "lower", fleetRate},
	"coord.complete_ms":             {"ms", "lower", fleetRate},
	"coord.heartbeat_ms":            {"ms", "lower", fleetRate},
	"coord.lease_wait_ms":           {"ms", "lower", fleetRate},
	"coord.merge_ms":                {"ms", "lower", fleetRate},
	"coord.leases_granted":          {"count", "lower", fleetRate + " (exact count)"},
	"coord.leases_stolen":           {"count", "lower", fleetRate + " (exact count)"},
	"coord.leases_expired":          {"count", "lower", fleetRate + " (exact count)"},
	"coord.completions_stale":       {"count", "lower", fleetRate + " (exact count)"},
	"worker.points_per_shard":       {"points", "higher", fleetRate + " (exact)"},
	"trace.points_per_s":            {"1/s", "higher", tracingItself},
	"trace.spans":                   {"count", "lower", tracingItself},
	"trace.span_ns":                 {"ns", "lower", tracingItself},
	"trace.overhead_share":          {"ratio", "lower", tracingItself},
}
