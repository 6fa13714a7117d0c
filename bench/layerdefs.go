package main

// perLayerDef fixes one per-layer metric. Layer metrics carry no bound:
// they say where an end-to-end change came from, they do not gate.
type perLayerDef struct {
	Name   string
	Unit   string
	Better string
	// Daemon marks numbers read off the real coraddd at the end of an
	// untraced serve run; the rest come from the traced pass's probes on
	// pinned inputs and are the same set on every workload (the
	// benchmark contract's per_layer list).
	Daemon bool
}

// perLayer lists every per-layer metric, by layer. README.md says which
// end-to-end metric each should move, and on which workload.
var perLayer = []perLayerDef{
	{Name: "ssb.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.new_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.propagate_us", Unit: "us", Better: "lower"},
	{Name: "stats.discover_ms", Unit: "ms", Better: "lower"},
	{Name: "costmodel.estimate_ns", Unit: "ns", Better: "lower"},
	{Name: "costmodel.build_seconds_ns", Unit: "ns", Better: "lower"},
	{Name: "kmeans.run_ms", Unit: "ms", Better: "lower"},
	{Name: "candgen.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "candgen.candidates", Unit: "count", Better: "lower"},
	{Name: "feedback.build_problem_ms", Unit: "ms", Better: "lower"},
	{Name: "feedback.run_ms", Unit: "ms", Better: "lower"},
	{Name: "ilp.solve_proven_ms", Unit: "ms", Better: "lower"},
	{Name: "ilp.nodes_proven", Unit: "count", Better: "lower"},
	{Name: "ilp.solve_capped_ms", Unit: "ms", Better: "lower"},
	{Name: "ilp.nodes_capped", Unit: "count", Better: "lower"},
	{Name: "ilp.objective_capped", Unit: "sim_s", Better: "lower"},
	{Name: "ilp.nodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ilp.unproven_solves", Unit: "count", Better: "lower"},
	{Name: "ilp.greedy_ms", Unit: "ms", Better: "lower"},
	{Name: "ilp.penalized_ms", Unit: "ms", Better: "lower"},
	{Name: "deploy.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "deploy.nodes", Unit: "count", Better: "lower"},
	{Name: "designer.route_us", Unit: "us", Better: "lower"},
	{Name: "designer.materialize_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "designer.materialize_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "designer.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "designer.materialize_smallcache_ms", Unit: "ms", Better: "lower"},
	{Name: "designer.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "storage.project_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.recluster_ms", Unit: "ms", Better: "lower"},
	{Name: "btree.build_ms", Unit: "ms", Better: "lower"},
	{Name: "btree.range_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "cm.build_ms", Unit: "ms", Better: "lower"},
	{Name: "cm.derive_ms", Unit: "ms", Better: "lower"},
	{Name: "cm.design_ms", Unit: "ms", Better: "lower"},
	{Name: "cm.buckets_us", Unit: "us", Better: "lower"},
	{Name: "corridx.build_ms", Unit: "ms", Better: "lower"},
	{Name: "corridx.translate_us", Unit: "us", Better: "lower"},
	{Name: "exec.seqscan_ns_row", Unit: "ns", Better: "lower"},
	{Name: "exec.clustered_ns_row", Unit: "ns", Better: "lower"},
	{Name: "exec.secondary_ns_row", Unit: "ns", Better: "lower"},
	{Name: "exec.cm_ns_row", Unit: "ns", Better: "lower"},
	{Name: "exec.corridx_ns_row", Unit: "ns", Better: "lower"},
	{Name: "exec.best_us", Unit: "us", Better: "lower"},
	{Name: "exec.build_from_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.run_base_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.run_designed_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.fingerprint_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.drift_us", Unit: "us", Better: "lower"},
	{Name: "adapt.process_us", Unit: "us", Better: "lower"},
	{Name: "adapt.redesign_ms", Unit: "ms", Better: "lower"},
	{Name: "adapt.measure_template_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.save_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.load_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.histogram_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.expose_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_doc_us", Unit: "us", Better: "lower"},
	{Name: "server.tcp_overhead_us", Unit: "us", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "server.max_ok_rps", Unit: "1/s", Better: "higher", Daemon: true},
	{Name: "server.late_ms", Unit: "ms", Better: "lower", Daemon: true},
	{Name: "server.drift_p50_ms", Unit: "ms", Better: "lower", Daemon: true},
	{Name: "server.drift_p99_ms", Unit: "ms", Better: "lower", Daemon: true},
	{Name: "server.served", Unit: "count", Better: "higher", Daemon: true},
	{Name: "server.dropped", Unit: "count", Better: "lower", Daemon: true},
	{Name: "server.shed", Unit: "count", Better: "lower", Daemon: true},
	{Name: "server.timeouts", Unit: "count", Better: "lower", Daemon: true},
	{Name: "adapt.redesigns", Unit: "count", Better: "lower", Daemon: true},
	{Name: "adapt.builds_done", Unit: "count", Better: "lower", Daemon: true},
	{Name: "designer.daemon_cache_hits", Unit: "count", Better: "higher", Daemon: true},
}

func layerDef(name string) *perLayerDef {
	for i := range perLayer {
		if perLayer[i].Name == name {
			return &perLayer[i]
		}
	}
	return nil
}
