package main

// The metrics a run prints, with their units. BENCHMARK.json at the
// root of the repository lists the same names and units; a test keeps
// the two in step. A workload that does not exercise a layer prints 0
// for that layer's metrics.

// endToEnd is what an untraced run (--trace 0) prints.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"rss_mb", "MB"},
}

// perLayer is what a traced run (--trace 1) prints.
var perLayer = []metricSpec{
	// Self CPU seconds per op by leaf frame (profile.go).
	{"cache.self_s", "s"},
	{"runtime.memmove_s", "s"},
	{"machine.self_s", "s"},
	{"kernel.self_s", "s"},
	{"jvm.self_s", "s"},
	{"heap.self_s", "s"},
	{"workloads.self_s", "s"},
	{"objmodel.self_s", "s"},
	{"runtime.malloc_s", "s"},
	{"runtime.gc_s", "s"},
	{"runtime.memclr_s", "s"},
	{"memdev.self_s", "s"},
	{"policy.self_s", "s"},
	{"core.self_s", "s"},
	{"trace.self_s", "s"},
	{"runtime.map_s", "s"},
	{"estimate.self_s", "s"},
	{"autotune.self_s", "s"},
	{"store.self_s", "s"},
	{"json.self_s", "s"},
	{"serve.self_s", "s"},
	{"obs.self_s", "s"},
	{"bench.self_s", "s"},
	{"other.self_s", "s"},
	{"cache.ns_per_access", "ns"},
	// The emulator's own spans, and counts read from Results.
	{"core.plan_s", "s"},
	{"core.execute_s", "s"},
	{"core.emulate_self_s", "s"},
	{"policy.quantum_s", "s"},
	{"policy.quanta", "count"},
	{"policy.pages_migrated", "count"},
	{"facade.accesses_per_s", "1/s"},
	{"jvm.mutator_accesses", "count"},
	{"jvm.alloc_objects", "count"},
	{"jvm.gcs", "count"},
	{"memdev.lines", "count"},
	{"memdev.lines_per_access", "ratio"},
	{"kernel.zeroed_pages", "count"},
	{"machine.qpi_lines", "count"},
	// Spans around ServeHTTP per request class, and the probed entry
	// points beneath the server.
	{"serve.sweep_s", "s"},
	{"serve.run_estimate_s", "s"},
	{"serve.run_exact_s", "s"},
	{"serve.autotune_s", "s"},
	{"serve.trace_get_s", "s"},
	{"serve.results_s", "s"},
	{"serve.op_p99_s", "s"},
	{"trace.replay_s", "s"},
	{"trace.decode_s", "s"},
	{"estimate.answer_s", "s"},
	{"autotune.grid_s", "s"},
	{"store.open_s", "s"},
	{"store.append_s", "s"},
	{"store.get_s", "s"},
	{"store.list_s", "s"},
	{"library.open_s", "s"},
	{"library.put_s", "s"},
	{"library.get_s", "s"},
	{"setup.record_s", "s"},
	{"setup.exact_s", "s"},
	// The server's metrics registry, per op of the traced window.
	{"estimate.hits", "count"},
	{"estimate.misses", "count"},
	{"estimate.loads", "count"},
	// Pages by which set-up's same-policy estimates miss the measured
	// residency histogram: 0 once the estimate tier prices it exactly.
	{"estimate.residency_gap_pages", "count"},
	{"jobs.hits", "count"},
	{"jobs.misses", "count"},
	{"serve.rejected", "count"},
	{"serve.admission_wait_s", "s"},
	// The traced run's cost: the untraced and traced halves' rates.
	{"tracing.untraced_ops_per_s", "1/s"},
	{"tracing.traced_ops_per_s", "1/s"},
	{"tracing.overhead", "ratio"},
}

type metricSpec struct{ Name, Unit string }

// only keeps exactly the listed metrics, with the listed units; a
// listed metric the run did not produce reads 0.
func only(specs []metricSpec, m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.Name] = metric{m[s.Name].Value, s.Unit}
	}
	return out
}
