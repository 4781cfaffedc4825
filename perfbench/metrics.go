package main

// units names every metric perfbench can report with its unit;
// BENCHMARK.json lists the same names and units.
var units = map[string]string{
	// End to end (host time unless noted).
	"setup_s":     "s",
	"run_p50_s":   "s",
	"sim_mips":    "Minstr/s",
	"sweep_s":     "s",
	"hit_p50_ms":  "ms",
	"peak_rss_mb": "MB",

	// Tail latency of a cache hit. It swings with the host's other
	// tenants, so it has no regression bound.
	"hit_p99_ms": "ms",

	// Simulation phases of one run.
	"sim.warmup_functional_s": "s",
	"sim.timed_s":             "s",
	"sim.ns_per_core_cycle":   "ns",

	// Layer seams of the traced machine.
	"workload.instrs":            "count",
	"workload.ns_per_instr":      "ns",
	"workload.time_share":        "fraction",
	"cpu.steps":                  "count",
	"cpu.self_ns_per_step":       "ns",
	"cpu.time_share":             "fraction",
	"hierarchy.calls":            "count",
	"hierarchy.self_ns_per_call": "ns",
	"hierarchy.l1d_hit_frac":     "fraction",
	"hierarchy.l2_hit_frac":      "fraction",
	"hierarchy.time_share":       "fraction",
	"llc.accesses":               "count",
	"llc.ns_per_access":          "ns",
	"llc.miss_frac":              "fraction",
	"llc.remote_hit_frac":        "fraction",
	"llc.time_share":             "fraction",
	"core.repartitions":          "count",

	// Simulated memory channel: a host-speed change leaves these identical.
	"dram.reads":                 "count",
	"dram.writebacks":            "count",
	"dram.queue_cycles_per_read": "cycles",
	"dram.utilization":           "fraction",

	// Warmup checkpoints (sweep forking).
	"sim.checkpoint_bytes":     "bytes",
	"sim.checkpoint_encode_ms": "ms",
	"sim.checkpoint_decode_ms": "ms",

	// Service.
	"serve.queue_wait_ms":     "ms",
	"serve.run_s":             "s",
	"serve.encode_ms":         "ms",
	"serve.cache_commit_ms":   "ms",
	"serve.hit_submit_ms":     "ms",
	"serve.result_get_ms":     "ms",
	"sweep.warmups_run":       "count",
	"sweep.forked_points":     "count",
	"serve.jobs_retried":      "count",
	"serve.cache_quarantined": "count",

	"telemetry.tax_ratio": "ratio",

	// The traced pass itself.
	"trace.wall_s":         "s",
	"trace.overhead_ratio": "ratio",

	// Flat CPU-profile share per package of an untraced run.
	"pprof.cpu.share":       "fraction",
	"pprof.workload.share":  "fraction",
	"pprof.rng.share":       "fraction",
	"pprof.math.share":      "fraction",
	"pprof.hierarchy.share": "fraction",
	"pprof.cache.share":     "fraction",
	"pprof.tlb.share":       "fraction",
	"pprof.bpred.share":     "fraction",
	"pprof.core.share":      "fraction",
	"pprof.llc.share":       "fraction",
	"pprof.dram.share":      "fraction",
	"pprof.sim.share":       "fraction",
	"pprof.serve.share":     "fraction",
	"pprof.telemetry.share": "fraction",
	"pprof.runtime.share":   "fraction",
	"pprof.other.share":     "fraction",
}
