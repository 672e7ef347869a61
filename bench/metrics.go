package main

import (
	"sort"
)

// metricDef names one reported number. BENCHMARK.json repeats these
// tables; the package test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd are the numbers a user of the simulator sees, per workload.
// All times are host time; the simulated statistics are checked for
// exactness instead (golden digests, results/*.csv, 25/25 claims) and
// reported through correct/failed, never as a speed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.10},
	{"steps_per_s", "1/s", "higher", 0.10},
	{"sim_s_per_host_s", "s/s", "higher", 0.10},
	{"cells_per_s", "1/s", "higher", 0.10},
	{"alloc_mb", "MB", "lower", 0.05},
}

// perLayer are the numbers of single layers, from the traced run. A
// layer that does no work in a workload reports 0 there.
var perLayer = []metricDef{
	{"models.build_ms", "ms", "lower", 0},
	{"models.savejson_ms", "ms", "lower", 0},
	{"trace.schedule_ms", "ms", "lower", 0},

	{"engine.new_stepper_us", "us", "lower", 0},
	{"engine.step_ns_p50", "ns", "lower", 0},
	{"engine.step_ns_p99", "ns", "lower", 0},
	{"engine.finish_us", "us", "lower", 0},
	{"engine.steps", "count", "higher", 0},
	{"engine.steps_per_s.ca", "1/s", "higher", 0},
	{"engine.steps_per_s.twolm", "1/s", "higher", 0},
	{"engine.steps_per_s.ospage", "1/s", "higher", 0},
	{"engine.steps_per_s.autotm", "1/s", "higher", 0},
	{"engine.steps_per_s.adaptive", "1/s", "higher", 0},

	{"policy.hint_ns", "ns", "lower", 0},
	{"policy.self_ns_per_hint", "ns", "lower", 0},
	{"policy.hints", "count", "higher", 0},
	{"policy.evictions", "count", "lower", 0},
	{"policy.prefetches", "count", "lower", 0},

	{"dm.object_cycle_ns", "ns", "lower", 0},
	{"dm.evictfrom_us", "us", "lower", 0},
	{"dm.defrag_us", "us", "lower", 0},
	{"dm.copies", "count", "lower", 0},

	{"alloc.op_ns", "ns", "lower", 0},
	{"alloc.ops", "count", "higher", 0},
	{"alloc.compact_us", "us", "lower", 0},
	{"alloc.largest_free_ns", "ns", "lower", 0},
	{"alloc.fail_ratio", "ratio", "lower", 0},

	{"memsim.advance_ns", "ns", "lower", 0},
	{"memsim.copy_ns", "ns", "lower", 0},
	{"memsim.devio_ns", "ns", "lower", 0},

	{"twolm.new_ms", "ms", "lower", 0},
	{"twolm.access_us", "us", "lower", 0},
	{"twolm.lines_per_s", "1/s", "higher", 0},
	{"twolm.hit_ratio", "ratio", "higher", 0},

	{"pagemig.access_us", "us", "lower", 0},
	{"pagemig.epoch_ms", "ms", "lower", 0},
	{"pagemig.epochs", "count", "higher", 0},
	{"pagemig.alloc_mb", "MB", "lower", 0},

	{"planner.build_ms", "ms", "lower", 0},

	{"sched.key_us", "us", "lower", 0},
	{"sched.put_us", "us", "lower", 0},
	{"sched.get_us", "us", "lower", 0},
	{"sched.entry_kb", "kB", "lower", 0},
	{"sched.hits", "count", "higher", 0},
	{"sched.misses", "count", "lower", 0},
	{"sched.hit_ratio", "ratio", "higher", 0},
	{"sched.dedup_ratio", "ratio", "higher", 0},
	{"sched.simulations", "count", "lower", 0},
	{"sched.worker_speedup_x", "x", "higher", 0},

	{"cluster.step_ns.n16", "ns", "lower", 0},
	{"cluster.step_ns.n128", "ns", "lower", 0},
	{"cluster.step_ns.n512", "ns", "lower", 0},
	{"cluster.flatness_x", "x", "lower", 0},
	{"cluster.key_us", "us", "lower", 0},
	{"cluster.warm_get_ms.n128", "ms", "lower", 0},
	{"cluster.warm_get_ms.n512", "ms", "lower", 0},
	{"cluster.dispatches", "count", "higher", 0},
	{"cluster.quota_reject_ratio", "ratio", "lower", 0},

	{"tracing.overhead_x", "x", "lower", 0},
	{"tracing.events_per_step", "1/step", "lower", 0},
	{"tracing.verify_ms", "ms", "lower", 0},
	{"tracing.verify_lanes_ms", "ms", "lower", 0},
	{"tracing.jsonl_write_mb_per_s", "MB/s", "higher", 0},
	{"tracing.jsonl_read_mb_per_s", "MB/s", "higher", 0},

	{"metrics.overhead_x", "x", "lower", 0},
	{"metrics.samples", "count", "higher", 0},
	{"metrics.export_ms", "ms", "lower", 0},

	{"invariants.overhead_x", "x", "lower", 0},
	{"invariants.checks", "count", "higher", 0},

	{"experiments.matrix_s", "s", "lower", 0},
	{"experiments.fig3_s", "s", "lower", 0},
	{"experiments.fig7_s", "s", "lower", 0},
	{"experiments.fig7async_s", "s", "lower", 0},
	{"experiments.baselines_s", "s", "lower", 0},
	{"experiments.beyond_s", "s", "lower", 0},
	{"experiments.ablations_s", "s", "lower", 0},
	{"experiments.cxl_s", "s", "lower", 0},
	{"experiments.claims_s", "s", "lower", 0},
	{"experiments.misc_s", "s", "lower", 0},

	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.peak_heap_mb", "MB", "lower", 0},
	{"runtime.mallocs_per_step", "1/step", "lower", 0},
	{"runtime.mutex_wait_s", "s", "lower", 0},

	// Exact simulated statistics: compared for equality, never as a speed.
	{"sim.iter_s", "s", "lower", 0},
	{"sim.slow_write_gb", "GB", "lower", 0},
	{"sim.policy_evictions", "count", "lower", 0},
	{"sim.twolm_hit_ratio", "ratio", "higher", 0},
	{"sim.makespan_s", "s", "lower", 0},

	// The accuracy figures, so every speed is printed beside them.
	{"check.golden_mismatch", "count", "lower", 0},
	{"check.claims_failed", "count", "lower", 0},

	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.span_coverage", "ratio", "higher", 0},
}

// quartiles returns the first quartile, median and third quartile of v
// by the method of Python's statistics.quantiles(v, n=4) (exclusive),
// which is how the benchmark's acceptance spread is computed.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}
