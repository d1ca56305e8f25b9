package main

import (
	"math"
	"sort"

	"vmdeflate/internal/stats"
)

// metric is one catalogue entry: BENCHMARK.json mirrors these tables
// (bench_test.go asserts the two agree), so a name, unit, direction or
// bound changes in exactly one place.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the simulator sees. All are host
// measurements, and each bound is about three times the spread ten runs
// on ten seeds showed on the 2-core dev box (README, "Noise"): the box
// flips between two speeds a quarter apart, which no statistic over a
// 20 s run removes from the wall-clock figures, and the allocation
// figures differ a few percent from seed to seed. The simulated
// statistics are not here: they differ between seeds by more than any
// bound the contract allows and can legitimately be zero, so the result
// digest pins them exactly and they are reported per layer as sim.*.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"arrivals_per_s", "1/s", "higher", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.20},
	{"allocs_per_vm", "count", "lower", 0.10},
	{"alloc_kb_per_vm", "KB", "lower", 0.10},
}

// sweepStrategies are the sweep-grid workload's strategies; metricKey
// names each one's clustersim.strategy_s.* metric ("+" is not a legal
// name character).
var sweepStrategies = []struct{ strategy, metricKey string }{
	{"proportional", "proportional"},
	{"priority", "priority"},
	{"deterministic", "deterministic"},
	{"priority+partitioned", "partitioned"},
	{"preemption", "preemption"},
}

// perLayer are the traced run's metrics, one group per module. A metric
// that does not apply to a workload (the replay on sweep-grid, the
// strategy split elsewhere) is reported as 0 so every run emits every
// name.
var perLayer = func() []metric {
	ms := []metric{
		{name: "trace.build_s", unit: "s", better: "lower"},
		{name: "trace.shocks_s", unit: "s", better: "lower"},
		{name: "trace.vm_params_ns", unit: "ns", better: "lower"},
		{name: "trace.util_sample_ns", unit: "ns", better: "lower"},

		{name: "clustersim.sizing_s", unit: "s", better: "lower"},
		{name: "clustersim.sizing_servers", unit: "count", better: "lower"},
		{name: "clustersim.peak_bound_s", unit: "s", better: "lower"},
		{name: "clustersim.new_engine_s", unit: "s", better: "lower"},
		{name: "clustersim.run_s", unit: "s", better: "lower"},
		{name: "clustersim.self_s", unit: "s", better: "lower"},
	}
	for _, s := range sweepStrategies {
		ms = append(ms, metric{name: "clustersim.strategy_s." + s.metricKey, unit: "s", better: "lower"})
	}
	return append(ms,
		metric{name: "clustersim.sweep_efficiency", unit: "ratio", better: "higher"},

		metric{name: "cluster.provision_s", unit: "s", better: "lower"},
		metric{name: "cluster.place_s", unit: "s", better: "lower"},
		metric{name: "cluster.place_calls", unit: "count", better: "lower"},
		metric{name: "cluster.place_vms", unit: "count", better: "lower"},
		metric{name: "cluster.place_us_p50", unit: "us", better: "lower"},
		metric{name: "cluster.place_us_p99", unit: "us", better: "lower"},
		metric{name: "cluster.place_us_p999", unit: "us", better: "lower"},
		metric{name: "cluster.place_surplus_s", unit: "s", better: "lower"},
		metric{name: "cluster.place_reclaim_s", unit: "s", better: "lower"},
		metric{name: "cluster.reclaim_attempts", unit: "count", better: "lower"},
		metric{name: "cluster.reclaim_failures", unit: "count", better: "lower"},
		metric{name: "cluster.remove_s", unit: "s", better: "lower"},
		metric{name: "cluster.remove_calls", unit: "count", better: "lower"},
		metric{name: "cluster.remove_vms", unit: "count", better: "lower"},
		metric{name: "cluster.revoke_s", unit: "s", better: "lower"},
		metric{name: "cluster.revoke_calls", unit: "count", better: "lower"},
		metric{name: "cluster.evacuated_vms", unit: "count", better: "higher"},
		metric{name: "cluster.evac_killed_vms", unit: "count", better: "lower"},
		metric{name: "cluster.restore_s", unit: "s", better: "lower"},
		metric{name: "cluster.resize_s", unit: "s", better: "lower"},
		metric{name: "cluster.live_vms_peak", unit: "count", better: "lower"},
		metric{name: "cluster.bytes_per_live_vm", unit: "B", better: "lower"},
		metric{name: "cluster.allocs_per_placed_vm", unit: "count", better: "lower"},
		metric{name: "cluster.replay_admitted_delta", unit: "count", better: "lower"},

		metric{name: "hypervisor.define_undefine_ns", unit: "ns", better: "lower"},
		metric{name: "hypervisor.define_allocs", unit: "count", better: "lower"},
		metric{name: "hypervisor.refresh_ns", unit: "ns", better: "lower"},
		metric{name: "capindex.upsert_ns", unit: "ns", better: "lower"},
		metric{name: "capindex.upsert_allocs", unit: "count", better: "lower"},
		metric{name: "policy.targets_ns", unit: "ns", better: "lower"},

		metric{name: "notify.deflate_events", unit: "count", better: "lower"},
		metric{name: "notify.reinflate_events", unit: "count", better: "lower"},
		metric{name: "notify.mean_deflation_pct", unit: "%", better: "lower"},

		metric{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		metric{name: "runtime.gc_cpu_pct", unit: "%", better: "lower"},
		metric{name: "runtime.heap_live_peak_mb", unit: "MB", better: "lower"},

		metric{name: "sim.throughput_loss_pct", unit: "%", better: "lower"},
		metric{name: "sim.failed_vm_pct", unit: "%", better: "lower"},

		metric{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
		metric{name: "bench.calib_ms", unit: "ms", better: "lower"},
		metric{name: "bench.repeats", unit: "count", better: "higher"},
		metric{name: "bench.gomaxprocs", unit: "count", better: "higher"},
	)
}()

// summary is one metric's distribution over a run's repeats (or traced
// passes): what the session file stores and -compare reads.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(unit string, xs []float64) summary {
	if len(xs) == 0 {
		return summary{Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		Unit:   unit,
		Median: stats.PercentileSorted(s, 50),
		Q1:     stats.PercentileSorted(s, 25),
		Q3:     stats.PercentileSorted(s, 75),
		Min:    s[0],
		Max:    s[len(s)-1],
		N:      len(s),
	}
}

// spread is the interquartile range as a share of the median: the same
// quantity the bounds are stated in.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
