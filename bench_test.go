package vmdeflate

// The perf and ablation benchmarks. The figures of the paper's
// evaluation are claim tests in figures_test.go, not benchmarks.

import (
	"sync"
	"testing"

	"vmdeflate/internal/apps"
	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/trace"
)

// Ablation fixture: a 1,500-VM, two-day Azure-like trace, built once.
var (
	ablationOnce sync.Once
	ablationTr   *trace.AzureTrace
)

func ablationFixture() *trace.AzureTrace {
	ablationOnce.Do(func() {
		cfg := trace.DefaultAzureConfig()
		cfg.NumVMs = 1500
		cfg.Duration = 2 * 86400
		ablationTr = trace.GenerateAzure(cfg)
	})
	return ablationTr
}

// sweepLoss runs one strategy at one overcommitment point, sequentially,
// and returns its throughput loss in percent.
func sweepLoss(b *testing.B, tr *trace.AzureTrace, strategy string, pct float64) float64 {
	b.Helper()
	rs, err := clustersim.SweepGrid(tr, []string{strategy}, []float64{pct}, clustersim.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	return rs[0].Points[0].ThroughputLossPct
}

// --- Cluster-scale sweep engine benchmarks ---

// Sweep fixture: a 10k-VM Azure-like trace with its baseline cluster
// size, built once. This is the scale the parallel sweep layer exists
// for.
var (
	sweepOnce sync.Once
	sweepTr   *trace.AzureTrace
	sweepBase int
)

func sweepFixture(b *testing.B) (*trace.AzureTrace, int) {
	b.Helper()
	sweepOnce.Do(func() {
		cfg := trace.DefaultAzureConfig()
		cfg.NumVMs = 10000
		cfg.Duration = 2 * 86400
		sweepTr = trace.GenerateAzure(cfg)
		n, err := clustersim.BaselineServerCount(sweepTr, clustersim.DefaultServerCapacity())
		if err != nil {
			panic(err)
		}
		sweepBase = n
	})
	return sweepTr, sweepBase
}

// sweepGridBench runs the benchmark grid — two deflation strategies at
// two overcommitment levels, the shape of one Figure 20/21 panel — with
// the given worker count.
func sweepGridBench(b *testing.B, workers int) {
	tr, base := sweepFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := clustersim.SweepGrid(tr,
			[]string{clustersim.StrategyProportional, clustersim.StrategyPriority},
			[]float64{30, 60},
			clustersim.Options{Workers: workers, BaselineServers: base})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rs[0].Points[1].ThroughputLossPct, "prop_loss_pct@60%OC")
	}
}

// BenchmarkSweep10kSequential is the Workers=1 reference point for the
// parallel engine: the identical grid, one run at a time.
func BenchmarkSweep10kSequential(b *testing.B) { sweepGridBench(b, 1) }

// BenchmarkSweep10kParallel fans the same grid out across all cores.
// Results are bit-for-bit those of the sequential run (guarded by
// TestSweepGridParallelMatchesSequential); on >= 4 cores the wall clock
// should drop to roughly the slowest single point, i.e. >= 2x faster
// than sequential.
func BenchmarkSweep10kParallel(b *testing.B) { sweepGridBench(b, 0) }

// BenchmarkDeflationRun10k measures ONE deflation-mode run — the unit
// the capacity index accelerates — at 10k VMs and 50% overcommitment.
// The PR 1 baseline for this run shape was ~4.3 s; the indexed manager
// must hold a >= 5x improvement.
func BenchmarkDeflationRun10k(b *testing.B) {
	tr, base := sweepFixture(b)
	b.ResetTimer()
	var fail float64
	for i := 0; i < b.N; i++ {
		res, err := clustersim.Run(clustersim.Config{
			Trace: tr, Overcommit: 0.5, BaselineServers: base,
		})
		if err != nil {
			b.Fatal(err)
		}
		fail = res.FailureProbability
	}
	b.ReportMetric(fail, "failprob@50%OC")
}

// 100k fixture: a heavy-tail trace at the cloud-scale target, sized by
// the peak-demand bound.
var (
	hundredKOnce sync.Once
	hundredKTr   *trace.AzureTrace
	hundredKBase int
)

func hundredKFixture(b *testing.B) (*trace.AzureTrace, int) {
	b.Helper()
	hundredKOnce.Do(func() {
		tr, err := trace.GenerateScenario(trace.ScenarioConfig{
			Kind: trace.ScenarioHeavyTail, NumVMs: 100000, Duration: 3 * 86400, Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		hundredKTr = tr
		n, err := clustersim.PeakServerLowerBound(tr, clustersim.DefaultServerCapacity())
		if err != nil {
			panic(err)
		}
		hundredKBase = n
	})
	return hundredKTr, hundredKBase
}

// BenchmarkDeflationRun100k is the cloud-scale single-run target the
// capacity index and the zero-allocation policy hot path exist for:
// 100k VMs in one trace, one engine, fully sequential.
func BenchmarkDeflationRun100k(b *testing.B) {
	tr, base := hundredKFixture(b)
	b.ResetTimer()
	var admitted int
	for i := 0; i < b.N; i++ {
		res, err := clustersim.Run(clustersim.Config{
			Trace: tr, Overcommit: 0.5, BaselineServers: base,
		})
		if err != nil {
			b.Fatal(err)
		}
		admitted = res.Admitted
	}
	b.ReportMetric(float64(admitted), "admitted")
}

// BenchmarkScenarioBursty10k exercises the engine on the flash-crowd
// scenario at 10k-VM scale: one proportional-deflation point at 50%
// overcommitment, trace generated fresh each iteration from a fixed
// seed (per-run RNG, as the replicated sweeps use).
func BenchmarkScenarioBursty10k(b *testing.B) {
	var fail float64
	for i := 0; i < b.N; i++ {
		tr, err := trace.GenerateScenario(trace.ScenarioConfig{
			Kind: trace.ScenarioBursty, NumVMs: 10000, Duration: 2 * 86400, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := clustersim.Run(clustersim.Config{Trace: tr, Overcommit: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		fail = res.FailureProbability
	}
	b.ReportMetric(fail, "failprob@50%OC")
}

// BenchmarkScenarioGen100k measures trace synthesis alone at 100k-VM
// scale — the generator must never be the bottleneck of a cloud-scale
// sweep.
func BenchmarkScenarioGen100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := trace.GenerateScenario(trace.ScenarioConfig{
			Kind: trace.ScenarioHeavyTail, NumVMs: 100000, Duration: 3 * 86400, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.VMs) != 100000 {
			b.Fatalf("generated %d VMs", len(tr.VMs))
		}
	}
}

// BenchmarkAblationHybridThreshold ablates the hybrid mechanism's
// switchover point: swap pressure paid when deflating a memory-heavy VM
// to 50% with hybrid (hotplug stops at RSS) vs pure transparent.
func BenchmarkAblationHybridThreshold(b *testing.B) {
	pcts := []float64{45}
	var trRT, hyRT float64
	for i := 0; i < b.N; i++ {
		tr, err := apps.SpecJBBMemoryCurve(mechanism.Transparent{}, pcts)
		if err != nil {
			b.Fatal(err)
		}
		hy, err := apps.SpecJBBMemoryCurve(mechanism.Hybrid{}, pcts)
		if err != nil {
			b.Fatal(err)
		}
		trRT, hyRT = tr[0].MeanRTNormalized, hy[0].MeanRTNormalized
	}
	b.ReportMetric(trRT/hyRT, "transparent/hybrid_RT@45%")
}

// BenchmarkAblationPolicies ablates the server-level policy choice at
// 60% overcommitment: deterministic deflation's throughput loss relative
// to plain proportional (Section 7.4.2 finds priority-aware policies cut
// the loss).
func BenchmarkAblationPolicies(b *testing.B) {
	tr := ablationFixture()
	b.ResetTimer()
	var prop, det float64
	for i := 0; i < b.N; i++ {
		prop = sweepLoss(b, tr, clustersim.StrategyProportional, 60)
		det = sweepLoss(b, tr, clustersim.StrategyDeterministic, 60)
	}
	b.ReportMetric(prop, "proportional_loss_pct@60%OC")
	b.ReportMetric(det, "deterministic_loss_pct@60%OC")
}

// BenchmarkAblationPlacementPartitioning ablates priority-partitioned
// pools (Section 5.2.1) against mixed placement at 50% overcommitment.
func BenchmarkAblationPlacementPartitioning(b *testing.B) {
	tr := ablationFixture()
	b.ResetTimer()
	var mixed, parted float64
	for i := 0; i < b.N; i++ {
		mixed = sweepLoss(b, tr, clustersim.StrategyPriority, 50)
		parted = sweepLoss(b, tr, clustersim.StrategyPartitioned, 50)
	}
	b.ReportMetric(mixed, "mixed_loss_pct@50%OC")
	b.ReportMetric(parted, "partitioned_loss_pct@50%OC")
}
