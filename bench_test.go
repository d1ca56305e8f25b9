package vmdeflate

// The sweep and ablation benchmarks. The figures of the paper's
// evaluation are claim tests in figures_test.go, not benchmarks; single
// runs are timed by `go run ./bench`, and the 10M-VM streamed run is in
// streamed_test.go. An ablation stays here only while no claim test
// makes its comparison (transparent against hybrid at 45 % is
// TestFig14HybridAvoidsSwap's).

import (
	"sync"
	"testing"

	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/trace"
)

// Ablation fixture: a 1,500-VM, two-day Azure-like trace, built once.
var (
	ablationOnce sync.Once
	ablationTr   *trace.AzureTrace
)

func ablationFixture() *trace.AzureTrace {
	ablationOnce.Do(func() {
		ablationTr = azureTrace(1500, 2*86400, 1)
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
		sweepTr = azureTrace(10000, 2*86400, 1)
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
