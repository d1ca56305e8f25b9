package vmdeflate

// The sweep benchmarks. The figures of the paper's evaluation and its
// ablations are claim tests in figures_test.go, not benchmarks; single
// runs are timed by `go run ./bench`, and the 10M-VM streamed run is in
// streamed_test.go.

import (
	"sync"
	"testing"

	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/trace"
)

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
