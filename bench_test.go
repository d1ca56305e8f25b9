package vmdeflate

// One benchmark per figure of the paper's evaluation. Each benchmark
// regenerates its figure's data series and attaches the figure's
// headline quantity as a custom metric (b.ReportMetric), so
// `go test -bench=. -benchmem` doubles as the reproduction harness.
// The figures whose conclusions are pinned have claim tests in
// figures_test.go.

import (
	"sync"
	"testing"

	"vmdeflate/internal/apps"
	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/feasibility"
	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/trace"
)

// Shared fixtures, built once.
var (
	azureOnce sync.Once
	azureTr   *trace.AzureTrace
	azureBase int
	alibabaTr *trace.AlibabaTrace
)

func fixtures(b *testing.B) (*trace.AzureTrace, *trace.AlibabaTrace, int) {
	b.Helper()
	azureOnce.Do(func() {
		cfg := trace.DefaultAzureConfig()
		cfg.NumVMs = 1500
		cfg.Duration = 2 * 86400
		azureTr = trace.GenerateAzure(cfg)
		acfg := trace.DefaultAlibabaConfig()
		acfg.NumContainers = 1500
		alibabaTr = trace.GenerateAlibaba(acfg)
		n, err := clustersim.BaselineServerCount(azureTr, clustersim.DefaultServerCapacity())
		if err != nil {
			panic(err)
		}
		azureBase = n
	})
	return azureTr, alibabaTr, azureBase
}

var allLevels = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90}

// BenchmarkFig03_AppDeflationCurves regenerates Figure 3: normalised
// performance of SpecJBB, kernel-compile and memcached when all
// resources are deflated together. Reported metric: memcached's
// performance at 50% deflation (the paper's most deflation-tolerant
// application).
func BenchmarkFig03_AppDeflationCurves(b *testing.B) {
	pcts := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	var mcAt50 float64
	for i := 0; i < b.N; i++ {
		for _, m := range []apps.ResourceModel{apps.SpecJBB{}, apps.Kcompile{}, apps.Memcached{}} {
			pts, err := apps.DeflationCurve(m, mechanism.Transparent{}, pcts)
			if err != nil {
				b.Fatal(err)
			}
			if m.Name() == "memcached" {
				mcAt50 = pts[5].Performance
			}
		}
	}
	b.ReportMetric(mcAt50, "memcached_perf@50%")
}

// BenchmarkFig05_CPUFeasibility regenerates Figure 5. Reported metric:
// median fraction of time above the deflated allocation at 50%
// deflation (paper: ~0.2).
func BenchmarkFig05_CPUFeasibility(b *testing.B) {
	tr, _, _ := fixtures(b)
	b.ResetTimer()
	var med float64
	for i := 0; i < b.N; i++ {
		t, err := feasibility.CPUFeasibility(tr, allLevels)
		if err != nil {
			b.Fatal(err)
		}
		med = t.Rows[4].Box.Median // 50% level
	}
	b.ReportMetric(med, "median_fracAbove@50%")
}

// BenchmarkFig06_ByClass regenerates Figure 6. Reported metric: mean
// fraction-above for interactive VMs at 50% deflation (paper: <=0.15).
func BenchmarkFig06_ByClass(b *testing.B) {
	tr, _, _ := fixtures(b)
	b.ResetTimer()
	var interactive float64
	for i := 0; i < b.N; i++ {
		ts, err := feasibility.ByClass(tr, allLevels)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range ts {
			if t.Name == "interactive" {
				interactive = t.Rows[4].Box.Mean
			}
		}
	}
	b.ReportMetric(interactive, "interactive_mean@50%")
}

// BenchmarkFig07_BySize regenerates Figure 7. Reported metric: spread of
// the size-class means at 50% deflation (paper: no correlation, small
// spread).
func BenchmarkFig07_BySize(b *testing.B) {
	tr, _, _ := fixtures(b)
	b.ResetTimer()
	var spread float64
	for i := 0; i < b.N; i++ {
		ts, err := feasibility.BySize(tr, allLevels)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := 1.0, 0.0
		for _, t := range ts {
			m := t.Rows[4].Box.Mean
			if m < lo {
				lo = m
			}
			if m > hi {
				hi = m
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "size_mean_spread@50%")
}

// BenchmarkFig08_ByPeak regenerates Figure 8. Reported metric: mean
// fraction-above for low-peak VMs (p95<33) at 20% deflation (paper: ~0).
func BenchmarkFig08_ByPeak(b *testing.B) {
	tr, _, _ := fixtures(b)
	b.ResetTimer()
	var lowPeak float64
	for i := 0; i < b.N; i++ {
		ts, err := feasibility.ByPeak(tr, allLevels)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range ts {
			if t.Name == "p95<33" {
				lowPeak = t.Rows[1].Box.Mean // 20% level
			}
		}
	}
	b.ReportMetric(lowPeak, "lowpeak_mean@20%")
}

// BenchmarkFig09_Memory regenerates Figure 9. Reported metric: mean
// fraction of time memory occupancy exceeds a 10%-deflated allocation
// (paper: >0.7).
func BenchmarkFig09_Memory(b *testing.B) {
	_, tr, _ := fixtures(b)
	b.ResetTimer()
	var at10 float64
	for i := 0; i < b.N; i++ {
		t, err := feasibility.MemoryFeasibility(tr, allLevels)
		if err != nil {
			b.Fatal(err)
		}
		at10 = t.Rows[0].Box.Mean
	}
	b.ReportMetric(at10, "mem_mean_fracAbove@10%")
}

// BenchmarkFig10_MemBandwidth regenerates Figure 10. Reported metric:
// mean memory-bus bandwidth utilisation (paper: <0.1%).
func BenchmarkFig10_MemBandwidth(b *testing.B) {
	_, tr, _ := fixtures(b)
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		s, err := feasibility.MemoryBandwidthUsage(tr)
		if err != nil {
			b.Fatal(err)
		}
		mean = s.MeanOfMeans
	}
	b.ReportMetric(mean, "membw_mean_pct")
}

// BenchmarkFig11_Disk regenerates Figure 11. Reported metric: mean
// fraction-above at 50% disk deflation (paper: <0.01).
func BenchmarkFig11_Disk(b *testing.B) {
	_, tr, _ := fixtures(b)
	b.ResetTimer()
	var at50 float64
	for i := 0; i < b.N; i++ {
		t, err := feasibility.DiskFeasibility(tr, allLevels)
		if err != nil {
			b.Fatal(err)
		}
		at50 = t.Rows[4].Box.Mean
	}
	b.ReportMetric(at50, "disk_mean_fracAbove@50%")
}

// BenchmarkFig12_Network regenerates Figure 12. Reported metric: mean
// fraction-above at 70% network deflation (paper: ~0.01).
func BenchmarkFig12_Network(b *testing.B) {
	_, tr, _ := fixtures(b)
	b.ResetTimer()
	var at70 float64
	for i := 0; i < b.N; i++ {
		t, err := feasibility.NetworkFeasibility(tr, allLevels)
		if err != nil {
			b.Fatal(err)
		}
		at70 = t.Rows[6].Box.Mean
	}
	b.ReportMetric(at70, "net_mean_fracAbove@70%")
}

// BenchmarkFig14_SpecJBBHybrid regenerates Figure 14: SpecJBB mean RT
// under transparent vs hybrid memory deflation. Reported metric: hybrid's
// advantage over transparent at 45% deflation.
func BenchmarkFig14_SpecJBBHybrid(b *testing.B) {
	pcts := []float64{0, 10, 20, 30, 40, 45}
	var advantage float64
	for i := 0; i < b.N; i++ {
		tr, err := apps.SpecJBBMemoryCurve(mechanism.Transparent{}, pcts)
		if err != nil {
			b.Fatal(err)
		}
		hy, err := apps.SpecJBBMemoryCurve(mechanism.Hybrid{}, pcts)
		if err != nil {
			b.Fatal(err)
		}
		advantage = tr[5].MeanRTNormalized - hy[5].MeanRTNormalized
	}
	b.ReportMetric(advantage, "hybrid_RT_advantage@45%")
}

// BenchmarkFig16_WikipediaRT regenerates Figure 16 (response-time
// distribution under CPU deflation). Reported metric: mean RT ratio
// 80%-deflated vs undeflated (paper: ~2x).
func BenchmarkFig16_WikipediaRT(b *testing.B) {
	cfg := apps.DefaultWikipediaConfig()
	cfg.Duration = 40
	var ratio float64
	for i := 0; i < b.N; i++ {
		base, err := apps.RunWikipedia(cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		d80, err := apps.RunWikipedia(cfg, 80)
		if err != nil {
			b.Fatal(err)
		}
		ratio = d80.Mean / base.Mean
	}
	b.ReportMetric(ratio, "meanRT_80%/0%")
}

// BenchmarkFig17_RequestsServed regenerates Figure 17 (% requests
// served). Reported metric: served fraction at 70% deflation (paper:
// ~1.0 — loss only beyond 70%).
func BenchmarkFig17_RequestsServed(b *testing.B) {
	cfg := apps.DefaultWikipediaConfig()
	cfg.Duration = 40
	var served float64
	for i := 0; i < b.N; i++ {
		p, err := apps.RunWikipedia(cfg, 70)
		if err != nil {
			b.Fatal(err)
		}
		served = p.ServedFraction
	}
	b.ReportMetric(served, "served@70%")
}

// BenchmarkFig18_Microservices regenerates Figure 18 (social network
// response times at 0/30/50/60/65% deflation). Reported metric: p99
// ratio 65% vs 50% (the abrupt knee).
func BenchmarkFig18_Microservices(b *testing.B) {
	cfg := apps.DefaultSocialNetConfig()
	cfg.Duration = 40
	var knee float64
	for i := 0; i < b.N; i++ {
		pts, err := apps.SocialNetworkSweep(cfg, []float64{0, 30, 50, 60, 65})
		if err != nil {
			b.Fatal(err)
		}
		knee = pts[4].P99 / pts[2].P99
	}
	b.ReportMetric(knee, "p99_65%/50%")
}

// BenchmarkFig19_DeflationAwareLB regenerates Figure 19. Reported
// metric: tail-latency reduction of the deflation-aware balancer at 70%
// deflation (paper: 15-40% lower).
func BenchmarkFig19_DeflationAwareLB(b *testing.B) {
	cfg := apps.DefaultLBConfig()
	cfg.Duration = 40
	var reduction float64
	for i := 0; i < b.N; i++ {
		aware, err := apps.RunLBExperiment(cfg, 70, true)
		if err != nil {
			b.Fatal(err)
		}
		vanilla, err := apps.RunLBExperiment(cfg, 70, false)
		if err != nil {
			b.Fatal(err)
		}
		reduction = 1 - aware.P90/vanilla.P90
	}
	b.ReportMetric(reduction*100, "p90_reduction_pct@70%")
}

// BenchmarkFig20_FailureProbability regenerates Figure 20 at 50%
// overcommitment. Reported metrics: failure probability for proportional
// deflation (paper: ~0) and the preemption baseline (paper: >0.1 and
// climbing to 0.35 by 70%).
func BenchmarkFig20_FailureProbability(b *testing.B) {
	tr, _, base := fixtures(b)
	b.ResetTimer()
	var defl, pre float64
	for i := 0; i < b.N; i++ {
		d, err := clustersim.Run(clustersim.Config{
			Trace: tr, Overcommit: 0.5, BaselineServers: base,
		})
		if err != nil {
			b.Fatal(err)
		}
		p, err := clustersim.Run(clustersim.Config{
			Trace: tr, Mode: clustersim.ModePreemption, Overcommit: 0.5, BaselineServers: base,
		})
		if err != nil {
			b.Fatal(err)
		}
		defl, pre = d.FailureProbability, p.FailureProbability
	}
	b.ReportMetric(defl, "deflation_failprob@50%OC")
	b.ReportMetric(pre, "preemption_failprob@50%OC")
}

// BenchmarkFig21_ThroughputLoss regenerates Figure 21 at 50%
// overcommitment. Reported metric: throughput loss % for proportional
// deflation (paper: ~1%).
func BenchmarkFig21_ThroughputLoss(b *testing.B) {
	tr, _, base := fixtures(b)
	b.ResetTimer()
	var loss float64
	for i := 0; i < b.N; i++ {
		d, err := clustersim.Run(clustersim.Config{
			Trace: tr, Overcommit: 0.5, BaselineServers: base,
		})
		if err != nil {
			b.Fatal(err)
		}
		loss = d.ThroughputLoss * 100
	}
	b.ReportMetric(loss, "tput_loss_pct@50%OC")
}

// BenchmarkFig22_Revenue regenerates Figure 22. Reported metric: static
// revenue increase at 60% overcommitment (paper: ~15%).
func BenchmarkFig22_Revenue(b *testing.B) {
	tr, _, _ := fixtures(b)
	b.ResetTimer()
	var inc float64
	for i := 0; i < b.N; i++ {
		sr, err := clustersim.Sweep(tr, clustersim.StrategyProportional, []float64{0, 60})
		if err != nil {
			b.Fatal(err)
		}
		inc = clustersim.RevenueIncrease(sr, "static")[1]
	}
	b.ReportMetric(inc, "static_rev_increase_pct@60%OC")
}

// --- Cluster-scale sweep engine benchmarks ---

// Sweep fixture: a 10k-VM Azure-like trace with its baseline cluster
// size, built once. This is the scale the parallel sweep layer exists
// for; the per-figure fixtures above stay small to keep `go test` fast.
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
	tr, _, base := fixtures(b)
	b.ResetTimer()
	var prop, det float64
	for i := 0; i < b.N; i++ {
		p, err := clustersim.Sweep(tr, clustersim.StrategyProportional, []float64{60})
		if err != nil {
			b.Fatal(err)
		}
		d, err := clustersim.Sweep(tr, clustersim.StrategyDeterministic, []float64{60})
		if err != nil {
			b.Fatal(err)
		}
		prop = p.Points[0].ThroughputLossPct
		det = d.Points[0].ThroughputLossPct
	}
	_ = base
	b.ReportMetric(prop, "proportional_loss_pct@60%OC")
	b.ReportMetric(det, "deterministic_loss_pct@60%OC")
}

// BenchmarkAblationPlacementPartitioning ablates priority-partitioned
// pools (Section 5.2.1) against mixed placement at 50% overcommitment.
func BenchmarkAblationPlacementPartitioning(b *testing.B) {
	tr, _, _ := fixtures(b)
	b.ResetTimer()
	var mixed, parted float64
	for i := 0; i < b.N; i++ {
		m, err := clustersim.Sweep(tr, clustersim.StrategyPriority, []float64{50})
		if err != nil {
			b.Fatal(err)
		}
		p, err := clustersim.Sweep(tr, clustersim.StrategyPartitioned, []float64{50})
		if err != nil {
			b.Fatal(err)
		}
		mixed = m.Points[0].ThroughputLossPct
		parted = p.Points[0].ThroughputLossPct
	}
	b.ReportMetric(mixed, "mixed_loss_pct@50%OC")
	b.ReportMetric(parted, "partitioned_loss_pct@50%OC")
}
