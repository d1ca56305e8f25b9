package vmdeflate

// Claim tests, one per figure of the paper's evaluation. Each pins the
// ordering or threshold a figure's conclusion rests on, not its absolute
// values, at seeds 1-3 (Figs 3 and 14 are deterministic and run once).
// The margins were set from the first measurement of each fixture, with
// the value measured then in brackets (the least favourable of the three
// seeds), and are pinned: a change that erodes one is a change in what
// the simulator says about the paper. Where the paper states a number,
// the test logs it beside the measured value; a gap between the two is
// recorded in the test's comment and pinned only as a gap, never tuned.
//
// The cluster-scale figures (Section 7.4) share one fixture, a 2,000-VM
// azure trace swept over overcommitment 10-70 %:
//
//   - Fig 20: proportional deflation fails to reclaim no more often than
//     preemption preempts, and strictly less often from 30 % on;
//   - Fig 21: proportional deflation loses strictly less throughput
//     than preemption from 20 % on;
//   - Fig 22: revenue per server under the static scheme rises at every
//     overcommitment step.
//
// The trace figures (Section 3, Figs 5-12) share a 1,500-VM two-day
// azure trace and a 1,500-container alibaba trace per seed; the
// application figures (Sections 4 and 7.2-7.3, Figs 3, 14, 16-19) run
// their experiments at the figures' own deflation levels.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"vmdeflate/internal/apps"
	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/feasibility"
	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/stats"
	"vmdeflate/internal/trace"
	"vmdeflate/internal/workload"
)

var claimOvercommit = []float64{10, 20, 30, 40, 50, 60, 70}

const (
	// From 30 % on, preemption's failure probability is at least this
	// multiple of deflation's [25x].
	fig20Margin = 10
	// From 20 % on, preemption's throughput loss is at least this
	// multiple of deflation's [2.39x].
	fig21Margin = 2
	// Each 10-point overcommitment step raises static revenue per server
	// by at least this many percentage points of the 10 % point's
	// [5.5].
	fig22MinStep = 3
)

// claimSweep is one seed's proportional and preemption sweeps.
type claimSweep struct {
	seed       int64
	prop, pree *clustersim.SweepResult
}

var (
	claimOnce   sync.Once
	claimSweeps []claimSweep
	claimErr    error
)

// claimFixture runs the three seeds' sweeps once for all claim tests.
func claimFixture(t *testing.T) []claimSweep {
	t.Helper()
	claimOnce.Do(func() {
		for seed := int64(1); seed <= 3; seed++ {
			out, err := clustersim.SweepGrid(azureTrace(2000, 3*86400, seed),
				[]string{clustersim.StrategyProportional, clustersim.StrategyPreemption}, claimOvercommit, clustersim.Options{})
			if err != nil {
				claimErr = err
				return
			}
			claimSweeps = append(claimSweeps, claimSweep{seed: seed, prop: out[0], pree: out[1]})
		}
	})
	if claimErr != nil {
		t.Fatal(claimErr)
	}
	return claimSweeps
}

// TestFig20DeflationFailsLessThanPreemption pins Figure 20's ordering.
func TestFig20DeflationFailsLessThanPreemption(t *testing.T) {
	for _, cs := range claimFixture(t) {
		t.Run(fmt.Sprintf("seed=%d", cs.seed), func(t *testing.T) {
			for i, pct := range claimOvercommit {
				p, q := cs.prop.Points[i].FailureProbability, cs.pree.Points[i].FailureProbability
				t.Logf("oc %2.0f%%: failure proportional %.4f, preemption %.4f", pct, p, q)
				if p > q || (pct >= 30 && (p >= q || p*fig20Margin > q)) {
					t.Errorf("oc %.0f%%: proportional failure probability %.4f, preemption %.4f; want <= everywhere and < 1/%d of it from 30%%",
						pct, p, q, fig20Margin)
				}
			}
		})
	}
}

// TestFig21DeflationLosesLessThroughput pins Figure 21's ordering.
func TestFig21DeflationLosesLessThroughput(t *testing.T) {
	for _, cs := range claimFixture(t) {
		t.Run(fmt.Sprintf("seed=%d", cs.seed), func(t *testing.T) {
			for i, pct := range claimOvercommit {
				p, q := cs.prop.Points[i].ThroughputLossPct, cs.pree.Points[i].ThroughputLossPct
				t.Logf("oc %2.0f%%: throughput loss proportional %.3f%%, preemption %.3f%%", pct, p, q)
				if pct >= 20 && (p >= q || p*fig21Margin > q) {
					t.Errorf("oc %.0f%%: proportional loses %.3f%% of throughput, preemption %.3f%%; want strictly less, by %dx",
						pct, p, q, fig21Margin)
				}
			}
		})
	}
}

// fig18Knee is the least factor by which the social network's p99
// response time grows from 50 % to 65 % CPU deflation [55.7x]: the knee
// Figure 18 shows, past which the deflated services saturate.
const fig18Knee = 20

// TestFig18MicroservicesServeThroughTheKnee pins Figure 18 (Section
// 7.2): the 30-service social network at 500 req/s, 22 services deflated
// 0-65 %, seeds 1-3. Every request is served at every level, p99 never
// falls as deflation grows, and it jumps by at least fig18Knee from 50 %
// to 65 %. *Not pinned, the gap to the paper:* at 50 % the median is
// 2.67-2.75x and the p99 4.27-4.76x the undeflated value, against the
// abstract's "negligible" impact; the test logs both ratios.
func TestFig18MicroservicesServeThroughTheKnee(t *testing.T) {
	levels := []float64{0, 30, 50, 60, 65}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := apps.DefaultSocialNetConfig()
			cfg.Duration, cfg.Seed = 40, seed
			pts, err := apps.Sweep(levels, func(pct float64) (apps.Point, error) { return apps.RunSocialNetwork(cfg, pct) })
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pts {
				t.Logf("deflation %2.0f%%: median %.4fs p90 %.4fs p99 %.4fs served %.4f",
					p.DeflationPct, p.Median, p.P90, p.P99, p.ServedFraction)
				if p.ServedFraction != 1 {
					t.Errorf("deflation %.0f%%: served fraction %.4f, want 1", p.DeflationPct, p.ServedFraction)
				}
				if i > 0 && p.P99 < pts[i-1].P99 {
					t.Errorf("deflation %.0f%% -> %.0f%%: p99 fell from %.4fs to %.4fs",
						pts[i-1].DeflationPct, p.DeflationPct, pts[i-1].P99, p.P99)
				}
			}
			base, half, knee := pts[0], pts[2], pts[4]
			t.Logf("gap at 50%%: median %.2fx, p99 %.2fx the undeflated value", half.Median/base.Median, half.P99/base.P99)
			if knee.P99 < fig18Knee*half.P99 {
				t.Errorf("p99 at 65%% is %.4fs, only %.1fx the 50%% value %.4fs; want >= %dx",
					knee.P99, knee.P99/half.P99, half.P99, fig18Knee)
			}
		})
	}
}

// fig18HalfSlowdown is the least M/G/1-PS slowdown at 50 % deflation
// of any base utilisation that puts the knee at 60-65 % [4.33x].
const fig18HalfSlowdown = 4.3

// TestFig18Consistency explains Figure 18's gap to the paper: in
// the M/G/1-PS model the paper's two claims, a knee at 60-65 % CPU
// deflation and negligible impact at 50 %, cannot both hold. A
// processor-sharing station at base utilisation rho0 runs at
// rho0/(1-d) when deflated by d, so saturating at 65 % while still
// serving at 60 % puts rho0 in [0.35, 0.40]. At 50 % the sojourn then
// grows by (1-rho0)/(0.5-rho0), between 4.33x and 6x: the same order
// as TestFig18MicroservicesServeThroughTheKnee's measured median of
// 2.7x and p99 of 4.3-4.8x, nowhere near negligible. A flat response to
// 50 % needs one of two levers: a lower rho0, which moves the knee
// later than the paper's, or a per-job core cap (a request uses at
// most one core, so a lightly loaded container loses nothing while its
// capacity stays above the requests in service), which the model's
// uncapped sharing does not have.
func TestFig18Consistency(t *testing.T) {
	minHalf, maxHalf := math.Inf(1), 0.0
	for i := 0; i <= 10; i++ {
		rho0 := 0.35 + float64(i)*0.005
		if knee := perfmodel.PSSlowdownRatio(rho0, 1, 0.35, math.Inf(1)); !math.IsInf(knee, 1) {
			t.Errorf("rho0 %.3f: slowdown %.2fx at 65 %%, want saturation", rho0, knee)
		}
		if at60 := perfmodel.PSSlowdownRatio(rho0, 1, 0.4, math.Inf(1)); rho0 < 0.4 && math.IsInf(at60, 1) {
			t.Errorf("rho0 %.3f: saturated already at 60 %%", rho0)
		}
		half := perfmodel.PSSlowdownRatio(rho0, 1, 0.5, math.Inf(1))
		minHalf, maxHalf = min(minHalf, half), max(maxHalf, half)
	}
	t.Logf("M/G/1-PS slowdown at 50 %% deflation, knee at 60-65 %%: %.2fx-%.2fx; "+
		"Fig 18 measured median 2.7x, p99 4.3-4.8x", minHalf, maxHalf)
	if minHalf < fig18HalfSlowdown {
		t.Errorf("least slowdown at 50 %% is %.2fx, want >= %.1fx", minHalf, fig18HalfSlowdown)
	}
}

// TestFig22StaticRevenueRisesWithOvercommit pins Figure 22's trend for
// the static scheme: revenue per server, relative to the 10 % point.
func TestFig22StaticRevenueRisesWithOvercommit(t *testing.T) {
	for _, cs := range claimFixture(t) {
		t.Run(fmt.Sprintf("seed=%d", cs.seed), func(t *testing.T) {
			inc := clustersim.RevenueIncrease(cs.prop, "static")
			t.Logf("static revenue per server vs 10%%: %.2f", inc)
			for i := 1; i < len(inc); i++ {
				if inc[i] < inc[i-1]+fig22MinStep {
					t.Errorf("oc %.0f%% -> %.0f%%: static revenue per server went from %+.2f%% to %+.2f%%; want a rise of at least %d points",
						claimOvercommit[i-1], claimOvercommit[i], inc[i-1], inc[i], fig22MinStep)
				}
			}
		})
	}
}

// --- The application figures (Sections 4 and 7.2-7.3) ---

// fig03Memcached50 is the least normalised performance memcached keeps
// at 50 % deflation of all its resources [0.975].
const fig03Memcached50 = 0.9

// TestFig03MemcachedDegradesLeast pins Figure 3: SpecJBB, kernel-compile
// and memcached with every resource deflated together, 0-90 %. No curve
// rises as deflation deepens, memcached performs at least as well as
// both others at every level, and it keeps fig03Memcached50 of its
// undeflated performance at 50 %.
func TestFig03MemcachedDegradesLeast(t *testing.T) {
	pcts := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	curves := map[string][]float64{}
	for _, m := range []apps.ResourceModel{apps.SpecJBB{}, apps.Kcompile{}, apps.Memcached{}} {
		pts, err := apps.Sweep(pcts, func(pct float64) (float64, error) {
			return apps.PerformanceAt(m, mechanism.Transparent{}, pct)
		})
		if err != nil {
			t.Fatal(err)
		}
		curves[m.Name()] = pts
		for i := 1; i < len(pts); i++ {
			if pts[i] > pts[i-1] {
				t.Errorf("%s: performance rose from %.3f to %.3f between %.0f%% and %.0f%% deflation",
					m.Name(), pts[i-1], pts[i], pcts[i-1], pcts[i])
			}
		}
	}
	for i, pct := range pcts {
		mc, kc, sj := curves["memcached"][i], curves["kcompile"][i], curves["specjbb"][i]
		t.Logf("deflation %2.0f%%: memcached %.3f kcompile %.3f specjbb %.3f", pct, mc, kc, sj)
		if mc < kc || mc < sj {
			t.Errorf("deflation %.0f%%: memcached %.3f below kcompile %.3f or specjbb %.3f", pct, mc, kc, sj)
		}
		if pct == 50 && mc < fig03Memcached50 {
			t.Errorf("memcached keeps %.3f at 50%% deflation, want >= %.2f", mc, fig03Memcached50)
		}
	}
}

const (
	// At 45 % memory deflation transparent (swapping) SpecJBB's
	// normalised mean response time exceeds hybrid's by at least this
	// [0.220].
	fig14Advantage45 = 0.1
	// Hybrid's normalised mean response time stays at or below this
	// through 45 % [1.001].
	fig14HybridMax = 1.05
)

// TestFig14HybridAvoidsSwap pins Figure 14: SpecJBB under memory-only
// deflation, 0-45 %. Hybrid deflation (hotplug down to the guest's
// resident set, then multiplexing) is never slower than transparent
// deflation, stays near its undeflated response time throughout, and at
// 45 %, where transparent deflation swaps, is faster by
// fig14Advantage45.
func TestFig14HybridAvoidsSwap(t *testing.T) {
	pcts := []float64{0, 5, 10, 15, 20, 25, 30, 35, 40, 45}
	rt := func(mech mechanism.Mechanism) []float64 {
		pts, err := apps.Sweep(pcts, func(pct float64) (float64, error) { return apps.SpecJBBMemoryRT(mech, pct) })
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	tr, hy := rt(mechanism.Transparent{}), rt(mechanism.Hybrid{})
	for i, pct := range pcts {
		a, b := tr[i], hy[i]
		t.Logf("deflation %2.0f%%: mean RT transparent %.3f hybrid %.3f", pct, a, b)
		if b > a || b > fig14HybridMax {
			t.Errorf("deflation %.0f%%: hybrid %.3f, transparent %.3f; want hybrid <= transparent and <= %.2f", pct, b, a, fig14HybridMax)
		}
	}
	if adv := tr[len(pcts)-1] - hy[len(pcts)-1]; adv < fig14Advantage45 {
		t.Errorf("hybrid beats transparent by %.3f at 45%%, want >= %.2f", adv, fig14Advantage45)
	}
}

// wikiLevels is the Figures 16-17 x-axis (CPU deflation, %).
var wikiLevels = []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}

var (
	wikiOnce   sync.Once
	wikiSweeps [][]apps.Point
	wikiErr    error
)

// wikiFixture runs the Wikipedia sweep once per seed 1-3 for Figs 16-17:
// 30 cores at 800 req/s for 40 s.
func wikiFixture(t *testing.T) [][]apps.Point {
	t.Helper()
	wikiOnce.Do(func() {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := apps.DefaultWikipediaConfig()
			cfg.Duration, cfg.Seed = 40, seed
			pts, err := apps.Sweep(wikiLevels, func(pct float64) (apps.Point, error) { return apps.RunWikipedia(cfg, pct) })
			if err != nil {
				wikiErr = err
				return
			}
			wikiSweeps = append(wikiSweeps, pts)
		}
	})
	if wikiErr != nil {
		t.Fatal(wikiErr)
	}
	return wikiSweeps
}

// fig16Flat is the most Wikipedia's mean response time may rise above
// the undeflated value at any deflation up to 70 % [1.2 %].
const fig16Flat = 0.05

// TestFig16WikipediaRTFlatTo70 pins Figure 16: the mean response time is
// flat, within fig16Flat of the undeflated value, through 70 % CPU
// deflation, and rises at each step past it. *Not pinned, the gap to
// the paper:* at 80 % the mean is 6.46-6.53x the undeflated value,
// against the paper's ≈ 2x; the test logs the ratio.
func TestFig16WikipediaRTFlatTo70(t *testing.T) {
	for s, pts := range wikiFixture(t) {
		t.Run(fmt.Sprintf("seed=%d", s+1), func(t *testing.T) {
			base := pts[0].Mean
			for i, p := range pts {
				t.Logf("deflation %2.0f%%: mean %.3fs median %.3fs p90 %.3fs p99 %.3fs", p.DeflationPct, p.Mean, p.Median, p.P90, p.P99)
				if p.DeflationPct <= 70 && p.Mean > base*(1+fig16Flat) {
					t.Errorf("deflation %.0f%%: mean %.4fs is %.1f%% above the undeflated %.4fs, want <= %.0f%%",
						p.DeflationPct, p.Mean, (p.Mean/base-1)*100, base, fig16Flat*100)
				}
				if p.DeflationPct > 70 && p.Mean <= pts[i-1].Mean {
					t.Errorf("deflation %.0f%%: mean %.4fs, not above %.4fs at %.0f%%", p.DeflationPct, p.Mean, pts[i-1].Mean, pts[i-1].DeflationPct)
				}
				if p.DeflationPct == 80 {
					t.Logf("gap at 80%%: mean %.2fx the undeflated value, paper ≈ 2x", p.Mean/base)
				}
			}
		})
	}
}

// Figure 16's setup as internal/apps runs it (Section 7.2): 800 req/s
// of the Wikipedia page mix offered to a 30-core VM, every response
// adding 0.25 s outside the CPU. TestFig16Consistency holds the cores
// and the undeflated mean to the measured points.
const (
	fig16Rate         = 800
	fig16FixedLatency = 0.25
)

// fig16Explained is the least share of Figure 16's gap at 80 % (the
// measured mean-response ratio above the paper's ≈ 2x) that the
// M/G/1-PS model accounts for [1.00 on every seed: it saturates].
const fig16Explained = 1.0

// TestFig16Consistency explains Figure 16's gap to the paper. The page
// mix costs 9.36 ms of CPU per request on average (the page-size and
// jitter factors average 1), so 800 req/s offer 7.49 cores, a quarter
// of the 30-core VM. A processor-sharing CPU then saturates once
// deflation leaves fewer cores than that, at 75.0 %: up to 70 % the
// M/G/1-PS mean response (0.25 s plus the CPU sojourn) stays within
// fig16Flat of the undeflated one, as measured, and at 80 % (6 cores)
// the model's stationary mean is unbounded. So the whole gap between the
// measured 6.46-6.53x and the paper's ≈ 2x is the offered load crossing
// capacity between the two levels; the measured ratio is finite only
// because the run is 40 s long and drops requests after 15 s. The
// paper's ≈ 2x at 80 % needs the knee past 80 %, i.e. an offered load
// below 6 cores (under 7.5 ms per request at 800 req/s), or a mix
// the page-cost calibration does not have.
func TestFig16Consistency(t *testing.T) {
	mix := workload.NewPageMix(1)
	cost := mix.HitRatio*mix.HitCost + (1-mix.HitRatio)*mix.MissCost
	load := fig16Rate * cost
	for s, pts := range wikiFixture(t) {
		t.Run(fmt.Sprintf("seed=%d", s+1), func(t *testing.T) {
			base := pts[0]
			full := base.Cores
			// The undeflated PS sojourn, and the model's mean response at
			// cores effective cores relative to it.
			sojourn := cost / (full - load)
			ratio := func(cores float64) float64 {
				r := perfmodel.PSSlowdownRatio(load, full, cores, math.Inf(1))
				return (fig16FixedLatency + sojourn*r) / (fig16FixedLatency + sojourn)
			}
			// A lone request runs on one core (the station's per-job
			// cap), so the undeflated mean is the fixed latency plus the
			// mean cost: the check that these are the setup's own numbers.
			if want := fig16FixedLatency + cost; math.Abs(base.Mean-want) > 0.02*want {
				t.Errorf("undeflated mean %.4fs, the setup's fixed latency + mean cost give %.4fs", base.Mean, want)
			}
			knee := 100 * (1 - load/full)
			t.Logf("offered load %.3f of %.0f cores: the M/G/1-PS knee is at %.2f %% deflation", load, full, knee)
			if knee <= 70 || knee >= 80 {
				t.Errorf("model knee at %.2f %%, want between the flat 70 %% and the 80 %% point", knee)
			}
			for _, p := range pts {
				model, measured := ratio(p.Cores), p.Mean/base.Mean
				switch {
				case p.DeflationPct <= 70 && model > 1+fig16Flat:
					t.Errorf("deflation %.0f%%: model mean %.3fx the undeflated one, measured %.3fx; want both within %.0f %%",
						p.DeflationPct, model, measured, fig16Flat*100)
				case p.DeflationPct == 80:
					share := min(1, (model-2)/(measured-2))
					t.Logf("deflation 80%%: M/G/1-PS mean %.2fx the undeflated one, measured %.2fx, paper ≈ 2x: the model explains %.0f %% of the gap",
						model, measured, share*100)
					if share < fig16Explained {
						t.Errorf("the model explains %.2f of the gap at 80 %%, want >= %.2f", share, fig16Explained)
					}
				}
			}
		})
	}
}

// fig17Served90 is the most of its requests Wikipedia may serve at 90 %
// CPU deflation: past 70 % it must lose some [0.897].
const fig17Served90 = 0.95

// TestFig17WikipediaServesAllTo70 pins Figure 17: every request is
// served through 70 % CPU deflation [1.0000 on every seed], the served
// fraction never rises as deflation deepens, and at 90 % at most
// fig17Served90 is served. The paper reports the same shape: no loss up
// to 70 %.
func TestFig17WikipediaServesAllTo70(t *testing.T) {
	for s, pts := range wikiFixture(t) {
		t.Run(fmt.Sprintf("seed=%d", s+1), func(t *testing.T) {
			for i, p := range pts {
				t.Logf("deflation %2.0f%%: served %.4f", p.DeflationPct, p.ServedFraction)
				if p.DeflationPct <= 70 && p.ServedFraction != 1 {
					t.Errorf("deflation %.0f%%: served %.4f, want 1", p.DeflationPct, p.ServedFraction)
				}
				if i > 0 && p.ServedFraction > pts[i-1].ServedFraction {
					t.Errorf("deflation %.0f%%: served fraction rose from %.4f to %.4f", p.DeflationPct, pts[i-1].ServedFraction, p.ServedFraction)
				}
			}
			if last := pts[len(pts)-1]; last.ServedFraction > fig17Served90 {
				t.Errorf("deflation 90%%: served %.4f, want <= %.2f", last.ServedFraction, fig17Served90)
			}
		})
	}
}

const (
	// The deflation-aware balancer's p90 is at most this multiple of
	// vanilla round-robin's at any level [1.004x].
	fig19Slack = 1.01
	// At 70 % deflation it cuts the p90 by at least this fraction [0.161].
	fig19Cut70 = 0.1
)

// TestFig19DeflationAwareLBCutsTail pins Figure 19: three Wikipedia
// replicas at 200 req/s for 40 s, two of them deflated 0-80 %. The
// deflation-aware balancer's p90 response time is never worse than
// vanilla weighted round-robin's beyond fig19Slack, and at 70 % it is
// lower by fig19Cut70. The paper reports a 15-40 % lower tail; the test
// logs the cut at 70 % beside it.
func TestFig19DeflationAwareLBCutsTail(t *testing.T) {
	pcts := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := apps.DefaultLBConfig()
			cfg.Duration, cfg.Seed = 40, seed
			balance := func(aware bool) []apps.Point {
				pts, err := apps.Sweep(pcts, func(pct float64) (apps.Point, error) { return apps.RunLBExperiment(cfg, pct, aware) })
				if err != nil {
					t.Fatal(err)
				}
				return pts
			}
			aware, vanilla := balance(true), balance(false)
			for i, pct := range pcts {
				a, v := aware[i].P90, vanilla[i].P90
				t.Logf("deflation %2.0f%%: p90 aware %.3fs vanilla %.3fs (cut %.1f%%)", pct, a, v, (1-a/v)*100)
				if a > v*fig19Slack {
					t.Errorf("deflation %.0f%%: aware p90 %.4fs above vanilla %.4fs by more than %.0f%%", pct, a, v, (fig19Slack-1)*100)
				}
				if pct == 70 {
					cut := 1 - a/v
					t.Logf("cut at 70%%: %.1f%%, paper 15-40%%", cut*100)
					if cut < fig19Cut70 {
						t.Errorf("aware balancer cuts the p90 by %.1f%% at 70%%, want >= %.0f%%", cut*100, fig19Cut70*100)
					}
				}
			}
		})
	}
}

// --- Section 3: the trace figures (Figs 5-12) ---

// traceSeed is one seed's pair of Section 3 traces.
type traceSeed struct {
	seed    int64
	azure   *trace.AzureTrace
	alibaba *trace.AlibabaTrace
}

var (
	traceOnce  sync.Once
	traceSeeds []traceSeed
)

// azureTrace is the azure scenario's eager trace: n VMs over duration
// seconds. It runs inside sync.Once fixtures, which have no t to fail;
// the name and a finite duration leave GenerateNamed no error to return.
func azureTrace(n int, duration float64, seed int64) *trace.AzureTrace {
	tr, err := trace.GenerateNamed("azure", n, duration, seed)
	if err != nil {
		panic(err)
	}
	return tr
}

// forEachTraceSeed runs check as one subtest per seed 1-3, building the
// traces once for all of Figs 5-12: 1,500 azure VMs over two days and
// 1,500 alibaba containers.
func forEachTraceSeed(t *testing.T, check func(t *testing.T, ts traceSeed)) {
	traceOnce.Do(func() {
		for seed := int64(1); seed <= 3; seed++ {
			al := trace.DefaultAlibabaConfig()
			al.NumContainers, al.Seed = 1500, seed
			traceSeeds = append(traceSeeds, traceSeed{seed, azureTrace(1500, 2*86400, seed), trace.GenerateAlibaba(al)})
		}
	})
	for _, ts := range traceSeeds {
		t.Run(fmt.Sprintf("seed=%d", ts.seed), func(t *testing.T) { check(t, ts) })
	}
}

// box returns tab's summary at deflation pct.
func box(t *testing.T, tab feasibility.Table, pct float64) stats.BoxPlot {
	t.Helper()
	for _, r := range tab.Rows {
		if r.DeflationPct == pct {
			return r.Box
		}
	}
	t.Fatalf("%s: no row at %g%%", tab.Name, pct)
	return stats.BoxPlot{}
}

// checkRises asserts that a table's median and mean never fall as
// deflation deepens: a sample above a deflated allocation is above every
// deeper one.
func checkRises(t *testing.T, tab feasibility.Table) {
	t.Helper()
	for i := 1; i < len(tab.Rows); i++ {
		a, b := tab.Rows[i-1], tab.Rows[i]
		if b.Box.Median < a.Box.Median || b.Box.Mean < a.Box.Mean {
			t.Errorf("%s: %.0f%% -> %.0f%%: median %.4f -> %.4f, mean %.4f -> %.4f; want neither to fall",
				tab.Name, a.DeflationPct, b.DeflationPct, a.Box.Median, b.Box.Median, a.Box.Mean, b.Box.Mean)
		}
	}
}

// means formats a table's per-level means for the log.
func means(tab feasibility.Table) string {
	s := ""
	for _, r := range tab.Rows {
		s += fmt.Sprintf(" %.4f", r.Box.Mean)
	}
	return s
}

// fig05Median50 is the largest fraction of its lifetime the median VM's
// CPU usage may spend above a 50 %-deflated allocation [0.043].
const fig05Median50 = 0.1

// TestFig05MostVMsRarelyExceedHalfTheirCPU pins Figure 5: across all
// VMs, the fraction of time CPU usage exceeds the deflated allocation
// never falls as deflation deepens, and at 50 % the median VM is above
// its allocation at most fig05Median50 of the time. *Not pinned, the gap
// to the paper:* that median reads 0.037-0.043 against the paper's
// ≈ 0.2, so the synthetic azure trace is more deflatable than the
// paper's; the test logs both.
func TestFig05MostVMsRarelyExceedHalfTheirCPU(t *testing.T) {
	forEachTraceSeed(t, func(t *testing.T, ts traceSeed) {
		tab, err := feasibility.CPUFeasibility(ts.azure, feasibility.DefaultDeflationLevels)
		if err != nil {
			t.Fatal(err)
		}
		checkRises(t, tab)
		med := box(t, tab, 50).Median
		t.Logf("median fraction above at 50%%: %.4f, paper ≈ 0.2", med)
		if med > fig05Median50 {
			t.Errorf("median fraction above at 50%% is %.4f, want <= %.2f", med, fig05Median50)
		}
	})
}

const (
	// The interactive class's mean fraction above at 50 % is at most
	// this [0.080].
	fig06Interactive50 = 0.12
	// Every other class's mean at 50 % is at least this multiple of the
	// interactive class's [2.7x].
	fig06Margin = 2
)

// TestFig06InteractiveVMsDeflateBest pins Figure 6: broken down by
// workload class, interactive VMs spend the least time above their
// deflated allocation at every level, by fig06Margin at 50 %, where
// their mean is at most fig06Interactive50. The paper puts it at
// <= 0.15; the test logs it beside that.
func TestFig06InteractiveVMsDeflateBest(t *testing.T) {
	forEachTraceSeed(t, func(t *testing.T, ts traceSeed) {
		tabs, err := feasibility.ByClass(ts.azure, feasibility.DefaultDeflationLevels)
		if err != nil {
			t.Fatal(err)
		}
		var inter feasibility.Table
		for _, tab := range tabs {
			t.Logf("%-17s mean:%s", tab.Name, means(tab))
			checkRises(t, tab)
			if tab.Name == trace.Interactive.String() {
				inter = tab
			}
		}
		i50 := box(t, inter, 50).Mean
		t.Logf("interactive mean at 50%%: %.4f, paper <= 0.15", i50)
		if i50 > fig06Interactive50 {
			t.Errorf("interactive mean at 50%% is %.4f, want <= %.2f", i50, fig06Interactive50)
		}
		for _, tab := range tabs {
			if tab.Name == inter.Name {
				continue
			}
			for i, r := range tab.Rows {
				if r.Box.Mean <= inter.Rows[i].Box.Mean {
					t.Errorf("%.0f%%: %s mean %.4f not above interactive %.4f", r.DeflationPct, tab.Name, r.Box.Mean, inter.Rows[i].Box.Mean)
				}
			}
			if m := box(t, tab, 50).Mean; m < fig06Margin*i50 {
				t.Errorf("50%%: %s mean %.4f is only %.2fx interactive's %.4f, want >= %dx", tab.Name, m, m/i50, i50, fig06Margin)
			}
		}
	})
}

// fig07Spread is the widest the size classes' mean fractions above may
// spread at any deflation level [0.038].
const fig07Spread = 0.08

// TestFig07SizeDoesNotPredictDeflatability pins Figure 7: broken down by
// VM memory size, the classes' mean fractions above the deflated
// allocation lie within fig07Spread of each other at every level. The
// paper finds no correlation between size and deflatability.
func TestFig07SizeDoesNotPredictDeflatability(t *testing.T) {
	forEachTraceSeed(t, func(t *testing.T, ts traceSeed) {
		tabs, err := feasibility.BySize(ts.azure, feasibility.DefaultDeflationLevels)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range tabs {
			t.Logf("%-13s mean:%s", tab.Name, means(tab))
			checkRises(t, tab)
		}
		widest := 0.0
		for i, pct := range feasibility.DefaultDeflationLevels {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, tab := range tabs {
				lo, hi = math.Min(lo, tab.Rows[i].Box.Mean), math.Max(hi, tab.Rows[i].Box.Mean)
			}
			widest = math.Max(widest, hi-lo)
			if hi-lo > fig07Spread {
				t.Errorf("%.0f%%: size-class means spread %.4f, want <= %.2f", pct, hi-lo, fig07Spread)
			}
		}
		t.Logf("widest spread of the size-class means: %.4f", widest)
	})
}

// fig08LowPeak is the largest mean fraction above the p95 < 33 % class
// may reach at any deflation up to 60 % [0.005].
const fig08LowPeak = 0.02

// TestFig08LowPeakVMsDeflateFreely pins Figure 8: broken down by 95th
// percentile CPU usage, the p95 < 33 % class spends the least time above
// its deflated allocation at every level, at most fig08LowPeak of it
// through 60 %, and through 60 % the class means rise with the peak.
// The paper puts the low-peak class at ≈ 0 at 20 %; the test logs it.
func TestFig08LowPeakVMsDeflateFreely(t *testing.T) {
	forEachTraceSeed(t, func(t *testing.T, ts traceSeed) {
		tabs, err := feasibility.ByPeak(ts.azure, feasibility.DefaultDeflationLevels)
		if err != nil {
			t.Fatal(err)
		}
		if tabs[0].Name != "p95<33" {
			t.Fatalf("first peak class is %s, want p95<33", tabs[0].Name)
		}
		for _, tab := range tabs {
			t.Logf("%-11s mean:%s", tab.Name, means(tab))
			checkRises(t, tab)
		}
		t.Logf("p95<33 mean at 20%%: %.4f, paper ≈ 0", box(t, tabs[0], 20).Mean)
		for i, pct := range feasibility.DefaultDeflationLevels {
			low := tabs[0].Rows[i].Box.Mean
			if pct <= 60 && low > fig08LowPeak {
				t.Errorf("%.0f%%: p95<33 mean %.4f, want <= %.2f", pct, low, fig08LowPeak)
			}
			for c := 1; c < len(tabs); c++ {
				m, prev := tabs[c].Rows[i].Box.Mean, tabs[c-1].Rows[i].Box.Mean
				if m < low || (pct <= 60 && m < prev) {
					t.Errorf("%.0f%%: %s mean %.4f below %s %.4f", pct, tabs[c].Name, m, tabs[c-1].Name, prev)
				}
			}
		}
	})
}

const (
	// The mean fraction of time memory occupancy exceeds a 10 %-deflated
	// allocation is at least this [0.701].
	fig09At10 = 0.6
	// From 20 % deflation on it is at least this [1.000].
	fig09From20 = 0.99
)

// TestFig09MemoryIsNotDeflatable pins Figure 9: container memory
// occupancy exceeds even a 10 %-deflated allocation fig09At10 of the
// time, and from 20 % on nearly always. The paper puts the 10 % value
// above 0.7; the measured 0.701-0.708 clears that by under 0.01, and the
// test logs it.
func TestFig09MemoryIsNotDeflatable(t *testing.T) {
	forEachTraceSeed(t, func(t *testing.T, ts traceSeed) {
		tab, err := feasibility.MemoryFeasibility(ts.alibaba, feasibility.DefaultDeflationLevels)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("memory mean:%s", means(tab))
		checkRises(t, tab)
		at10 := box(t, tab, 10).Mean
		t.Logf("mean fraction above at 10%%: %.4f, paper > 0.7", at10)
		if at10 < fig09At10 {
			t.Errorf("mean fraction above at 10%% is %.4f, want >= %.2f", at10, fig09At10)
		}
		for _, r := range tab.Rows[1:] {
			if r.Box.Mean < fig09From20 {
				t.Errorf("%.0f%%: mean fraction above %.4f, want >= %.2f", r.DeflationPct, r.Box.Mean, fig09From20)
			}
		}
	})
}

// fig10MeanPct is the highest mean memory-bus utilisation, in percent of
// the machine's bandwidth, the containers may average [0.083].
const fig10MeanPct = 0.1

// TestFig10MemoryBusIsIdle pins Figure 10: containers use at most
// fig10MeanPct of the memory bus on average, the paper's "< 0.1 %", so
// memory deflation would not be throttled by bandwidth.
func TestFig10MemoryBusIsIdle(t *testing.T) {
	forEachTraceSeed(t, func(t *testing.T, ts traceSeed) {
		s, err := feasibility.MemoryBandwidthUsage(ts.alibaba)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("mean-of-means %.4f%%, max %.4f%%, paper < 0.1%%", s.MeanOfMeans, s.MaxOfMax)
		if s.MeanOfMeans > fig10MeanPct {
			t.Errorf("mean memory-bus utilisation %.4f%%, want <= %.2f%%", s.MeanOfMeans, fig10MeanPct)
		}
	})
}

// fig11Through80 is the highest mean fraction of time disk bandwidth may
// exceed its deflated allocation at any level up to 80 % [0.0048].
const fig11Through80 = 0.01

// TestFig11DiskDeflatesTo80 pins Figure 11: disk bandwidth exceeds its
// deflated allocation at most fig11Through80 of the time at any
// deflation up to 80 %. The paper puts it under 0.01 at 50 %; the test
// logs that value.
func TestFig11DiskDeflatesTo80(t *testing.T) {
	forEachTraceSeed(t, func(t *testing.T, ts traceSeed) {
		tab, err := feasibility.DiskFeasibility(ts.alibaba, feasibility.DefaultDeflationLevels)
		if err != nil {
			t.Fatal(err)
		}
		checkIOTable(t, tab, fig11Through80, 50, "< 0.01")
	})
}

// fig12Through80 is the highest mean fraction of time network bandwidth
// may exceed its deflated allocation at any level up to 80 % [0.0084].
const fig12Through80 = 0.02

// TestFig12NetworkDeflatesTo80 pins Figure 12: network bandwidth exceeds
// its deflated allocation at most fig12Through80 of the time at any
// deflation up to 80 %. The paper puts it at ≈ 0.01 at 70 %; the test
// logs that value.
func TestFig12NetworkDeflatesTo80(t *testing.T) {
	forEachTraceSeed(t, func(t *testing.T, ts traceSeed) {
		tab, err := feasibility.NetworkFeasibility(ts.alibaba, feasibility.DefaultDeflationLevels)
		if err != nil {
			t.Fatal(err)
		}
		checkIOTable(t, tab, fig12Through80, 70, "≈ 0.01")
	})
}

// checkIOTable holds an I/O table's means to max through 80 % deflation
// and logs the mean at the level the paper quotes.
func checkIOTable(t *testing.T, tab feasibility.Table, max, paperPct float64, paper string) {
	t.Helper()
	t.Logf("%s mean:%s", tab.Name, means(tab))
	checkRises(t, tab)
	t.Logf("mean fraction above at %.0f%%: %.4f, paper %s", paperPct, box(t, tab, paperPct).Mean, paper)
	for _, r := range tab.Rows {
		if r.DeflationPct <= 80 && r.Box.Mean > max {
			t.Errorf("%.0f%%: mean fraction above %.4f, want <= %.2f", r.DeflationPct, r.Box.Mean, max)
		}
	}
}
