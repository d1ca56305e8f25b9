package vmdeflate

// Claim tests for the cluster-scale figures (Section 7.4). Each pins the
// ordering a figure's conclusion rests on, not its absolute values, on a
// 2,000-VM azure trace at seeds 1-3 swept over overcommitment 10-70 %:
//
//   - Fig 20: proportional deflation fails to reclaim no more often than
//     preemption preempts, and strictly less often from 30 % on;
//   - Fig 21: proportional deflation loses strictly less throughput
//     than preemption from 20 % on;
//   - Fig 22: revenue per server under the static scheme rises at every
//     overcommitment step.
//
// Fig 18 (Section 7.2, the deflated microservice application) has its
// own fixture below.
//
// The margins below were set from the first measurement of this fixture
// (smallest value over the three seeds in brackets) and are pinned: a
// change that erodes one is a change in what the simulator says about
// the paper.

import (
	"fmt"
	"sync"
	"testing"

	"vmdeflate/internal/apps"
	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/trace"
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
			cfg := trace.DefaultAzureConfig()
			cfg.NumVMs = 2000
			cfg.Seed = seed
			out, err := clustersim.SweepGrid(trace.GenerateAzure(cfg),
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
			pts, err := apps.SocialNetworkSweep(cfg, levels)
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
