package clustersim

import (
	"fmt"
	"testing"

	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// sloTestConfig builds a latency-policy + SLO-metered run, the
// configuration whose accumulators (violation counters, the slowdown
// histogram, load publication) the differential suite must prove
// invariant under every oracle.
func sloTestConfig(tr *trace.AzureTrace, oc float64) Config {
	slo := &SLOConfig{Curve: perfmodel.Kcompile, MaxSlowdown: 2}
	return Config{
		Trace:      tr,
		Policy:     policy.LatencyAware{Curve: slo.Curve, MaxSlowdown: slo.MaxSlowdown},
		Overcommit: oc,
		SLO:        slo,
	}
}

// TestSLOEngineMatchesOracles is the determinism guarantee for the SLO
// path: every SLO metric — violation seconds, rate, p99 proxy, the
// per-priority map — must be bit-for-bit identical under every retained
// oracle (reference placement, full pressure scan, heap event queue).
func TestSLOEngineMatchesOracles(t *testing.T) {
	for _, kind := range []trace.Scenario{trace.ScenarioBursty, trace.ScenarioDiurnal, trace.ScenarioHeavyTail} {
		tr, err := trace.GenerateScenario(trace.ScenarioConfig{
			Kind: kind, NumVMs: 400, Duration: 86400, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		base := sloTestConfig(tr, 0.5)
		want, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if want.SLOSampleSeconds == 0 {
			t.Fatalf("%v: degenerate run, no SLO samples metered", kind)
		}
		runOracleModes(t, fmt.Sprintf("%v/", kind), base, want)
	}
}

// TestSLOMetricsPopulated sanity-checks the accounting identities on a
// metered run: rate = violations/samples, the per-priority map covers
// every level and sums to the total, and the p99 proxy is a plausible
// slowdown (>= 1) whenever anything was metered.
func TestSLOMetricsPopulated(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{
		Kind: trace.ScenarioBursty, NumVMs: 300, Duration: 86400, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sloTestConfig(tr, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	if res.SLOSampleSeconds <= 0 {
		t.Fatal("no SLO samples metered")
	}
	if got := res.SLOViolationRate * res.SLOSampleSeconds; !almostEq(got, res.SLOViolationSeconds) {
		t.Errorf("rate*samples = %g, want violation seconds %g", got, res.SLOViolationSeconds)
	}
	if len(res.SLOViolationsByPriority) != 4 {
		t.Errorf("per-priority map has %d levels, want all 4", len(res.SLOViolationsByPriority))
	}
	var sum float64
	for _, v := range res.SLOViolationsByPriority {
		sum += v
	}
	if !almostEq(sum, res.SLOViolationSeconds) {
		t.Errorf("per-priority violations sum to %g, want %g", sum, res.SLOViolationSeconds)
	}
	if res.SLOLatencyP99 < 1 {
		t.Errorf("p99 slowdown proxy %g < 1", res.SLOLatencyP99)
	}
}

// TestNoSLOLeavesResultUntouched pins the gating: without Config.SLO
// the run must carry zero SLO state — no metrics, no published loads —
// so pre-SLO results are reproduced exactly.
func TestNoSLOLeavesResultUntouched(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{
		Kind: trace.ScenarioDiurnal, NumVMs: 200, Duration: 43200, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if res.SLOViolationSeconds != 0 || res.SLOSampleSeconds != 0 || res.SLOViolationRate != 0 ||
		res.SLOLatencyP99 != 0 || res.SLOViolationsByPriority != nil {
		t.Errorf("non-SLO run carries SLO state: %+v", res)
	}
}

// TestSLOFrontierLatencyDominates is the SLO frontier claim: on a
// 20k-VM bursty trace, SLO-metered at MaxSlowdown 2, latency-aware
// deflation dominates proportional — no fewer admissions and strictly
// fewer violation-seconds — at every calm overcommitment point. Under
// Poisson revocation shocks it must dominate at a majority of points and
// accrue fewer violation-seconds in total: shock transients drive every
// policy to the deflation floors, so single shocked points carry
// placement noise, while the calm frontier is where the policies plan.
// `make bench-slo` runs it verbosely.
func TestSLOFrontierLatencyDominates(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{Kind: trace.ScenarioBursty, NumVMs: 20000, Duration: 3 * 86400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := PeakServerLowerBound(tr, DefaultServerCapacity())
	if err != nil {
		t.Fatal(err)
	}
	ocs := []float64{30, 50, 60}
	for _, shocked := range []bool{false, true} {
		opts := Options{BaselineServers: base, SLO: &SLOConfig{MaxSlowdown: 2}}
		if shocked {
			opts.ShockConfig = &trace.ShockConfig{Kind: trace.ShockPoisson, RatePerDay: 1, OutageMean: 2 * 3600, Seed: 1}
		}
		results, err := SweepGrid(tr, []string{StrategyProportional, StrategyLatency}, ocs, opts)
		if err != nil {
			t.Fatal(err)
		}
		dominated := 0
		var propNet, latNet float64
		for i, oc := range ocs {
			p, l := results[0].Points[i], results[1].Points[i]
			dominates := l.Admitted >= p.Admitted && l.SLOViolationSeconds < p.SLOViolationSeconds
			t.Logf("oc=%2.0f%% shocks=%-5v admitted %d/%d  viol-sec %.0f/%.0f  p99 %.2f/%.2f  dominates=%v",
				oc, shocked, l.Admitted, p.Admitted, l.SLOViolationSeconds, p.SLOViolationSeconds,
				l.SLOLatencyP99, p.SLOLatencyP99, dominates)
			if dominates {
				dominated++
			} else if !shocked {
				t.Errorf("oc=%g%% calm: latency-aware (admitted %d, %.0f viol-sec) does not dominate proportional (%d, %.0f)",
					oc, l.Admitted, l.SLOViolationSeconds, p.Admitted, p.SLOViolationSeconds)
			}
			propNet += p.SLOViolationSeconds
			latNet += l.SLOViolationSeconds
		}
		if shocked && (2*dominated < len(ocs) || latNet >= propNet) {
			t.Errorf("shocked: latency-aware dominates %d/%d points, net viol-sec %.0f vs proportional %.0f",
				dominated, len(ocs), latNet, propNet)
		}
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if b > 1 {
		scale = b
	}
	return d <= 1e-9*scale
}
