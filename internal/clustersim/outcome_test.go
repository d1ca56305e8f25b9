package clustersim

import (
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// scanCounts is the slice of a Result folded from the manager's
// per-placement outcome records: the pressure-scan work and the
// admission failures. The golden digests do not cover the first three.
type scanCounts struct {
	PressuredArrivals, PressureScored, PressurePruned int
	ReclamationFailures                               int
}

func scanCountsOf(r *Result) scanCounts {
	return scanCounts{r.PressuredArrivals, r.PressureScored, r.PressurePruned, r.ReclamationFailures}
}

// TestPinnedScanCounters pins the outcome folds to the counts the
// manager's own counters reported before the manager stopped counting:
// one rack-shocked run whose evacuations both relocate and kill (evacuee
// placements feed the scan meters but never the admission failures) and
// one SLO-metered run. A fold that drops, doubles or misclassifies a
// placement moves a count.
func TestPinnedScanCounters(t *testing.T) {
	diurnal, err := trace.GenerateScenario(trace.ScenarioConfig{Kind: trace.ScenarioDiurnal, NumVMs: 400, Duration: 86400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sc := testShockConfig(7)
	sc.Kind = trace.ShockRack
	bursty, err := trace.GenerateScenario(trace.ScenarioConfig{Kind: trace.ScenarioBursty, NumVMs: 400, Duration: 86400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		want scanCounts
		// vacuous reports a run that does not exercise what it pins.
		vacuous func(r *Result) bool
	}{
		{"shocked", Config{Trace: diurnal, Policy: policy.Priority{}, Overcommit: 0.75, ShockConfig: sc}, scanCounts{192, 176, 959, 9},
			func(r *Result) bool { return r.Evacuations == 0 || r.ShockKills == 0 }},
		{"slo", sloTestConfig(bursty, 0.5), scanCounts{32, 33, 415, 0},
			func(r *Result) bool { return r.SLOSampleSeconds == 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.vacuous(res) {
				t.Fatalf("vacuous run: %+v", *res)
			}
			if got := scanCountsOf(res); got != c.want {
				t.Fatalf("counts = %+v, want %+v", got, c.want)
			}
			if res.ReclamationFailures != res.Rejected {
				t.Fatalf("ReclamationFailures %d != Rejected %d", res.ReclamationFailures, res.Rejected)
			}
		})
	}
}
