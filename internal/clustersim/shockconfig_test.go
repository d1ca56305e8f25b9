package clustersim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vmdeflate/internal/trace"
)

// TestShockConfigValidation: a generated shock schedule's parameters
// fail the run instead of being swapped for the generator's defaults. A
// negative rate used to run at the default 0.5/day and a NaN one at no
// rate at all; an unknown kind generated nothing. Both modes read the
// same config.
func TestShockConfigValidation(t *testing.T) {
	tr := testTrace(100)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		sc   trace.ShockConfig
	}{
		{"negative rate", trace.ShockConfig{Kind: trace.ShockPoisson, RatePerDay: -1}},
		{"NaN rate", trace.ShockConfig{Kind: trace.ShockPoisson, RatePerDay: nan}},
		{"+Inf rate", trace.ShockConfig{Kind: trace.ShockPoisson, RatePerDay: inf}},
		{"negative outage mean", trace.ShockConfig{Kind: trace.ShockPoisson, OutageMean: -3600}},
		{"NaN outage mean", trace.ShockConfig{Kind: trace.ShockDiurnal, OutageMean: nan}},
		{"-Inf outage mean", trace.ShockConfig{Kind: trace.ShockPoisson, OutageMean: -inf}},
		{"negative rack size", trace.ShockConfig{Kind: trace.ShockRack, RackSize: -4}},
		{"negative max out fraction", trace.ShockConfig{Kind: trace.ShockRack, MaxOutFraction: -0.5}},
		{"max out fraction above 1", trace.ShockConfig{Kind: trace.ShockPoisson, MaxOutFraction: 1.5}},
		{"NaN max out fraction", trace.ShockConfig{Kind: trace.ShockPoisson, MaxOutFraction: nan}},
		{"negative duration", trace.ShockConfig{Kind: trace.ShockPoisson, Duration: -86400}},
		{"NaN duration", trace.ShockConfig{Kind: trace.ShockPoisson, Duration: nan}},
		{"+Inf duration", trace.ShockConfig{Kind: trace.ShockPoisson, Duration: inf}},
		{"unknown kind", trace.ShockConfig{Kind: "weekly"}},
	}
	for _, tc := range cases {
		for _, mode := range []Mode{ModeDeflation, ModePreemption} {
			t.Run(fmt.Sprintf("%s/mode=%d", tc.name, mode), func(t *testing.T) {
				sc := tc.sc
				_, err := Run(Config{Trace: tr, Mode: mode, Overcommit: 0.3, ShockConfig: &sc})
				if err == nil || !strings.Contains(err.Error(), "shock config") {
					t.Errorf("err = %v, want a shock config error", err)
				}
			})
		}
	}
}

// TestShockConfigZeroIsDefault: a zero field still means the generator's
// default, so a config that spells the defaults out runs the same
// schedule, and an empty kind runs none.
func TestShockConfigZeroIsDefault(t *testing.T) {
	tr := testTrace(150)
	run := func(sc *trace.ShockConfig) *Result {
		t.Helper()
		res, err := Run(Config{Trace: tr, Overcommit: 0.3, ShockConfig: sc})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, kind := range []trace.ShockScenario{trace.ShockPoisson, trace.ShockDiurnal, trace.ShockRack} {
		// A raised rate so that this small fleet sees shocks at all.
		zero := run(&trace.ShockConfig{Kind: kind, Seed: 3, RatePerDay: 4})
		spelled := run(&trace.ShockConfig{Kind: kind, Seed: 3, RatePerDay: 4, Duration: 2 * 86400,
			OutageMean: 2 * 3600, RackSize: 8, MaxOutFraction: 0.5})
		if zero.Revocations == 0 {
			t.Errorf("%s: the default schedule revoked nothing; the comparison below is vacuous", kind)
		}
		if !reflect.DeepEqual(zero, spelled) {
			t.Errorf("%s: zero fields and spelled-out defaults disagree:\n%+v\n%+v", kind, zero, spelled)
		}
	}
	if none, calm := run(&trace.ShockConfig{Seed: 3}), run(nil); none.Revocations != 0 || !reflect.DeepEqual(none, calm) {
		t.Errorf("an empty kind ran %d revocations, want the calm run", none.Revocations)
	}
}
