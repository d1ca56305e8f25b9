package main

import (
	"math"
	"strings"
	"testing"
)

// TestFlagsThatAskForNothingFail: -replicates 0 used to run one trace
// and -slo NaN to turn SLO metering off, both silently.
func TestFlagsThatAskForNothingFail(t *testing.T) {
	for _, n := range []int{0, -3} {
		if err := checkReplicates(n); err == nil || !strings.Contains(err.Error(), "want 1 or more") {
			t.Errorf("-replicates %d: err = %v, want one naming the valid counts", n, err)
		}
	}
	for _, c := range []struct {
		max   float64
		curve string
		want  string
	}{
		{math.NaN(), "", "want 0 (off)"},
		{math.Inf(1), "", "want 0 (off)"},
		{math.Inf(-1), "kcompile", "want 0 (off)"},
		{-2, "", "want 0 (off)"},
		{0, "kcompile", "requires -slo > 0"},
		{2, "nosuchcurve", "unknown profile"},
	} {
		if _, err := sloOptions(c.max, c.curve); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-slo %v -slocurve %q: err = %v, want one containing %q", c.max, c.curve, err, c.want)
		}
	}
}

// TestValidFlagsStillRun: one trace and more are fine, -slo 0 is off,
// and a positive threshold meters with the named curve.
func TestValidFlagsStillRun(t *testing.T) {
	for _, n := range []int{1, 5} {
		if err := checkReplicates(n); err != nil {
			t.Errorf("-replicates %d: %v", n, err)
		}
	}
	if slo, err := sloOptions(0, ""); slo != nil || err != nil {
		t.Errorf("-slo 0: %+v, %v; want metering off", slo, err)
	}
	slo, err := sloOptions(2, "kcompile")
	if err != nil || slo == nil || slo.MaxSlowdown != 2 || slo.Curve.Knee == 0 {
		t.Errorf("-slo 2 -slocurve kcompile: %+v, %v", slo, err)
	}
}
