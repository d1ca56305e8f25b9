package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vmdeflate/internal/trace"
)

// TestFlagsThatAskForNothingFail: -replicates 0 used to run one trace
// and -slo NaN to turn SLO metering off, both silently. A shock
// parameter flag that shapes no schedule was ignored too — all four of
// them under -shocks none, -racksize under poisson and diurnal shocks —
// and the sweep ran without the shocks or rack size it was given. A
// flag given at its default value counts as given. A synthetic horizon
// of zero or fewer days ran on one 300 s sample and printed a result
// table, and -vms 0 printed the header before failing with a bare
// "empty trace". Under -azure the synthetic-only flags were ignored:
// -azure F -replicates 3 printed one trace's sweep. Each fails naming
// its flag, before any output.
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
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-shocks", "none", "-shockrate", "4"}, "-shockrate applies only with"},
		{[]string{"-shockrate", "4"}, "-shockrate applies only with"},
		{[]string{"-outage", "600"}, "-outage applies only with"},
		{[]string{"-shocks", "none", "-racksize", "8"}, "-racksize applies only with"},
		{[]string{"-shockseed", "7"}, "-shockseed applies only with"},
		{[]string{"-shocks", "poisson", "-racksize", "4"}, "-racksize applies only with -shocks rack, not poisson"},
		{[]string{"-shocks", "diurnal", "-racksize", "8"}, "-racksize applies only with -shocks rack, not diurnal"},
		{[]string{"-days", "0"}, "-days 0: want a horizon above 0"},
		{[]string{"-days", "-1", "-vms", "200"}, "-days -1: want a horizon above 0"},
		{[]string{"-days", "-1", "-stream"}, "-days -1: want a horizon above 0"},
		{[]string{"-days", "0", "-replicates", "2"}, "-days 0: want a horizon above 0"},
		{[]string{"-vms", "0"}, "-vms 0: want at least 1 VM"},
		{[]string{"-vms", "-5", "-stream"}, "-vms -5: want at least 1 VM"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			args := append([]string{"-vms", "20", "-days", "1", "-oc", "0"}, c.args...)
			var out bytes.Buffer
			if err := run(args, &out); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want one containing %q", err, c.want)
			}
			if out.Len() > 0 {
				t.Errorf("printed %q before failing", out.String())
			}
		})
	}
	csv := writeAzureCSV(t)
	for _, flagArgs := range [][]string{
		{"-replicates", "3"},
		{"-vms", "2000"}, // the default counts as given
		{"-days", "1"},
		{"-scenario", "azure"},
		{"-seed", "1"},
	} {
		t.Run("-azure F "+strings.Join(flagArgs, " "), func(t *testing.T) {
			args := append([]string{"-azure", csv, "-oc", "0", "-strategies", "proportional"}, flagArgs...)
			want := flagArgs[0] + " applies only to synthetic traces"
			var out bytes.Buffer
			if err := run(args, &out); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("err = %v, want one containing %q", err, want)
			}
			if out.Len() > 0 {
				t.Errorf("printed %q before failing", out.String())
			}
		})
	}
}

// writeAzureCSV writes a 20-VM synthetic trace in the Azure CSV format
// to a temporary file and returns its path.
func writeAzureCSV(t *testing.T) string {
	t.Helper()
	tr, err := trace.GenerateNamed("azure", 20, 86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteAzureCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "azure.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestValidFlagsStillRun: one trace and more are fine, -slo 0 is off,
// a positive threshold meters with the named curve, each shock
// parameter flag is taken where it shapes the schedule, and -azure runs
// its CSV with the flags that shape a sweep.
func TestValidFlagsStillRun(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-azure", writeAzureCSV(t), "-oc", "0,30", "-strategies", "proportional", "-slo", "2"}, &out); err != nil {
		t.Errorf("-azure: %v", err)
	} else if !strings.HasPrefix(out.String(), "trace: 20 VMs") {
		t.Errorf("-azure printed %q, want the CSV's 20 VMs", out.String())
	}
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
	for _, c := range []struct {
		scenario string
		set      []string
		want     *trace.ShockConfig
	}{
		{"rack", []string{"shocks", "racksize", "shockrate"},
			&trace.ShockConfig{Kind: trace.ShockRack, RatePerDay: 2, OutageMean: 600, RackSize: 4, Seed: 9}},
		{"poisson", []string{"shocks", "outage", "shockseed", "shockrate"},
			&trace.ShockConfig{Kind: trace.ShockPoisson, RatePerDay: 2, OutageMean: 600, RackSize: 4, Seed: 9}},
		{"none", []string{"shocks"}, nil},
		{"none", nil, nil},
	} {
		set := map[string]bool{}
		for _, name := range c.set {
			set[name] = true
		}
		sc, err := shockConfig(c.scenario, set, 2, 600, 4, 9)
		if err != nil || !reflect.DeepEqual(sc, c.want) {
			t.Errorf("-shocks %s with %v set: %+v, %v; want %+v", c.scenario, c.set, sc, err, c.want)
		}
	}
}

// TestSeriesMatchGolden regenerates the default sweep behind Figures
// 20-22 (every strategy, 2,000 synthetic VMs over 3 days, 0-70 %
// overcommitment) and holds it to its golden.
func TestSeriesMatchGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep.txt", out.Bytes())
}
