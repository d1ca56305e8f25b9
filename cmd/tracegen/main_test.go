package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestBuildRejectsBadParameters: a non-finite horizon used to come out
// as NaN start, end and cpu_util columns, a horizon of zero or fewer
// days as a 300 s trace reported "over 0.0 days", a sample count below
// one was reported as requested while default-length series were
// written, and a count below one wrote a header-only CSV.
func TestBuildRejectsBadParameters(t *testing.T) {
	cases := []struct {
		name, kind string
		n          int
		days       float64
		samples    int
		want       string
	}{
		{"nan-days", "azure", 5, math.NaN(), 288, "not finite"},
		{"inf-days", "azure", 5, math.Inf(1), 288, "not finite"},
		{"zero-days", "azure", 3, 0, 288, "-days 0"},
		{"negative-days", "azure", 3, -1, 288, "-days -1"},
		{"negative-samples", "alibaba", 5, 3, -2, "-samples -2"},
		{"zero-samples", "alibaba", 5, 3, 0, "-samples 0"},
		{"unknown-kind", "gcp", 5, 3, 288, "unknown kind"},
		{"zero-vms", "azure", 0, 3, 288, "-n 0"},
		{"negative-vms", "azure", -3, 3, 288, "-n -3"},
		{"zero-containers", "alibaba", 0, 3, 288, "-n 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := build(c.kind, c.n, c.days, c.samples, 1)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestBuildWritesWhatItReports: on valid parameters the summary counts
// what the CSV holds.
func TestBuildWritesWhatItReports(t *testing.T) {
	for _, c := range []struct {
		kind, summary string
		lines         int
	}{
		{"azure", "wrote 7 VMs over 1.0 days", 8},
		{"alibaba", "wrote 7 containers x 12 samples", 8},
	} {
		write, summary, err := build(c.kind, 7, 1, 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(buf.String(), "\n"); summary != c.summary || lines != c.lines {
			t.Errorf("%s: summary %q over %d CSV lines, want %q over %d", c.kind, summary, lines, c.summary, c.lines)
		}
	}
}

// TestSeriesMatchGolden regenerates a cut-size trace of each kind, the
// invocations FIGURES.md's Traces row lists, and holds the CSV to its
// golden.
func TestSeriesMatchGolden(t *testing.T) {
	for _, g := range []struct {
		args []string
		file string
	}{
		{[]string{"-kind", "azure", "-n", "20", "-days", "1"}, "azure.csv"},
		{[]string{"-kind", "alibaba", "-n", "20", "-samples", "12"}, "alibaba.csv"},
	} {
		t.Run(g.file, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(g.args, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, g.file, out.Bytes())
		})
	}
}
