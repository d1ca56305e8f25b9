package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestBuildRejectsBadParameters: a non-finite horizon used to come out
// as NaN start, end and cpu_util columns, and a sample count below one
// was reported as requested while default-length series were written.
func TestBuildRejectsBadParameters(t *testing.T) {
	cases := []struct {
		name, kind string
		days       float64
		samples    int
		want       string
	}{
		{"nan-days", "azure", math.NaN(), 288, "not finite"},
		{"inf-days", "azure", math.Inf(1), 288, "not finite"},
		{"negative-samples", "alibaba", 3, -2, "-samples -2"},
		{"zero-samples", "alibaba", 3, 0, "-samples 0"},
		{"unknown-kind", "gcp", 3, 288, "unknown kind"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := build(c.kind, 5, c.days, c.samples, 1)
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
