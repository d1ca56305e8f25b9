package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFigFlag: a -fig naming no figure this command prints used to
// print nothing and exit 0; now it fails naming the figures there are.
func TestFigFlag(t *testing.T) {
	for _, fig := range []int{0, 3, 14, 16, 17, 18, 19} {
		if err := checkFig(fig); err != nil {
			t.Errorf("-fig %d: %v", fig, err)
		}
	}
	for _, fig := range []int{99, 1, 5, -3, 15} {
		if err := checkFig(fig); err == nil || !strings.Contains(err.Error(), "want 0 for all") {
			t.Errorf("-fig %d: err = %v, want one naming the valid figures", fig, err)
		}
	}
}

// TestSeriesMatchGolden regenerates each figure FIGURES.md lists for
// this command and holds it to its golden. -fig 16 and -fig 17 print
// the same pair of series, so they share one file.
func TestSeriesMatchGolden(t *testing.T) {
	for _, g := range []struct {
		fig  string
		file string
	}{
		{"3", "fig03.txt"},
		{"14", "fig14.txt"},
		{"16", "fig16-17.txt"},
		{"18", "fig18.txt"},
		{"19", "fig19.txt"},
	} {
		t.Run(g.file, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-fig", g.fig}, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, g.file, out.Bytes())
		})
	}
}
