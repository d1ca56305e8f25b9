package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestFigFlag: a -fig naming no figure this command prints used to
// print nothing and exit 0; now it fails naming the figures there are.
func TestFigFlag(t *testing.T) {
	for _, fig := range []int{0, 5, 6, 7, 8, 9, 10, 11, 12} {
		if err := checkFig(fig); err != nil {
			t.Errorf("-fig %d: %v", fig, err)
		}
	}
	for _, fig := range []int{3, 4, 13, -1, 99} {
		if err := checkFig(fig); err == nil || !strings.Contains(err.Error(), "want 0 for all") {
			t.Errorf("-fig %d: err = %v, want one naming the valid figures", fig, err)
		}
	}
}

// TestSeriesMatchGolden regenerates each figure FIGURES.md lists for
// this command, on the default synthetic traces, and holds it to its
// golden.
func TestSeriesMatchGolden(t *testing.T) {
	for _, fig := range figures {
		file := fmt.Sprintf("fig%02d.txt", fig)
		t.Run(file, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-fig", strconv.Itoa(fig)}, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, file, out.Bytes())
		})
	}
}
