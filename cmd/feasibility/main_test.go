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

// TestSizeFlags: a synthetic trace of no VMs or no containers used to
// print empty tables and exit 0, or fail with a bare "stats: empty
// sample"; now it fails naming the flag, before any output.
func TestSizeFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-vms", "-3", "-fig", "6"}, "-vms -3"},
		{[]string{"-vms", "0", "-fig", "5"}, "-vms 0"},
		{[]string{"-vms", "0", "-fig", "7"}, "-vms 0"},
		{[]string{"-vms", "0", "-fig", "8"}, "-vms 0"},
		{[]string{"-containers", "0", "-fig", "9"}, "-containers 0"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want one containing %q", err, c.want)
			}
			if out.Len() > 0 {
				t.Errorf("printed %q before failing", out.String())
			}
		})
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
