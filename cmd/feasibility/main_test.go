package main

import (
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
