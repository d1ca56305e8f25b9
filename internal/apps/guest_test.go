package apps

import (
	"fmt"
	"math"
	"testing"

	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/resources"
)

// TestGuestBootMovesNoAllocation: a testbed VM with a fractional CPU
// size allocates exactly its size once defined, and neither booting its
// guest beside it (ceil(size) vCPUs) nor a hybrid apply of the full size,
// whose limit write that guest caps, moves the allocation, the Deflated
// count or the allocation epoch.
func TestGuestBootMovesNoAllocation(t *testing.T) {
	for _, cores := range []float64{2, 2.4, 2.6} {
		t.Run(fmt.Sprint(cores), func(t *testing.T) {
			size := resources.New(cores, 4096, 0, 0)
			d, g, err := testbedVM("host", "vm", size)
			if err != nil {
				t.Fatal(err)
			}
			h := d.Host()
			epoch := h.AllocEpoch()
			if g.OnlineVCPUs() != int(math.Ceil(cores)) || g.PluggedMemoryMB() != 4096 {
				t.Errorf("guest boots %d vCPUs and %v MB, want %g rounded up and 4096", g.OnlineVCPUs(), g.PluggedMemoryMB(), cores)
			}
			got, err := mechanism.Hybrid{}.Apply(d, g, size)
			if err != nil {
				t.Fatal(err)
			}
			if got != size || d.Allocation() != size {
				t.Errorf("achieved %v, allocation %v, want the size %v", got, d.Allocation(), size)
			}
			if n := h.Aggregates().Deflated; n != 0 {
				t.Errorf("%d deflated domains, want 0", n)
			}
			if h.AllocEpoch() != epoch {
				t.Errorf("the guest moved the allocation epoch %d -> %d", epoch, h.AllocEpoch())
			}
		})
	}
}

// TestSweepsRejectBadPct: every entry point that takes a deflation
// percentage refuses one outside [0, 100). NaN used to pass the
// `pct < 0 || pct >= 100` checks (an undeflated point labelled NaN), and
// DeflationCurve had no lower bound at all.
func TestSweepsRejectBadPct(t *testing.T) {
	wiki, sn, lb := DefaultWikipediaConfig(), DefaultSocialNetConfig(), DefaultLBConfig()
	wiki.Duration, sn.Duration, lb.Duration = 1, 1, 1 // short, should a bad percentage ever run
	entries := map[string]func(pct float64) error{
		"DeflationCurve": func(pct float64) error {
			_, err := DeflationCurve(SpecJBB{}, mechanism.Transparent{}, []float64{pct})
			return err
		},
		"SpecJBBMemoryCurve": func(pct float64) error {
			_, err := SpecJBBMemoryCurve(mechanism.Hybrid{}, []float64{pct})
			return err
		},
		"RunWikipedia": func(pct float64) error {
			_, err := RunWikipedia(wiki, pct)
			return err
		},
		"RunSocialNetwork": func(pct float64) error {
			_, err := RunSocialNetwork(sn, pct)
			return err
		},
		"RunLBExperiment": func(pct float64) error {
			_, err := RunLBExperiment(lb, pct, true)
			return err
		},
	}
	for name, run := range entries {
		t.Run(name, func(t *testing.T) {
			for _, pct := range []float64{-10, -1e-9, math.NaN(), 100, 150, math.Inf(1), math.Inf(-1)} {
				if err := run(pct); err == nil {
					t.Errorf("%g%%: nil error", pct)
				}
			}
		})
	}
}
