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
			d, g, err := testbedVM("vm", size)
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

// interactive lists the experiments that take a Config.
var interactive = map[string]func(cfg Config, pct float64) error{
	"RunWikipedia": func(cfg Config, pct float64) error {
		_, err := RunWikipedia(cfg, pct)
		return err
	},
	"RunSocialNetwork": func(cfg Config, pct float64) error {
		_, err := RunSocialNetwork(cfg, pct)
		return err
	},
	"RunLBExperiment": func(cfg Config, pct float64) error {
		_, err := RunLBExperiment(cfg, pct, true)
		return err
	},
}

// TestSweepsRejectBadPct: every entry point that takes a deflation
// percentage refuses one outside [0, 100). NaN used to pass the
// `pct < 0 || pct >= 100` checks (an undeflated point labelled NaN), and
// the Figure 3 sweep had no lower bound at all.
func TestSweepsRejectBadPct(t *testing.T) {
	short := Config{Duration: 1, Seed: 1} // should a bad percentage ever run
	// The Figure 3 and Figure 14 curves: a Sweep of one point function.
	entries := map[string]func(pct float64) error{
		"DeflationCurve": func(pct float64) error {
			_, err := Sweep([]float64{pct}, func(pct float64) (float64, error) {
				return PerformanceAt(SpecJBB{}, mechanism.Transparent{}, pct)
			})
			return err
		},
		"SpecJBBMemoryCurve": func(pct float64) error {
			_, err := Sweep([]float64{pct}, func(pct float64) (float64, error) {
				return SpecJBBMemoryRT(mechanism.Hybrid{}, pct)
			})
			return err
		},
	}
	for name, run := range interactive {
		entries[name] = func(pct float64) error { return run(short, pct) }
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

// TestRunsRejectBadDuration: an interactive run refuses a Duration that
// is not finite and positive. Each used to run: 0 gave an all-NaN point,
// -1 measured 16 s of load, NaN a single request, and +Inf never
// returned, since the source was never stopped.
func TestRunsRejectBadDuration(t *testing.T) {
	for name, run := range interactive {
		t.Run(name, func(t *testing.T) {
			for _, d := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
				if err := run(Config{Duration: d, Seed: 1}, 0); err == nil {
					t.Errorf("duration %g: nil error", d)
				}
			}
		})
	}
}
