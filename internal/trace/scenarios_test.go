package trace

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseScenario(t *testing.T) {
	for _, sc := range Scenarios() {
		got, err := ParseScenario(string(sc))
		if err != nil || got != sc {
			t.Errorf("ParseScenario(%q) = %v, %v", sc, got, err)
		}
	}
	if _, err := ParseScenario("nope"); err == nil {
		t.Error("unknown scenario should fail")
	}
}

// TestNonFiniteDurationFails: a NaN or ±Inf horizon used to slip past
// the clamp to one sample interval and come out as NaN start, end and
// utilisation columns, or as an index-out-of-range panic in UtilAt. Every
// scenario entry point that builds a stream now returns an error naming
// it instead, with or without VMs to generate.
func TestNonFiniteDurationFails(t *testing.T) {
	entries := map[string]func(d float64, n int) error{
		"NewStream": func(d float64, n int) error {
			_, err := NewStream(ScenarioConfig{Kind: ScenarioBursty, NumVMs: n, Duration: d, Seed: 1})
			return err
		},
		"GenerateScenario": func(d float64, n int) error {
			_, err := GenerateScenario(ScenarioConfig{NumVMs: n, Duration: d, Seed: 1})
			return err
		},
		"GenerateNamed": func(d float64, n int) error {
			_, err := GenerateNamed("heavytail", n, d, 1)
			return err
		},
		"NewNamedStream": func(d float64, n int) error {
			_, err := NewNamedStream("diurnal", n, d, 1)
			return err
		},
		"ScenarioGenerator": func(d float64, n int) error {
			_, err := ScenarioGenerator("azure", n, d)
			return err
		},
	}
	for name, build := range entries {
		for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, n := range []int{0, 20} {
				err := build(d, n)
				if err == nil || !strings.Contains(err.Error(), "not finite") {
					t.Errorf("%s(duration %g, %d VMs): err = %v, want one naming the non-finite duration", name, d, n, err)
				}
			}
		}
		// A finite horizon below one interval is still raised to one.
		if err := build(-86400, 20); err != nil {
			t.Errorf("%s(duration -86400): %v", name, err)
		}
	}
}

// checkWellFormed asserts the invariants every scenario must satisfy for
// the cluster simulator: in-horizon lifetimes, positive sizes that fit
// the paper's servers, and a utilisation sample per interval.
func checkWellFormed(t *testing.T, tr *AzureTrace, cfg ScenarioConfig) {
	t.Helper()
	if len(tr.VMs) != cfg.NumVMs {
		t.Fatalf("VMs = %d, want %d", len(tr.VMs), cfg.NumVMs)
	}
	for _, vm := range tr.VMs {
		if vm.Start < 0 || vm.End > cfg.Duration || vm.End-vm.Start < SampleInterval {
			t.Fatalf("%s lifetime [%g,%g] outside horizon %g", vm.ID, vm.Start, vm.End, cfg.Duration)
		}
		if vm.Cores < 1 || vm.MemoryMB <= 0 || vm.MemoryMB > 98304 {
			t.Fatalf("%s size = %d cores / %g MB", vm.ID, vm.Cores, vm.MemoryMB)
		}
		if len(vm.CPUUtil) == 0 {
			t.Fatalf("%s has no utilisation samples", vm.ID)
		}
		for _, u := range vm.CPUUtil {
			if u < 0 || u > 100 {
				t.Fatalf("%s utilisation sample %g out of range", vm.ID, u)
			}
		}
	}
}

func TestGenerateScenarioWellFormedAndDeterministic(t *testing.T) {
	for _, kind := range Scenarios() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultScenarioConfig(kind)
			cfg.NumVMs = 300
			cfg.Duration = 2 * 86400
			tr, err := GenerateScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkWellFormed(t, tr, cfg)

			// Same config, same trace — the property parallel sweep
			// workers rely on.
			again, err := GenerateScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tr, again) {
				t.Error("generation is not deterministic for a fixed seed")
			}

			// A different seed must change the workload.
			cfg2 := cfg
			cfg2.Seed++
			other, err := GenerateScenario(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(tr, other) {
				t.Error("different seeds produced identical traces")
			}
		})
	}
}

func TestScenarioShapes(t *testing.T) {
	const day = 86400.0
	// Bursty: a sizeable cohort of short-lived hot interactive VMs.
	cfg := DefaultScenarioConfig(ScenarioBursty)
	cfg.NumVMs = 600
	tr, err := GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	short := 0
	for _, vm := range tr.VMs {
		if vm.Class == Interactive && vm.Lifetime() <= 2*3600 {
			short++
		}
	}
	if short < cfg.NumVMs/5 {
		t.Errorf("bursty: only %d short-lived interactive VMs of %d", short, cfg.NumVMs)
	}

	// Heavy tail: most VMs short, but some survive beyond a day.
	cfg = DefaultScenarioConfig(ScenarioHeavyTail)
	cfg.NumVMs = 600
	tr, err = GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var under1h, over1d int
	for _, vm := range tr.VMs {
		switch {
		case vm.Lifetime() <= 3600:
			under1h++
		case vm.Lifetime() > day:
			over1d++
		}
	}
	if under1h < cfg.NumVMs/2 {
		t.Errorf("heavytail: %d/%d VMs under an hour, want a short-lived majority", under1h, cfg.NumVMs)
	}
	if over1d == 0 {
		t.Error("heavytail: no VM survived beyond a day")
	}

	// Diurnal: daytime (accept-reject peak) arrivals should clearly
	// outnumber off-peak arrivals. sin(2*pi*t/day) peaks at t=day/4.
	cfg = DefaultScenarioConfig(ScenarioDiurnal)
	cfg.NumVMs = 600
	tr, err = GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var peak, trough int
	for _, vm := range tr.VMs {
		phase := math.Mod(vm.Start, day) / day
		switch {
		case phase >= 0.05 && phase < 0.45: // around the sin peak
			peak++
		case phase >= 0.55 && phase < 0.95: // around the sin trough
			trough++
		}
	}
	if peak <= trough {
		t.Errorf("diurnal: peak-window arrivals %d not above trough-window %d", peak, trough)
	}
}
