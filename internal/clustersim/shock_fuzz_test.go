package clustersim

import (
	"fmt"
	"math"
	"testing"

	"vmdeflate/internal/trace"
)

// shockFuzzTrace is the fixed workload FuzzShockInputs replays shocks
// against: twelve VMs over about a day and a half, enough to provision
// a few servers and keep every one of them busy.
func shockFuzzTrace() *trace.AzureTrace {
	tr := &trace.AzureTrace{}
	for i := 0; i < 12; i++ {
		start := float64(i) * 1800
		end := start + float64(4+i%5)*3*3600
		util := make([]float64, int((end-start)/trace.SampleInterval))
		for j := range util {
			util[j] = float64(20 + 15*((i+j)%5))
		}
		tr.VMs = append(tr.VMs, &trace.VMRecord{
			ID: fmt.Sprintf("vm-%02d", i), Class: trace.VMClass(i % 3),
			Cores: 4 + 4*(i%4), MemoryMB: float64(8192 * (1 + i%3)),
			Start: start, End: end, CPUUtil: util,
		})
	}
	return tr
}

// decodeShocks turns fuzz bytes into an explicit schedule, four bytes
// per entry: a time on a 15-minute grid, a kind (2 and 3 are no kind), a
// server among six (so some entries address servers the run never
// provisions) and a byte that is skipped, so committed inputs decode as
// they were written. With an odd length one more entry carries the raw
// at, so NaN, ±Inf and negative times reach the validation.
func decodeShocks(list []byte, at float64) []trace.CapacityShock {
	var out []trace.CapacityShock
	for i := 0; i+4 <= len(list) && len(out) < 16; i += 4 {
		b := list[i : i+4]
		out = append(out, trace.CapacityShock{At: float64(b[0]) * 900, Kind: trace.ShockKind(b[1] % 4), Server: int(b[2] % 6)})
	}
	if len(list)%2 == 1 {
		out = append(out, trace.CapacityShock{At: at, Kind: trace.ShockKind(list[0] % 4)})
	}
	return out
}

// validShocks is the schedule rule applyDefaults must enforce.
func validShocks(shocks []trace.CapacityShock) bool {
	for _, sh := range shocks {
		switch {
		case !(sh.At >= 0) || math.IsInf(sh.At, 1):
			return false
		case sh.Kind != trace.ShockRevoke && sh.Kind != trace.ShockRestore:
			return false
		}
	}
	return true
}

// validShockConfig is the generator-parameter rule applyDefaults must
// enforce: zero is the default, a known kind (or none), and every
// amount finite and non-negative, the out fraction at most 1.
func validShockConfig(sc trace.ShockConfig) bool {
	for _, v := range []float64{sc.RatePerDay, sc.OutageMean, sc.MaxOutFraction, sc.Duration} {
		if !(v >= 0) || math.IsInf(v, 1) {
			return false
		}
	}
	if _, err := trace.ParseShockScenario(string(sc.Kind)); err != nil && sc.Kind != "" {
		return false
	}
	return sc.MaxOutFraction <= 1 && sc.RackSize >= 0
}

// FuzzShockInputs drives explicit shock schedules and generator
// parameters through Run on a tiny trace, with a raw mode and a raw
// signed baseline fleet size. Run must accept exactly the valid inputs
// — an error, never a panic, a hang or a silent default for the rest —
// and an accepted run never counts more revocations or restorations
// than its schedule holds entries of each kind for servers it
// provisioned. The last argument is unused; committed inputs carry it.
//
//	go test -run '^$' -fuzz FuzzShockInputs -fuzztime 15s -fuzzminimizetime 200x ./internal/clustersim
func FuzzShockInputs(f *testing.F) {
	f.Add(0, 0, "poisson", 2.0, 3600.0, 0.5, 0.0, 4, int64(1), []byte{}, 0.0, 0.0)
	f.Add(1, 0, "rack", 3.0, 0.0, 0.0, 86400.0, 2, int64(2), []byte{}, 0.0, 0.0)
	f.Add(0, 0, "diurnal", 6.0, 7200.0, 1.0, 0.0, 0, int64(3), []byte{}, 0.0, 0.0)
	f.Add(0, 0, "", 0.0, 0.0, 0.0, 0.0, 0, int64(0), []byte{4, 0, 0, 0, 40, 1, 0, 0, 8, 2, 1, 64, 60, 2, 1, 128}, 0.0, 0.0)
	f.Add(1, 0, "", 0.0, 0.0, 0.0, 0.0, 0, int64(0), []byte{4, 0, 1, 0, 4, 0, 1, 0, 9}, 7000.0, 0.25)
	f.Add(0, 0, "", 0.0, 0.0, 0.0, 0.0, 0, int64(0), []byte{2, 2, 0, 0, 5}, 3600.0, math.NaN())
	f.Add(1, 5, "poisson", 2.0, 3600.0, 0.5, 0.0, 0, int64(1), []byte{}, 0.0, 0.0)
	f.Add(7, 0, "poisson", 2.0, 3600.0, 0.5, 0.0, 0, int64(1), []byte{}, 0.0, 0.0)
	f.Add(-1, 0, "", 0.0, 0.0, 0.0, 0.0, 0, int64(0), []byte{4, 0, 1, 0}, 0.0, 0.0)
	f.Add(0, -3, "rack", 3.0, 0.0, 0.0, 86400.0, 2, int64(2), []byte{}, 0.0, 0.0)
	tr := shockFuzzTrace()
	var horizon float64
	for _, vm := range tr.VMs {
		horizon = math.Max(horizon, vm.End)
	}
	f.Fuzz(func(t *testing.T, mode, baseline int, kind string, rate, outage, maxOut, duration float64, rack int, seed int64, list []byte, at, _ float64) {
		cfg := Config{Trace: tr, Mode: Mode(mode), BaselineServers: baseline, Overcommit: 0.3}
		valid := (cfg.Mode == ModeDeflation || cfg.Mode == ModePreemption) && baseline >= 0
		if valid && baseline > 64 {
			t.Skip("valid but too many servers for one fuzz execution")
		}
		var shocks []trace.CapacityShock
		if len(list) > 0 {
			shocks = decodeShocks(list, at)
			cfg.Shocks = shocks
			valid = valid && validShocks(shocks)
		} else {
			sc := trace.ShockConfig{Kind: trace.ShockScenario(kind), RatePerDay: rate, OutageMean: outage,
				MaxOutFraction: maxOut, Duration: duration, RackSize: rack, Seed: seed}
			valid = valid && validShockConfig(sc)
			if valid && (rate > 48 || duration > 4*86400) {
				t.Skip("valid but too many shocks for one fuzz execution")
			}
			cfg.ShockConfig = &sc
		}
		res, err := Run(cfg)
		if valid != (err == nil) {
			t.Fatalf("valid input %v, Run err %v", valid, err)
		}
		if err != nil {
			return
		}
		if sc := cfg.ShockConfig; sc != nil {
			// The schedule the run replayed: generated for its own fleet,
			// over the trace horizon unless a duration was given.
			gen := *sc
			if gen.Duration == 0 {
				gen.Duration = horizon
			}
			shocks = trace.GenerateShocks(gen, res.Servers)
		}
		var most [2]int
		for _, sh := range shocks {
			if sh.Server < res.Servers {
				most[sh.Kind]++
			}
		}
		if res.Revocations > most[trace.ShockRevoke] || res.Restorations > most[trace.ShockRestore] {
			t.Fatalf("counted %d / %d revocations / restorations from a schedule of %v for %d servers",
				res.Revocations, res.Restorations, most, res.Servers)
		}
	})
}
