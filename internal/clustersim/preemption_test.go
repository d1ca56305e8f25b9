package clustersim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// TestPreemptionBaselineUnderOracleModes is the differential guarantee
// for both modes of the one event loop: one trace is run in preemption
// mode and in deflation mode, each under every retained oracle, and
// every Result must equal its default run bit for bit. The heap queue
// drives both modes. The trace is sized so the baseline actually
// preempts — otherwise the test would pass vacuously.
func TestPreemptionBaselineUnderOracleModes(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{
		Kind: trace.ScenarioDiurnal, NumVMs: 500, Duration: 86400, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModePreemption, ModeDeflation} {
		base := Config{Trace: tr, Mode: mode, Policy: policy.Priority{}, Overcommit: 0.6}
		want, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if mode == ModePreemption {
			if want.Preemptions == 0 {
				t.Fatal("baseline run preempted nothing; the differential is vacuous")
			}
			if want.FailureProbability <= 0 {
				t.Fatal("baseline failure probability is zero under pressure")
			}
		}
		runOracleModes(t, fmt.Sprintf("mode=%d/", mode), base, want)
	}
}

// TestPreemptionRepeatableOnFractionalSizes: with memory sizes that are
// not exactly representable sums, the order in which a server's
// evictable residents are folded into its available capacity decides
// the low bits of the fit score, and through it which server is
// evicted from. That order is admission order, a function of simulation
// state, so repeated runs must be identical. (Integral sizes, as the
// synthetic generators draw, are exact in any order and cannot show
// this.)
func TestPreemptionRepeatableOnFractionalSizes(t *testing.T) {
	tr := withUtil(fractionalTrace(8, 1500), 8)
	cfg := Config{Trace: tr, Mode: ModePreemption, Overcommit: 0.6}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Preemptions == 0 {
		t.Fatal("test premise broken: the baseline preempted nothing")
	}
	for i := 1; i < 20; i++ {
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged from the first:\ngot   %+v\nfirst %+v", i, *got, *first)
		}
	}
}

// matchParent runs cfg on the engine's one loop and on the parent loop
// (preemption_oracle_test.go) and fails unless both return the same
// Result, or both fail with the same error. It returns the Result.
func matchParent(t testing.TB, name string, cfg Config) *Result {
	t.Helper()
	cfg.Mode = ModePreemption
	want, wantErr := runParentPreemption(cfg)
	got, err := Run(cfg)
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s: one loop: %v; parent loop: %v", name, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: one loop diverged from the parent loop:\ngot  %+v\nwant %+v", name, *got, *want)
	}
	return got
}

// TestPreemptionMatchesParentLoop holds the preemption baseline on the
// engine's one event loop to the loop it had of its own, Result for
// Result: four scenarios × seeds 1–3 × overcommit 0 / 0.3 / 0.6 × every
// shock kind (144 configs), each also run on the streamed trace, which
// must agree; then fractional traces under explicit schedules that
// revoke (twice at one instant, too), restore, shrink and grow servers
// by factors from 0.3 to 10^6 (40 configs). The scenario configs must
// mostly preempt or shock-kill, or the differential is vacuous.
func TestPreemptionMatchesParentLoop(t *testing.T) {
	var configs, killing int
	for _, kind := range trace.Scenarios() {
		for seed := int64(1); seed <= 3; seed++ {
			s, err := trace.NewStream(trace.ScenarioConfig{Kind: kind, NumVMs: 600, Duration: 2 * 86400, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			tr := s.Materialize()
			for _, oc := range []float64{0, 0.3, 0.6} {
				for _, shock := range trace.ShockScenarios() {
					name := fmt.Sprintf("%v/seed=%d/oc=%v/%v", kind, seed, oc, shock)
					cfg := Config{Trace: tr, Mode: ModePreemption, Overcommit: oc,
						ShockConfig: &trace.ShockConfig{Kind: shock, RatePerDay: 1, Seed: seed}}
					res := matchParent(t, name, cfg)
					cfg.Trace, cfg.Stream = nil, s
					streamed, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s streamed: %v", name, err)
					}
					if !reflect.DeepEqual(streamed, res) {
						t.Fatalf("%s: streamed run diverged from eager:\nstreamed %+v\neager    %+v", name, *streamed, *res)
					}
					configs++
					if res.Preemptions+res.ShockKills > 0 {
						killing++
					}
				}
			}
		}
	}
	if killing*3 < configs*2 {
		t.Fatalf("only %d of %d scenario configs preempted or shock-killed: the differential is near vacuous", killing, configs)
	}
	for seed := int64(1); seed <= 10; seed++ {
		for _, scale := range []float64{0.3, 3, 1e3, 1e6} {
			tr := withUtil(fractionalTrace(seed, 400), seed)
			cfg := Config{Trace: tr, Overcommit: 0.6, Shocks: explicitSchedule(seed, scale)}
			matchParent(t, fmt.Sprintf("fractional/seed=%d/scale=%v", seed, scale), cfg)
		}
	}
	t.Logf("%d scenario configs, %d preempting or shock-killing; 40 explicit-schedule configs", configs, killing)
}

// withUtil gives every VM of a fractional trace a utilisation series and
// makes every other VM on-demand, so preemption has victims and takers.
func withUtil(tr *trace.AzureTrace, seed int64) *trace.AzureTrace {
	rng := rand.New(rand.NewSource(seed))
	for i, vm := range tr.VMs {
		if i%2 == 1 {
			vm.Class = trace.DelayInsensitive
		}
		for n := int((vm.End - vm.Start) / trace.SampleInterval); n > 0; n-- {
			vm.CPUUtil = append(vm.CPUUtil, rng.Float64()*100)
		}
	}
	return tr
}

// explicitSchedule is a shock list over the first eight servers on a
// fractional trace's 300 s grid: revocations (two of one server at one
// instant among them), restorations, and resizes to scale, to 0.3 and
// back to 1.
func explicitSchedule(seed int64, scale float64) []trace.CapacityShock {
	rng := rand.New(rand.NewSource(seed))
	var shocks []trace.CapacityShock
	for range 24 {
		at := float64(rng.Intn(240)) * 300
		sv := rng.Intn(8)
		switch rng.Intn(5) {
		case 0:
			shocks = append(shocks, trace.CapacityShock{At: at, Kind: trace.ShockRevoke, Server: sv},
				trace.CapacityShock{At: at, Kind: trace.ShockRevoke, Server: sv})
		case 1:
			shocks = append(shocks, trace.CapacityShock{At: at, Kind: trace.ShockRestore, Server: sv})
		case 2:
			shocks = append(shocks, trace.CapacityShock{At: at, Kind: trace.ShockResize, Server: sv, Scale: 0.3})
		case 3:
			shocks = append(shocks, trace.CapacityShock{At: at, Kind: trace.ShockResize, Server: sv, Scale: 1})
		default:
			shocks = append(shocks, trace.CapacityShock{At: at, Kind: trace.ShockResize, Server: sv, Scale: scale})
		}
	}
	return shocks
}

// TestDeflationKillsNoMoreThanPreemption is the metamorphic property
// behind Figs 20–22 under capacity shocks: on the same trace, fleet and
// shock schedule, deflation never loses more VMs to shocks than
// preemption does, since an evacuee deflates into the survivors where
// the baseline kills it outright. Four scenarios × seeds 1–4 × poisson,
// diurnal and rack shocks × overcommit 0 / 0.3 / 0.6 × the proportional
// and priority policies: 288 pairs at 1,500 VMs over two days. Both
// modes at one overcommitment provision the same fleet, and so replay
// the same generated schedule.
func TestDeflationKillsNoMoreThanPreemption(t *testing.T) {
	ocs := []float64{0, 30, 60}
	var points, killed, pairs int
	for _, kind := range trace.Scenarios() {
		for seed := int64(1); seed <= 4; seed++ {
			tr, err := trace.GenerateScenario(trace.ScenarioConfig{Kind: kind, NumVMs: 1500, Duration: 2 * 86400, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, shock := range []trace.ShockScenario{trace.ShockPoisson, trace.ShockDiurnal, trace.ShockRack} {
				strategies := []string{StrategyPreemption, StrategyProportional, StrategyPriority}
				opts := Options{ShockConfig: &trace.ShockConfig{Kind: shock, Seed: seed}}
				sweeps, err := SweepGrid(tr, strategies, ocs, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, oc := range ocs {
					pre := sweeps[0].Points[i]
					points++
					if pre.ShockKills > 0 {
						killed++
					}
					for _, sw := range sweeps[1:] {
						pairs++
						if got := sw.Points[i].ShockKills; got > pre.ShockKills {
							t.Errorf("%v seed %d, %v shocks, %v%% overcommit: %s lost %d VMs to shocks, preemption %d",
								kind, seed, shock, oc, sw.Strategy, got, pre.ShockKills)
						}
					}
				}
			}
		}
	}
	if killed*2 < points {
		t.Fatalf("preemption lost VMs to shocks at only %d of %d points: the property is near vacuous", killed, points)
	}
	t.Logf("%d pairs; preemption shock-killed at %d of %d points", pairs, killed, points)
}
