package clustersim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// runOracleModes runs base on the binary-heap event queue, as the
// subtest prefix+"heapqueue", and holds the run to want — the default
// run of base, on the streamed intake over the live-set heap — bit for
// bit, and checks that the run closed every VM it admitted: its
// metering table is empty and no trace row is still running. (Each
// admitted VM's departure is queued at its End, at most the horizon,
// and the loop drains the queue.) The placement oracles (the
// brute-force reference and the full pressure scan) are test-side in the
// cluster package, so its engine_oracle_test.go runs the same
// configuration tables under them.
func runOracleModes(t *testing.T, prefix string, base Config, want *Result) {
	t.Helper()
	t.Run(prefix+"heapqueue", func(t *testing.T) {
		useHeapQueue(t)
		e, err := NewEngine(base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("heap-queue run diverged from the default engine:\ngot  %+v\nwant %+v", *got, *want)
		}
		if len(e.tbl) > 0 {
			t.Fatalf("%d VMs still metered after the run", len(e.tbl))
		}
		if row := slices.IndexFunc(e.slotOf, func(s int32) bool { return s != slotNone }); row >= 0 {
			t.Fatalf("trace row %d still running after the run (slot %d)", row, e.slotOf[row])
		}
	})
}

// TestEngineMatchesOraclesAcrossScenarios is the determinism guarantee
// at the overcommitment the benchmarks run: under the priority policy at
// 50 %, every scenario and seed must produce a Result — every admission
// count, failure probability, throughput-loss integral and revenue
// float — bit-for-bit identical under each retained oracle.
func TestEngineMatchesOraclesAcrossScenarios(t *testing.T) {
	scenarios := []trace.Scenario{
		trace.ScenarioDiurnal, trace.ScenarioBursty, trace.ScenarioHeavyTail,
	}
	for _, kind := range scenarios {
		for _, seed := range []int64{1, 2} {
			tr, err := trace.GenerateScenario(trace.ScenarioConfig{
				Kind: kind, NumVMs: 400, Duration: 86400, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			base := Config{Trace: tr, Policy: policy.Priority{}, Overcommit: 0.5}
			want, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			runOracleModes(t, fmt.Sprintf("%v/seed=%d/", kind, seed), base, want)
		}
	}
}

// TestPartitionedEngineMatchesOracles covers priority-partitioned pools
// under the deterministic policy — the combination where per-server
// passes differ most between servers — and under the priority policy.
func TestPartitionedEngineMatchesOracles(t *testing.T) {
	tr := testTrace(400)
	for _, pol := range []policy.Policy{policy.Deterministic{}, policy.Priority{}} {
		base := Config{Trace: tr, Policy: pol, Partitioned: true, Overcommit: 0.5}
		want, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		runOracleModes(t, pol.Name()+"/", base, want)
	}
}

// TestPressurePruningDifferential runs the pressure-heavy workloads —
// every synthetic scenario plus deterministic-policy, pooled and
// shocked runs — on the binary-heap event queue, after
// checking that each actually exercises the bound-pruned descent
// (pressured arrivals AND a nonzero prune count), or the suite is
// vacuous. The cluster package's TestPressurePruningMatchesFullScan
// holds the same table to the full scan and the reference placement.
func TestPressurePruningDifferential(t *testing.T) {
	workloads := []struct {
		name string
		cfg  func() Config
	}{
		{"diurnal", func() Config {
			return Config{Trace: testTrace(400), Policy: policy.Priority{}, Overcommit: 0.5}
		}},
		{"diurnal-deterministic", func() Config {
			return Config{Trace: testTrace(400), Policy: policy.Deterministic{}, Overcommit: 0.5}
		}},
		{"bursty", func() Config {
			tr, err := trace.GenerateScenario(trace.ScenarioConfig{
				Kind: trace.ScenarioBursty, NumVMs: 400, Duration: 86400, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			return Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: 0.6}
		}},
		{"heavytail-pooled", func() Config {
			// Seed 8: heavy-tail clusters are tiny (3-5 servers), and this
			// seed is one where the per-pool bound indexes actually prune.
			tr, err := trace.GenerateScenario(trace.ScenarioConfig{
				Kind: trace.ScenarioHeavyTail, NumVMs: 400, Duration: 86400, Seed: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			return Config{Trace: tr, Policy: policy.Priority{}, Partitioned: true, Overcommit: 0.5}
		}},
		{"shocked", func() Config {
			sc := testShockConfig(7)
			sc.Kind = trace.ShockPoisson
			return Config{Trace: testTrace(400), Policy: policy.Priority{}, Overcommit: 0.5, ShockConfig: sc}
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := w.cfg()
			pruned, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			if pruned.PressuredArrivals == 0 {
				t.Fatal("no pressured arrivals — the differential is vacuous")
			}
			if pruned.PressurePruned == 0 {
				t.Fatal("bound pruning never fired — the differential is vacuous")
			}
			runOracleModes(t, "", base, pruned)
		})
	}
}
