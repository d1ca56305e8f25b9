package cluster_test

import (
	"cmp"
	"fmt"
	"reflect"
	"testing"

	"vmdeflate/internal/cluster"
	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// The placement oracles at engine level: whole clustersim runs with
// every Manager answering its placement queries through the brute-force
// reference or the full pressure scan (cluster.UseOracle), held to the
// shipped indexed, pruned run. clustersim's own tests cannot reach the
// oracles, so the configuration tables of its differential suites —
// synthetic scenarios × seeds × overcommit × policies, pools,
// preemption, shocks, SLO and the streamed intake — are run here;
// clustersim runs the same tables on its binary-heap event queue.

// normalizeScanMeters returns a copy of r with the two pressure-scan
// meters zeroed: an oracle's full scan scores every pool server and
// prunes none, while the bound-pruned descent scores only what the
// bounds cannot exclude. Every other field — PressuredArrivals included,
// which is mode-invariant — must still match bit for bit.
func normalizeScanMeters(r *clustersim.Result) *clustersim.Result {
	c := *r
	c.PressureScored = 0
	c.PressurePruned = 0
	return &c
}

// placementOracles are the oracles every table runs under.
var placementOracles = []string{"reference", "fullscan"}

// runPlacementOracles runs base under each placement oracle, as the
// subtests prefix+oracle, and holds each run to want, the shipped run of
// base.
func runPlacementOracles(t *testing.T, prefix string, base clustersim.Config, want *clustersim.Result) {
	t.Helper()
	for _, oracle := range placementOracles {
		t.Run(prefix+oracle, func(t *testing.T) {
			cluster.UseOracle(t, oracle)
			got, err := clustersim.Run(base)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizeScanMeters(got), normalizeScanMeters(want)) {
				t.Fatalf("%s run diverged from the shipped engine:\ngot  %+v\nwant %+v", oracle, *got, *want)
			}
		})
	}
}

// runAgainstOracles runs base on the shipped engine and then under each
// placement oracle, returning the shipped run for vacuity checks.
func runAgainstOracles(t *testing.T, prefix string, base clustersim.Config) *clustersim.Result {
	t.Helper()
	want, err := clustersim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	runPlacementOracles(t, prefix, base, want)
	return want
}

// testTrace builds a small but non-trivial Azure-like trace.
func testTrace(nVMs int) *trace.AzureTrace {
	tr, err := trace.GenerateNamed("azure", nVMs, 2*86400, 1)
	if err != nil {
		panic(err)
	}
	return tr
}

// scenarioTrace generates a one-day synthetic trace.
func scenarioTrace(t *testing.T, kind trace.Scenario, nVMs int, seed int64) *trace.AzureTrace {
	t.Helper()
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{Kind: kind, NumVMs: nVMs, Duration: 86400, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testShockConfig(seed int64) *trace.ShockConfig {
	return &trace.ShockConfig{Kind: trace.ShockPoisson, RatePerDay: 2, OutageMean: 4 * 3600, Seed: seed}
}

// poolsResizeConfig is a run on priority-partitioned pools under an
// explicit schedule of revocations and resizes (clustersim's test of the
// same name): servers leave, return, shrink and grow back, so each
// pool's indexes see entries go, come back and change size.
func poolsResizeConfig(tr *trace.AzureTrace) clustersim.Config {
	h := tr.Duration()
	return clustersim.Config{
		Trace:       tr,
		Policy:      policy.Priority{},
		Partitioned: true,
		Overcommit:  0.4,
		Shocks: []trace.CapacityShock{
			{At: 0.15 * h, Kind: trace.ShockResize, Server: 0, Scale: 0.4},
			{At: 0.2 * h, Kind: trace.ShockRevoke, Server: 3},
			{At: 0.3 * h, Kind: trace.ShockResize, Server: 5, Scale: 0.3},
			{At: 0.4 * h, Kind: trace.ShockRestore, Server: 3},
			{At: 0.45 * h, Kind: trace.ShockResize, Server: 1, Scale: 0.5},
			{At: 0.5 * h, Kind: trace.ShockResize, Server: 0, Scale: 1},
			{At: 0.6 * h, Kind: trace.ShockRevoke, Server: 2},
			{At: 0.7 * h, Kind: trace.ShockResize, Server: 5, Scale: 1},
			{At: 0.8 * h, Kind: trace.ShockRestore, Server: 2},
			{At: 0.85 * h, Kind: trace.ShockResize, Server: 1, Scale: 1},
		},
	}
}

// sloTestConfig is a latency-policy, SLO-metered run.
func sloTestConfig(tr *trace.AzureTrace, oc float64) clustersim.Config {
	slo := &clustersim.SLOConfig{Curve: perfmodel.Kcompile, MaxSlowdown: 2}
	return clustersim.Config{
		Trace:      tr,
		Policy:     policy.LatencyAware{Curve: slo.Curve, MaxSlowdown: slo.MaxSlowdown},
		Overcommit: oc,
		SLO:        slo,
	}
}

var synthetic = []trace.Scenario{trace.ScenarioDiurnal, trace.ScenarioBursty, trace.ScenarioHeavyTail}

// TestEngineMatchesPlacementOracles is the end-to-end placement-identity
// guarantee of the capacity indexes and the pruned descent: across the
// synthetic scenarios, two seeds, and each policy at the overcommitment
// levels the differential suites sweep, a run under either oracle
// matches the shipped run in every admission count, failure
// probability, throughput-loss integral and revenue float.
func TestEngineMatchesPlacementOracles(t *testing.T) {
	points := []struct {
		pol policy.Policy
		ocs []float64
	}{
		{policy.Proportional{}, []float64{0.3, 0.6}},
		{policy.Priority{}, []float64{0.3, 0.5, 0.6}},
		{policy.Deterministic{}, []float64{0.3, 0.6}},
	}
	for _, kind := range synthetic {
		for _, seed := range []int64{1, 2} {
			tr := scenarioTrace(t, kind, 400, seed)
			for _, p := range points {
				for _, oc := range p.ocs {
					base := clustersim.Config{Trace: tr, Policy: p.pol, Overcommit: oc}
					runAgainstOracles(t, fmt.Sprintf("%v/seed=%d/%s/oc=%v/", kind, seed, p.pol.Name(), oc), base)
				}
			}
		}
	}
}

// TestPartitionedEngineMatchesPlacementOracles covers priority-partitioned
// pools, where the indexes split per pool, under the deterministic policy
// — where per-server passes differ most between servers — and under the
// priority policy.
func TestPartitionedEngineMatchesPlacementOracles(t *testing.T) {
	tr := testTrace(400)
	for _, pol := range []policy.Policy{policy.Deterministic{}, policy.Priority{}} {
		base := clustersim.Config{Trace: tr, Policy: pol, Partitioned: true, Overcommit: 0.5}
		runAgainstOracles(t, pol.Name()+"/", base)
	}
}

// TestPreemptionUnderPlacementOracles: one trace in preemption mode and
// in deflation mode. The preemption loop ignores the placement oracles
// and must prove it; the trace is sized so the baseline preempts.
func TestPreemptionUnderPlacementOracles(t *testing.T) {
	tr := scenarioTrace(t, trace.ScenarioDiurnal, 500, 3)
	for _, mode := range []clustersim.Mode{clustersim.ModePreemption, clustersim.ModeDeflation} {
		base := clustersim.Config{Trace: tr, Mode: mode, Policy: policy.Priority{}, Overcommit: 0.6}
		want := runAgainstOracles(t, fmt.Sprintf("mode=%d/", mode), base)
		if mode == clustersim.ModePreemption && (want.Preemptions == 0 || want.FailureProbability <= 0) {
			t.Fatalf("baseline preempted %d VMs (failure probability %g); the differential is vacuous",
				want.Preemptions, want.FailureProbability)
		}
	}
}

// TestRevocationUnderPlacementOracles: under revocation churn — Poisson
// and rack shocks over each synthetic scenario — deflation-first
// evacuation places identically under both oracles.
func TestRevocationUnderPlacementOracles(t *testing.T) {
	for _, kind := range synthetic {
		tr := scenarioTrace(t, kind, 400, 3)
		for _, shockKind := range []trace.ShockScenario{trace.ShockPoisson, trace.ShockRack} {
			sc := testShockConfig(7)
			sc.Kind = shockKind
			base := clustersim.Config{Trace: tr, Policy: policy.Priority{}, Overcommit: 0.5, ShockConfig: sc}
			if want := runAgainstOracles(t, fmt.Sprintf("%v/%v/", kind, shockKind), base); want.Revocations == 0 {
				t.Fatalf("%v/%v: no revocations — the suite is vacuous", kind, shockKind)
			}
		}
	}
}

// TestRestoreRevokeRaceUnderPlacementOracles replays the nastiest
// explicit schedule: restores and revocations sharing an instant with
// an in-flight evacuation, and a restore + re-revoke of one server at
// one instant.
func TestRestoreRevokeRaceUnderPlacementOracles(t *testing.T) {
	tr := testTrace(350)
	h := tr.Duration()
	shocks := []trace.CapacityShock{
		{At: 0.2 * h, Kind: trace.ShockRevoke, Server: 0},
		{At: 0.5 * h, Kind: trace.ShockRestore, Server: 0},
		{At: 0.5 * h, Kind: trace.ShockRevoke, Server: 1},
		{At: 0.5 * h, Kind: trace.ShockRevoke, Server: 2},
		{At: 0.7 * h, Kind: trace.ShockRestore, Server: 1},
		{At: 0.7 * h, Kind: trace.ShockRevoke, Server: 1},
		{At: 0.9 * h, Kind: trace.ShockRestore, Server: 1},
		{At: 0.9 * h, Kind: trace.ShockRestore, Server: 2},
	}
	base := clustersim.Config{Trace: tr, Policy: policy.Priority{}, Overcommit: 0.5, Shocks: shocks}
	if want := runAgainstOracles(t, "", base); want.Revocations != 4 || want.Evacuations == 0 {
		t.Fatalf("premise broken: %d revocations, %d evacuations", want.Revocations, want.Evacuations)
	}
}

// TestSLOUnderPlacementOracles: every SLO metric — violation seconds,
// rate, p99 proxy, the per-priority map — under the latency-aware
// policy, across the synthetic scenarios.
func TestSLOUnderPlacementOracles(t *testing.T) {
	for _, kind := range synthetic {
		base := sloTestConfig(scenarioTrace(t, kind, 400, 3), 0.5)
		if want := runAgainstOracles(t, fmt.Sprintf("%v/", kind), base); want.SLOSampleSeconds == 0 {
			t.Fatalf("%v: degenerate run, no SLO samples metered", kind)
		}
	}
}

// TestStreamedUnderPlacementOracles: runs driven by a trace.Stream —
// every scenario and two seeds, plus one run with pools, SLO metering
// and Poisson shocks all on — place identically under both oracles.
func TestStreamedUnderPlacementOracles(t *testing.T) {
	for _, kind := range trace.Scenarios() {
		for _, seed := range []int64{1, 2} {
			s, err := trace.NewStream(trace.ScenarioConfig{Kind: kind, NumVMs: 400, Duration: 86400, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			base := clustersim.Config{Stream: s, Policy: policy.Priority{}, Overcommit: 0.5}
			runAgainstOracles(t, fmt.Sprintf("%v/seed=%d/", kind, seed), base)
		}
	}
	s, err := trace.NewStream(trace.ScenarioConfig{Kind: trace.ScenarioBursty, NumVMs: 500, Duration: 2 * 86400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := clustersim.Config{
		Stream:      s,
		Policy:      policy.Priority{},
		Partitioned: true,
		Overcommit:  0.4,
		SLO:         &clustersim.SLOConfig{},
		ShockConfig: testShockConfig(11),
	}
	if want := runAgainstOracles(t, "full-features/", base); want.Revocations == 0 || want.SLOSampleSeconds == 0 {
		t.Fatalf("premise broken: want shocks and SLO samples, got %+v", *want)
	}
}

// TestPressurePruningMatchesFullScan is the acceptance guarantee of the
// pressure index on the pressure-heavy workloads of clustersim's
// TestPressurePruningDifferential: the pruned descent matches the full
// scan, which prunes nothing, with the meters adding up, and the
// reference placement.
func TestPressurePruningMatchesFullScan(t *testing.T) {
	workloads := []struct {
		name string
		cfg  clustersim.Config
	}{
		{"diurnal", clustersim.Config{Trace: testTrace(400), Policy: policy.Priority{}, Overcommit: 0.5}},
		{"diurnal-deterministic", clustersim.Config{Trace: testTrace(400), Policy: policy.Deterministic{}, Overcommit: 0.5}},
		{"bursty", clustersim.Config{Trace: scenarioTrace(t, trace.ScenarioBursty, 400, 5), Policy: policy.Proportional{}, Overcommit: 0.6}},
		{"heavytail-pooled", clustersim.Config{Trace: scenarioTrace(t, trace.ScenarioHeavyTail, 400, 8), Policy: policy.Priority{}, Partitioned: true, Overcommit: 0.5}},
		{"shocked", clustersim.Config{Trace: testTrace(400), Policy: policy.Priority{}, Overcommit: 0.5, ShockConfig: testShockConfig(7)}},
		{"pools-resize", poolsResizeConfig(testTrace(400))},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			pruned, full := runScanPair(t, w.cfg)
			if full.PressurePruned != 0 || full.PressureScored <= pruned.PressureScored {
				t.Fatalf("full scan scored %d and pruned %d, pruned descent scored %d — want a full scan that prunes nothing and scores more",
					full.PressureScored, full.PressurePruned, pruned.PressureScored)
			}
			t.Run("reference", func(t *testing.T) {
				cluster.UseOracle(t, "reference")
				ref, err := clustersim.Run(w.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(normalizeScanMeters(ref), normalizeScanMeters(pruned)) {
					t.Fatalf("reference run diverged from the pruned descent:\nref    %+v\npruned %+v", *ref, *pruned)
				}
			})
		})
	}
}

// runScanPair runs base on the shipped pruned descent and under the
// full-scan oracle, and checks what every such pair must satisfy: the
// Results are equal up to the scan meters, and the run is non-vacuous
// (pressured arrivals, and servers the bounds pruned).
func runScanPair(t *testing.T, base clustersim.Config) (pruned, full *clustersim.Result) {
	t.Helper()
	pruned, err := clustersim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("fullscan", func(t *testing.T) {
		cluster.UseOracle(t, "fullscan")
		if full, err = clustersim.Run(base); err != nil {
			t.Fatal(err)
		}
	})
	if full == nil {
		t.FailNow()
	}
	if !reflect.DeepEqual(normalizeScanMeters(pruned), normalizeScanMeters(full)) {
		t.Fatalf("pruned run diverged from the full scan:\npruned %+v\nfull   %+v", *pruned, *full)
	}
	if pruned.PressuredArrivals == 0 || pruned.PressurePruned == 0 {
		t.Fatalf("vacuous: %d pressured arrivals, %d servers pruned", pruned.PressuredArrivals, pruned.PressurePruned)
	}
	return pruned, full
}

// minPruneShare is the pressure gate's bar on the share of the full
// scan's fitness evaluations the bound index saves. Its first
// measurement read 0.9893 (6,039,045 of 6,104,568 on 92 servers); the
// counts are deterministic, so falling through the bar means the
// descent lost pruning power, on any machine.
const minPruneShare = 0.98

// TestPressureGatePrunesWork is the pressure gate as a work count rather
// than a wall clock: a 100k-VM heavy-tail trace over three days at 75 %
// overcommitment, where most arrivals fall through to the
// under-pressure descent, run on the pruned descent and under the
// full-scan oracle. The Results must match up to the scan meters, the
// meters must add up, and the descent must skip at least minPruneShare
// of the servers the full scan scores. `make bench-pressure` runs it
// verbosely.
func TestPressureGatePrunesWork(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{Kind: trace.ScenarioHeavyTail, NumVMs: 100000, Duration: 3 * 86400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := clustersim.PeakServerLowerBound(tr, clustersim.DefaultServerCapacity())
	if err != nil {
		t.Fatal(err)
	}
	pruned, full := runScanPair(t, clustersim.Config{Trace: tr, Overcommit: 0.75, BaselineServers: base})
	// Every descent covers its whole pool, so it scores or prunes each
	// server the full scan scores, exactly once.
	if pruned.PressureScored+pruned.PressurePruned != full.PressureScored {
		t.Fatalf("meters: pruned descent scored %d + pruned %d != full scan's %d scored",
			pruned.PressureScored, pruned.PressurePruned, full.PressureScored)
	}
	share := float64(pruned.PressurePruned) / float64(full.PressureScored)
	t.Logf("%d servers, %d pressured arrivals: descent scored %d and pruned %d of the full scan's %d (prune share %.4f, bar %.2f)",
		pruned.Servers, pruned.PressuredArrivals, pruned.PressureScored, pruned.PressurePruned, full.PressureScored, share, minPruneShare)
	if share < minPruneShare {
		t.Fatalf("prune share %.4f below the bar %.2f", share, minPruneShare)
	}
}

// TestSweepMatchesPlacementOraclesAtAnyWorkerCount closes the loop with
// the sweep layer: a parallel shipped sweep equals a sequential sweep
// under each oracle, so neither the indexes nor the worker pool
// introduce any scheduling sensitivity.
func TestSweepMatchesPlacementOraclesAtAnyWorkerCount(t *testing.T) {
	tr := testTrace(250)
	strategies := []string{clustersim.StrategyProportional, clustersim.StrategyPriority}
	ocs := []float64{0, 40}
	sweep := func(t *testing.T, workers int) []*clustersim.SweepResult {
		rs, err := clustersim.SweepGrid(tr, strategies, ocs, clustersim.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		// A point carries its run's whole Result, scan meters included.
		for _, sr := range rs {
			for i := range sr.Points {
				sr.Points[i].Result = *normalizeScanMeters(&sr.Points[i].Result)
			}
		}
		return rs
	}
	want := sweep(t, 8)
	for _, oracle := range placementOracles {
		t.Run(oracle, func(t *testing.T) {
			cluster.UseOracle(t, oracle)
			if got := sweep(t, 1); !reflect.DeepEqual(got, want) {
				t.Fatalf("sequential %s sweep diverged from the parallel shipped sweep:\n%+v\n%+v", oracle, got, want)
			}
		})
	}
}

// BenchmarkDeflationRunOracles10k is BenchmarkDeflationRun10k's run — a
// 10k-VM Azure-like trace at 50 % overcommitment — on the shipped
// indexes and under each oracle: the indexed/reference ratio is what the
// capacity indexes buy, indexed/fullscan what the pruned descent buys.
func BenchmarkDeflationRunOracles10k(b *testing.B) {
	tr := testTrace(10000)
	base, err := clustersim.BaselineServerCount(tr, clustersim.DefaultServerCapacity())
	if err != nil {
		b.Fatal(err)
	}
	for _, oracle := range []string{"", "reference", "fullscan"} {
		b.Run(cmp.Or(oracle, "indexed"), func(b *testing.B) {
			if oracle != "" {
				cluster.UseOracle(b, oracle)
			}
			for i := 0; i < b.N; i++ {
				if _, err := clustersim.Run(clustersim.Config{Trace: tr, Overcommit: 0.5, BaselineServers: base}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
