package clustersim

import (
	"fmt"
	"math"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

func testShockConfig(seed int64) *trace.ShockConfig {
	return &trace.ShockConfig{
		Kind:       trace.ShockPoisson,
		RatePerDay: 2,
		OutageMean: 4 * 3600,
		Seed:       seed,
	}
}

// TestShockEventOrdering pins the extended same-instant kind order:
// samples, departures, restorations, revocations, arrivals.
// Restorations MUST precede revocations: a same-instant restore+revoke
// pair must free the returning capacity before the evacuation needs it,
// and a back-to-back outage of one server (restore then re-revoke at
// one instant) must replay as two outages, not be silently dropped.
func TestShockEventOrdering(t *testing.T) {
	push := []simEvent{
		{at: 100, kind: evArrival},
		{at: 100, kind: evRevoke},
		{at: 100, kind: evRestore},
		{at: 100, kind: evDeparture, name: "vm"},
		{at: 100, kind: evSample},
	}
	want := []eventKind{evSample, evDeparture, evRestore, evRevoke, evArrival}
	for implName, mk := range queueImpls() {
		q := mk()
		for _, e := range push {
			q.push(e)
		}
		for i, k := range want {
			got := q.pop()
			if got.kind != k {
				t.Fatalf("%s: pop %d: kind %v, want %v", implName, i, got.kind, k)
			}
		}
	}
}

// TestRevocationRunsProcessShocks: a shocked deflation run actually
// revokes, restores and relocates — the counters tie together.
func TestRevocationRunsProcessShocks(t *testing.T) {
	cfg := Config{
		Trace:       testTrace(400),
		Policy:      policy.Priority{},
		Overcommit:  0.3,
		ShockConfig: testShockConfig(11),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Revocations == 0 {
		t.Fatal("no revocations processed at rate 2/server/day over 2 days")
	}
	if res.Restorations > res.Revocations {
		t.Fatalf("restorations (%d) exceed revocations (%d)", res.Restorations, res.Revocations)
	}
	if res.Evacuations+res.ShockKills == 0 {
		t.Fatal("revocations displaced no VMs at 30% overcommitment")
	}
	wantDowntime := float64(res.Evacuations) * 30
	if math.Abs(res.DisplacedDowntime-wantDowntime) > 1e-9 {
		t.Fatalf("DisplacedDowntime = %g, want %g (30 s × %d evacuations)",
			res.DisplacedDowntime, wantDowntime, res.Evacuations)
	}
}

// TestRevocationDifferential is the acceptance guarantee of the
// transient-server refactor: under revocation churn, runs are
// bit-for-bit identical under every retained oracle (reference
// placement, full pressure scan, heap event queue), across scenarios and
// shock schedules.
func TestRevocationDifferential(t *testing.T) {
	scenarios := []trace.Scenario{trace.ScenarioDiurnal, trace.ScenarioBursty, trace.ScenarioHeavyTail}
	shockKinds := []trace.ShockScenario{trace.ShockPoisson, trace.ShockRack}
	for _, kind := range scenarios {
		for _, shockKind := range shockKinds {
			tr, err := trace.GenerateScenario(trace.ScenarioConfig{
				Kind: kind, NumVMs: 400, Duration: 86400, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			sc := testShockConfig(7)
			sc.Kind = shockKind
			base := Config{Trace: tr, Policy: policy.Priority{}, Overcommit: 0.5, ShockConfig: sc}
			want, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			if want.Revocations == 0 {
				t.Fatalf("%v/%v: shock schedule produced no revocations — the suite is vacuous", kind, shockKind)
			}
			runOracleModes(t, fmt.Sprintf("%v/%v/", kind, shockKind), base, want)
		}
	}
}

// TestDeflationSavesShockVictims is the paper's headline claim under
// actual transiency: with the same workload and the same revocation
// schedule, deflation-first evacuation saves at least 90% of the VMs
// the preemption baseline kills.
func TestDeflationSavesShockVictims(t *testing.T) {
	tr := testTrace(500)
	sc := testShockConfig(5)
	base := Config{Trace: tr, Policy: policy.Priority{}, Overcommit: 0.2, ShockConfig: sc}

	defl, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	preCfg := base
	preCfg.Mode = ModePreemption
	pre, err := Run(preCfg)
	if err != nil {
		t.Fatal(err)
	}
	if pre.ShockKills == 0 {
		t.Fatal("preemption baseline killed nobody — the comparison is vacuous")
	}
	saved := pre.ShockKills - defl.ShockKills
	if saved*10 < pre.ShockKills*9 {
		t.Fatalf("deflation saved %d of the %d VMs preemption kills (%.0f%%), want >= 90%%\ndeflation: %d evacuated, %d killed",
			saved, pre.ShockKills, 100*float64(saved)/float64(pre.ShockKills),
			defl.Evacuations, defl.ShockKills)
	}
}

// TestPricingWiredIntoResult covers the pricing satellites: the
// on-demand-equivalent bill, the per-scheme cost-savings fraction and
// the per-priority revenue split must be populated and consistent.
func TestPricingWiredIntoResult(t *testing.T) {
	cfg := Config{Trace: testTrace(300), Policy: policy.Priority{}, Overcommit: 0.4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OnDemandRevenue <= 0 {
		t.Fatal("OnDemandRevenue not accumulated")
	}
	if res.CostSavings == nil {
		t.Fatal("CostSavings not computed")
	}
	// The static scheme bills a flat 0.2x the on-demand rate, so its
	// customer savings are 80% by construction.
	if got := res.CostSavings["static"]; math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("CostSavings[static] = %g, want 0.8", got)
	}
	for scheme, s := range res.CostSavings {
		if s < -1e-9 || s > 1 {
			t.Fatalf("CostSavings[%s] = %g outside [0,1]", scheme, s)
		}
	}
	if len(res.RevenueByPriority) == 0 {
		t.Fatal("RevenueByPriority empty")
	}
	var sum float64
	for lvl, v := range res.RevenueByPriority {
		if lvl < 0 || lvl >= 4 {
			t.Fatalf("priority level %d outside [0,4)", lvl)
		}
		sum += v
	}
	if prio := res.Revenue["priority"]; math.Abs(sum-prio) > 1e-6*math.Max(1, prio) {
		t.Fatalf("per-priority revenue sums to %g, scheme total is %g", sum, prio)
	}
}

// TestShockedSweepGrid: the sweep layer threads the shock config
// through to every grid point, and the deflation strategies report
// evacuations where the preemption baseline reports kills.
func TestShockedSweepGrid(t *testing.T) {
	tr := testTrace(250)
	opts := Options{Workers: 2, ShockConfig: testShockConfig(9)}
	results, err := SweepGrid(tr, []string{StrategyProportional, StrategyPreemption}, []float64{0, 30}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range results {
		for _, p := range sr.Points {
			if p.Revocations == 0 {
				t.Fatalf("%s @ %g%%: no revocations in a shocked sweep", sr.Strategy, p.OvercommitPct)
			}
			if sr.Strategy == StrategyPreemption && p.Evacuations != 0 {
				t.Fatalf("preemption baseline reported %d evacuations", p.Evacuations)
			}
		}
	}
}

// TestSameInstantRestoreRevokeRace pins the event-order contract under
// the nastiest schedule: restores and revocations sharing an instant
// with an in-flight evacuation, plus a restore+re-revoke of the same
// server at one instant (two back-to-back outages, not a dropped one).
// The restore must free its capacity before the same-instant
// revocation's evacuation places into it, identically on the indexed
// engine and under every retained oracle.
func TestSameInstantRestoreRevokeRace(t *testing.T) {
	tr := testTrace(350)
	h := tr.Duration()
	shocks := []trace.CapacityShock{
		{At: 0.2 * h, Kind: trace.ShockRevoke, Server: 0},
		// One instant: S0 returns, S1 and S2 go — the coalesced two-server
		// evacuation may land displaced VMs on the just-restored S0.
		{At: 0.5 * h, Kind: trace.ShockRestore, Server: 0},
		{At: 0.5 * h, Kind: trace.ShockRevoke, Server: 1},
		{At: 0.5 * h, Kind: trace.ShockRevoke, Server: 2},
		// One instant: S1 restores and is immediately revoked again — the
		// restore-before-revoke order makes this two outages.
		{At: 0.7 * h, Kind: trace.ShockRestore, Server: 1},
		{At: 0.7 * h, Kind: trace.ShockRevoke, Server: 1},
		{At: 0.9 * h, Kind: trace.ShockRestore, Server: 1},
		{At: 0.9 * h, Kind: trace.ShockRestore, Server: 2},
	}
	base := Config{Trace: tr, Policy: policy.Priority{}, Overcommit: 0.5, Shocks: shocks}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Revocations != 4 || want.Restorations != 4 {
		t.Fatalf("processed %d revocations / %d restorations, want 4 / 4 (re-revoke replayed as a second outage)",
			want.Revocations, want.Restorations)
	}
	if want.Evacuations == 0 {
		t.Fatal("schedule displaced nobody — the race is vacuous")
	}
	runOracleModes(t, "", base, want)
}
