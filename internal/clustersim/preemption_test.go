package clustersim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
// the baseline kills it outright. Each of shockWorlds × four scenarios ×
// seeds 1–4 × overcommit 0 / 0.3 / 0.6 × the proportional and priority
// policies, at 1,500 VMs over two days: 96 pairs per world, one subtest
// per world and scenario. Both modes at one overcommitment provision
// the same fleet and replay the same schedule, built for that fleet.
//
// The property holds while some server survives each shock, which the
// generator's default MaxOutFraction of 0.5 guarantees and every world
// keeps. Once the whole fleet is out it fails: deflation can kill VMs
// that preemption had already preempted, and
// TestWholeFleetOutageKillsWhatDeflationKept pins such a case.
func TestDeflationKillsNoMoreThanPreemption(t *testing.T) {
	ocs := []float64{0, 30, 60}
	strategies := []string{StrategyPreemption, StrategyProportional, StrategyPriority}
	type fixture struct {
		seed int64
		tr   *trace.AzureTrace
		base int
	}
	fixtures := map[trace.Scenario][]fixture{}
	for _, kind := range trace.Scenarios() {
		for seed := int64(1); seed <= 4; seed++ {
			tr, err := trace.GenerateScenario(trace.ScenarioConfig{Kind: kind, NumVMs: 1500, Duration: 2 * 86400, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			base, err := BaselineServerCount(tr, DefaultServerCapacity())
			if err != nil {
				t.Fatal(err)
			}
			fixtures[kind] = append(fixtures[kind], fixture{seed, tr, base})
		}
	}
	for _, w := range shockWorlds {
		t.Run(w.name, func(t *testing.T) {
			var points, killed, pairs int
			for _, kind := range trace.Scenarios() {
				t.Run(string(kind), func(t *testing.T) {
					for _, f := range fixtures[kind] {
						// One job per (overcommit, strategy), run in
						// parallel; a point's strategies share its fleet
						// size and so its schedule.
						kills := make([]int, len(ocs)*len(strategies))
						errs := make([]error, len(kills))
						runJobs(len(kills), Options{}.workers(len(kills)), func(j int) {
							oc := ocs[j/len(strategies)] / 100
							cfg := strategyConfig(f.tr, strategies[j%len(strategies)], f.base, oc)
							cfg.Shocks = w.build(int(math.Ceil(float64(f.base)/(1+oc))), f.tr.Duration(), f.seed)
							res, err := Run(cfg)
							if errs[j] = err; err == nil {
								kills[j] = res.ShockKills
							}
						})
						if err := firstError(errs); err != nil {
							t.Fatal(err)
						}
						for o, oc := range ocs {
							point := kills[o*len(strategies):][:len(strategies)]
							points++
							if point[0] > 0 {
								killed++
							}
							for i, k := range point[1:] {
								pairs++
								if k > point[0] {
									t.Errorf("seed %d, %v%% overcommit: %s lost %d VMs to shocks, preemption %d",
										f.seed, oc, strategies[i+1], k, point[0])
								}
							}
						}
					}
				})
			}
			if killed*2 < points {
				t.Fatalf("preemption lost VMs to shocks at only %d of %d points: the property is near vacuous", killed, points)
			}
			t.Logf("%d pairs; preemption shock-killed at %d of %d points", pairs, killed, points)
		})
	}
}

// shockWorlds are the shock schedules the kill property runs under,
// each built for a fleet of n servers over horizon seconds from seed:
// the generator's poisson, diurnal and rack scenarios at their
// defaults (the schedule a run generates from a ShockConfig), then
// worlds the generator does not produce — Poisson revocations at a
// quarter and at four times the default rate, bathtub-shaped 24 h
// server lifetimes, the diurnal window shifted by six hours, and rack
// shocks whose racks are strided across the fleet instead of
// contiguous. Each keeps at most half the fleet out at once, as the
// generator does by default.
var shockWorlds = []struct {
	name  string
	build func(n int, horizon float64, seed int64) []trace.CapacityShock
}{
	{"poisson", generatedShocks(trace.ShockPoisson)},
	{"diurnal", generatedShocks(trace.ShockDiurnal)},
	{"rack", generatedShocks(trace.ShockRack)},
	{"poisson-rate-quarter", func(n int, horizon float64, seed int64) []trace.CapacityShock {
		return trace.GenerateShocks(trace.ShockConfig{Kind: trace.ShockPoisson, RatePerDay: 0.5 / 4, Duration: horizon, Seed: seed}, n)
	}},
	{"poisson-rate-x4", func(n int, horizon float64, seed int64) []trace.CapacityShock {
		return trace.GenerateShocks(trace.ShockConfig{Kind: trace.ShockPoisson, RatePerDay: 0.5 * 4, Duration: horizon, Seed: seed}, n)
	}},
	{"bathtub-24h", bathtubShocks},
	{"diurnal-plus-6h", func(n int, horizon float64, seed int64) []trace.CapacityShock {
		var out []trace.CapacityShock
		for _, sh := range trace.GenerateShocks(trace.ShockConfig{Kind: trace.ShockDiurnal, Duration: horizon, Seed: seed}, n) {
			if sh.At += 6 * 3600; sh.At <= horizon {
				out = append(out, sh)
			}
		}
		return out
	}},
	{"strided-racks", func(n int, horizon float64, seed int64) []trace.CapacityShock {
		// The generator's rack is contiguous servers r*R .. r*R+R-1;
		// member k of rack r becomes server k*nRacks + r, so a rack's
		// members lie nRacks apart. Servers the stride pushes past the
		// fleet are dropped by the run.
		rack := min(8, n, trace.ShockConfig{}.MaxOutServers(n))
		nRacks := (n + rack - 1) / rack
		shocks := trace.GenerateShocks(trace.ShockConfig{Kind: trace.ShockRack, Duration: horizon, Seed: seed}, n)
		for i, sh := range shocks {
			shocks[i].Server = sh.Server%rack*nRacks + sh.Server/rack
		}
		return shocks
	}},
}

// generatedShocks builds the generator's default schedule of one kind.
func generatedShocks(kind trace.ShockScenario) func(n int, horizon float64, seed int64) []trace.CapacityShock {
	return func(n int, horizon float64, seed int64) []trace.CapacityShock {
		return trace.GenerateShocks(trace.ShockConfig{Kind: kind, Duration: horizon, Seed: seed}, n)
	}
}

// bathtubShocks gives every server a renewal sequence of bathtub-shaped
// lifetimes: with probability 0.3 an early death after Exp(1 h), else a
// death near the 24 h mark, max(1 h, 24 h - Exp(1 h)); each outage lasts
// max(60 s, Exp(2 h)). Lifetimes count from the server's last return.
// Outages that would take more than half the fleet out at once are
// dropped, as the generator drops them.
func bathtubShocks(n int, horizon float64, seed int64) []trace.CapacityShock {
	type outage struct {
		start, end float64
		server     int
	}
	rng := rand.New(rand.NewSource(seed))
	var cands []outage
	for s := 0; s < n; s++ {
		for at := 0.0; ; {
			life := rng.ExpFloat64() * 3600
			if rng.Float64() >= 0.3 {
				life = math.Max(3600, 86400-life)
			}
			if at += life; at >= horizon {
				break
			}
			end := at + math.Max(60, rng.ExpFloat64()*2*3600)
			cands = append(cands, outage{at, end, s})
			at = end
		}
	}
	slices.SortFunc(cands, func(a, b outage) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.server, b.server))
	})
	maxOut := trace.ShockConfig{}.MaxOutServers(n)
	var out []trace.CapacityShock
	var active []float64 // end times of the admitted outages still running
	for _, c := range cands {
		active = slices.DeleteFunc(active, func(end float64) bool { return end <= c.start })
		if len(active) >= maxOut {
			continue
		}
		active = append(active, c.end)
		out = append(out, trace.CapacityShock{At: c.start, Kind: trace.ShockRevoke, Server: c.server},
			trace.CapacityShock{At: c.end, Kind: trace.ShockRestore, Server: c.server})
	}
	return out
}

// TestWholeFleetOutageKillsWhatDeflationKept pins where
// TestDeflationKillsNoMoreThanPreemption's property stops: a schedule
// that takes the whole fleet out. On a two-server fleet, server 1 is
// revoked and then server 0 while 1 is still out. Preemption has
// already preempted VMs to make room, so fewer are left to die when the
// last server goes; deflation kept them all, and the outage kills them
// all. Deflation still loses no more than preemption's shock kills plus
// its preemptions. With one server surviving throughout (the control),
// deflation kills none.
func TestWholeFleetOutageKillsWhatDeflationKept(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{Kind: trace.ScenarioHeavyTail, NumVMs: 300, Duration: 86400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	base, err := PeakServerLowerBound(tr, DefaultServerCapacity())
	if err != nil {
		t.Fatal(err)
	}
	run := func(strategy string, shocks []trace.CapacityShock) *Result {
		t.Helper()
		cfg := strategyConfig(tr, strategy, base, 0.6)
		cfg.Shocks = shocks
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Servers != 2 {
			t.Fatalf("%d servers, want 2 (baseline %d at 60%% overcommit)", res.Servers, base)
		}
		return res
	}
	wholeFleet := []trace.CapacityShock{
		{At: 54000, Kind: trace.ShockRevoke, Server: 1},
		{At: 67000, Kind: trace.ShockRevoke, Server: 0},
		{At: 76000, Kind: trace.ShockRestore, Server: 0},
	}
	control := []trace.CapacityShock{
		{At: 54000, Kind: trace.ShockRevoke, Server: 1},
		{At: 76000, Kind: trace.ShockRestore, Server: 1},
	}
	pre, preControl := run(StrategyPreemption, wholeFleet), run(StrategyPreemption, control)
	for _, strategy := range []string{StrategyProportional, StrategyPriority} {
		t.Run(strategy, func(t *testing.T) {
			got := run(strategy, wholeFleet)
			if got.ShockKills <= pre.ShockKills {
				t.Errorf("whole-fleet outage killed %d VMs, preemption %d; want more", got.ShockKills, pre.ShockKills)
			}
			if got.ShockKills > pre.ShockKills+pre.Preemptions {
				t.Errorf("whole-fleet outage killed %d VMs, above preemption's %d shock kills + %d preemptions",
					got.ShockKills, pre.ShockKills, pre.Preemptions)
			}
			t.Logf("whole-fleet outage kills %d, preemption %d (+%d preempted): a gap of %d",
				got.ShockKills, pre.ShockKills, pre.Preemptions, got.ShockKills-pre.ShockKills)
		})
		t.Run("control/"+strategy, func(t *testing.T) {
			if c := run(strategy, control); c.ShockKills > preControl.ShockKills {
				t.Errorf("control lost %d VMs to shocks, preemption %d", c.ShockKills, preControl.ShockKills)
			}
		})
	}
}
