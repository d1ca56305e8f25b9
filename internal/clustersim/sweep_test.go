package clustersim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"vmdeflate/internal/notify"
	"vmdeflate/internal/trace"
)

// TestSweepGridParallelMatchesSequential is the determinism guard for
// the worker-pool refactor: the same grid run strictly sequentially and
// on a parallel pool must produce identical SweepResult values, down to
// the last float bit.
func TestSweepGridParallelMatchesSequential(t *testing.T) {
	tr := testTrace(250)
	strategies := []string{StrategyProportional, StrategyPriority, StrategyPreemption}
	ocs := []float64{0, 30, 60}

	seq, err := SweepGrid(tr, strategies, ocs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepGrid(tr, strategies, ocs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel sweep diverged from sequential:\nseq: %+v\npar: %+v", dump(seq), dump(par))
	}
	// And a second parallel pass must reproduce itself (no hidden
	// global state across runs).
	par2, err := SweepGrid(tr, strategies, ocs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, par2) {
		t.Fatal("repeated parallel sweep is not reproducible")
	}
}

// TestSweepGridPointsMatchStandaloneRuns: the engines of a sweep share
// one trace and the P95 column derived from it; sharing must be
// invisible. Every grid point — all six strategies, so the partition
// planner and the preemption baseline read the column too — equals a
// standalone Run over a fresh AzureTrace around the same records, whose
// column is cold.
func TestSweepGridPointsMatchStandaloneRuns(t *testing.T) {
	tr := testTrace(250)
	ocs := []float64{0, 40, 70}
	opts := Options{Workers: 2, SLO: &SLOConfig{MaxSlowdown: 2}}
	grid, err := SweepGrid(tr, Strategies, ocs, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := BaselineServerCount(tr, DefaultServerCapacity())
	if err != nil {
		t.Fatal(err)
	}
	for si, strategy := range Strategies {
		for pi, pct := range ocs {
			cfg := strategyConfig(&trace.AzureTrace{VMs: tr.VMs}, strategy, baseline, pct/100)
			applySLO(&cfg, opts.SLO)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := sweepPoint(pct, res); !reflect.DeepEqual(grid[si].Points[pi], want) {
				t.Errorf("%s @ %g%%: shared-trace sweep point differs from a standalone run:\ngot  %+v\nwant %+v", strategy, pct, grid[si].Points[pi], want)
			}
		}
	}
}

func dump(rs []*SweepResult) []SweepResult {
	out := make([]SweepResult, len(rs))
	for i, r := range rs {
		out[i] = *r
	}
	return out
}

// sweepOne runs one strategy over ocs strictly sequentially.
func sweepOne(t *testing.T, tr *trace.AzureTrace, strategy string, ocs []float64) *SweepResult {
	t.Helper()
	out, err := SweepGrid(tr, []string{strategy}, ocs, Options{Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", strategy, err)
	}
	return out[0]
}

// TestSweepMatchesGrid keeps the two sweep entry points on the one
// grid-point runner in lockstep: each replicate of a ReplicatedSweep
// equals a SweepGrid over that replicate's trace.
func TestSweepMatchesGrid(t *testing.T) {
	gen, err := trace.ScenarioGenerator("azure", 150, 86400)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{3, 4}
	strategies := []string{StrategyDeterministic, StrategyPartitioned, StrategyPreemption}
	ocs := []float64{0, 40}
	reps, err := ReplicatedSweep(gen, seeds, strategies, ocs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for r, seed := range seeds {
		grid, err := SweepGrid(gen(seed), strategies, ocs, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reps[r], grid) {
			t.Errorf("seed %d: ReplicatedSweep and SweepGrid disagree:\n%+v\n%+v", seed, dump(reps[r]), dump(grid))
		}
	}
}

func TestSweepGridValidation(t *testing.T) {
	tr := testTrace(50)
	if _, err := SweepGrid(tr, nil, []float64{0}, Options{}); err == nil {
		t.Error("empty strategy list should fail")
	}
	if _, err := SweepGrid(tr, []string{StrategyProportional}, nil, Options{}); err == nil {
		t.Error("empty overcommit list should fail")
	}
	if _, err := SweepGrid(tr, []string{"bogus"}, []float64{0}, Options{}); err == nil {
		t.Error("unknown strategy should fail instead of silently simulating proportional")
	}
}

// TestSweepsRejectNegativeOptions: a negative Workers used to mean
// GOMAXPROCS and a negative BaselineServers a fleet sized from the
// trace, silently. Every sweep entry point rejects each, naming the
// field, before it runs a point.
func TestSweepsRejectNegativeOptions(t *testing.T) {
	tr := testTrace(50)
	s, err := trace.NewNamedStream("azure", 50, 86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	strategies, ocs := []string{StrategyProportional}, []float64{0}
	gen := func(int64) *trace.AzureTrace {
		t.Error("a replicate was generated for rejected options")
		return tr
	}
	sweeps := []struct {
		name string
		run  func(Options) error
	}{
		{"SweepGrid", func(o Options) error { _, err := SweepGrid(tr, strategies, ocs, o); return err }},
		{"SweepGridStream", func(o Options) error { _, err := SweepGridStream(s, strategies, ocs, o); return err }},
		{"ReplicatedSweep", func(o Options) error { _, err := ReplicatedSweep(gen, []int64{1}, strategies, ocs, o); return err }},
	}
	for _, c := range []struct {
		opts Options
		want string
	}{
		{Options{Workers: -4}, "Options.Workers -4"},
		{Options{Workers: -1}, "Options.Workers -1"},
		{Options{BaselineServers: -2}, "Options.BaselineServers -2"},
		{Options{BaselineServers: -2, Workers: -4}, "Options.Workers -4"},
	} {
		for _, sw := range sweeps {
			t.Run(fmt.Sprintf("%s/workers=%d,baseline=%d", sw.name, c.opts.Workers, c.opts.BaselineServers), func(t *testing.T) {
				if err := sw.run(c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("err = %v, want one containing %q", err, c.want)
				}
			})
		}
	}
}

// TestReplicatedSweepDeterministic checks that scenario replicates —
// whose traces are generated inside the workers from per-run seeds —
// are bit-for-bit reproducible regardless of worker count.
func TestReplicatedSweepDeterministic(t *testing.T) {
	gen := func(seed int64) *trace.AzureTrace {
		tr, err := trace.GenerateScenario(trace.ScenarioConfig{
			Kind: trace.ScenarioBursty, NumVMs: 150, Duration: 86400, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	seeds := []int64{1, 2}
	strategies := []string{StrategyProportional}
	ocs := []float64{20, 50}

	seq, err := ReplicatedSweep(gen, seeds, strategies, ocs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ReplicatedSweep(gen, seeds, strategies, ocs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("replicated sweep diverged between sequential and parallel execution")
	}
	if len(par) != len(seeds) || len(par[0]) != len(strategies) {
		t.Fatalf("result shape = %dx%d, want %dx%d", len(par), len(par[0]), len(seeds), len(strategies))
	}
	// Different seeds must actually produce different workloads.
	if reflect.DeepEqual(par[0], par[1]) {
		t.Error("distinct replicate seeds produced identical sweeps")
	}

	avg := AverageSweeps(par)
	if len(avg) != len(strategies) || len(avg[0].Points) != len(ocs) {
		t.Fatalf("average shape = %+v", avg)
	}
	for pi := range ocs {
		want := (par[0][0].Points[pi].FailureProbability + par[1][0].Points[pi].FailureProbability) / 2
		got := avg[0].Points[pi].FailureProbability
		if diff := got - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("point %d mean failure prob = %v, want %v", pi, got, want)
		}
	}
}

// TestReplicatedSweepHonoursBaselineServers: a pinned
// Options.BaselineServers sizes every replicate's points the way it
// sizes SweepGrid's, and zero still derives the size from each
// replicate's own trace. The sweep used to size every replicate itself,
// dropping a pinned size without an error.
func TestReplicatedSweepHonoursBaselineServers(t *testing.T) {
	gen := func(seed int64) *trace.AzureTrace {
		tr, err := trace.GenerateNamed("azure", 150, 86400, seed)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	seeds := []int64{1, 2}
	const oc = 30
	for _, tc := range []struct {
		name     string
		baseline int
		want     func(seed int64) int // servers every point of the replicate runs on
	}{
		{"derived", 0, func(seed int64) int {
			base, err := BaselineServerCount(gen(seed), DefaultServerCapacity())
			if err != nil {
				t.Fatal(err)
			}
			return int(math.Ceil(float64(base) / (1 + oc/100.0)))
		}},
		{"pinned-1", 1, func(int64) int { return 1 }},
		{"pinned-7", 7, func(int64) int { return 6 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reps, err := ReplicatedSweep(gen, seeds, []string{StrategyProportional}, []float64{oc}, Options{Workers: 1, BaselineServers: tc.baseline})
			if err != nil {
				t.Fatal(err)
			}
			for r, seed := range seeds {
				want := tc.want(seed)
				for _, p := range reps[r][0].Points {
					if p.Result.Servers != want {
						t.Errorf("seed %d @ %g%% OC ran on %d servers, want %d", seed, p.OvercommitPct, p.Result.Servers, want)
					}
				}
			}
		})
	}
}

// TestConcurrentEnginesSharedBus runs a parallel grid whose engines all
// publish allocation changes to one shared notify.Bus — the
// race-detector target for the bus fan-out path (run via `go test
// -race`).
func TestConcurrentEnginesSharedBus(t *testing.T) {
	tr := testTrace(200)
	bus := &notify.Bus{}
	var events atomic.Int64
	defer bus.Subscribe(func(notify.Event) { events.Add(1) })()

	strategies := []string{StrategyProportional, StrategyPriority, StrategyDeterministic}
	if _, err := SweepGrid(tr, strategies, []float64{50, 70}, Options{Workers: 6, Notify: bus}); err != nil {
		t.Fatal(err)
	}
	if events.Load() == 0 {
		t.Error("no allocation-change events reached the shared bus")
	}
}

// TestSweepGridStreamMatchesEager: the sweep layer over a stream — the
// deflationsim -stream path — equals SweepGrid over the materialised
// trace at every strategy × overcommitment point, the preemption
// baseline's included, with the self-derived baseline cluster size.
func TestSweepGridStreamMatchesEager(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioAzure, NumVMs: 300, Duration: 86400, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	strategies := []string{StrategyProportional, StrategyLatency, StrategyPreemption}
	ocs := []float64{0, 30, 50}
	eager, err := SweepGrid(s.Materialize(), strategies, ocs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := SweepGridStream(s, strategies, ocs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, eager) {
		t.Fatalf("streamed sweep diverged:\nstreamed %+v\neager    %+v", streamed, eager)
	}
	if p := eager[2].Points[2]; p.FailureProbability == 0 {
		t.Fatalf("preemption at %v%% overcommit preempted nothing; the pair is vacuous", p.OvercommitPct)
	}
}
