package clustersim

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/work.golden from this run")

// workHorizon is every work fixture's trace length: the bench
// workloads' three days.
const workHorizon = 3 * 86400.0

// workFixture is one bench workload's shape at a size tier-1 affords:
// the same scenario, trace intake, fleet sizing, overcommitment, policy,
// shocks and SLO metering as its bench namesake, seed 1.
type workFixture struct {
	name string
	// run executes the fixture and returns its work counts, summed over
	// every engine it ran.
	run func(t *testing.T) work
}

func (w work) String() string {
	return fmt.Sprintf("host_walks=%d alloc_reads=%d rows_metered=%d events_popped=%d",
		w.hostWalks, w.allocReads, w.rowsMetered, w.eventsPopped)
}

func (w *work) add(o work) {
	w.hostWalks += o.hostWalks
	w.allocReads += o.allocReads
	w.rowsMetered += o.rowsMetered
	w.eventsPopped += o.eventsPopped
}

// runWork runs one engine on cfg and returns its work counts.
func runWork(t *testing.T, cfg Config) work {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.work
}

// generated returns the fixture trace of scenario with n VMs, seed 1.
func generated(t *testing.T, scenario string, n int) *trace.AzureTrace {
	t.Helper()
	tr, err := trace.GenerateNamed(scenario, n, workHorizon, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// pressureShocksConfig is the pressure-shocks fixture: a streamed
// heavy-tail trace on its peak-bound fleet at 75 % overcommitment under
// rack revocations, deflating by priority.
func pressureShocksConfig(t *testing.T) Config {
	t.Helper()
	s, err := trace.NewNamedStream("heavytail", 3000, workHorizon, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := PeakServerLowerBoundStream(s, DefaultServerCapacity())
	if err != nil {
		t.Fatal(err)
	}
	return Config{Stream: s, Overcommit: 0.75, BaselineServers: base, Policy: policy.Priority{},
		ShockConfig: &trace.ShockConfig{Kind: trace.ShockRack, RatePerDay: 2, OutageMean: 7200, Seed: 1}}
}

// sweepWork runs the sweep-grid fixture on workers workers and returns
// the work counts summed over its engines.
func sweepWork(t *testing.T, workers int) work {
	t.Helper()
	tr := generated(t, "azure", 400)
	base, err := BaselineServerCount(tr, DefaultServerCapacity())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sum work
	observeWork = func(w work) {
		mu.Lock()
		defer mu.Unlock()
		sum.add(w)
	}
	defer func() { observeWork = nil }()
	strategies := []string{StrategyProportional, StrategyPriority, StrategyDeterministic, StrategyPartitioned, StrategyPreemption}
	ocs := []float64{0, 10, 20, 30, 40, 50, 60, 70}
	if _, err := SweepGrid(tr, strategies, ocs, Options{BaselineServers: base, Workers: workers}); err != nil {
		t.Fatal(err)
	}
	return sum
}

var workFixtures = []workFixture{
	{"steady-sized", func(t *testing.T) work {
		return runWork(t, Config{Trace: generated(t, "heavytail", 3000), Overcommit: 0.5, Policy: policy.Proportional{}})
	}},
	{"sweep-grid", func(t *testing.T) work { return sweepWork(t, 1) }},
	{"pressure-shocks", func(t *testing.T) work { return runWork(t, pressureShocksConfig(t)) }},
	{"slo-bursty", func(t *testing.T) work {
		tr := generated(t, "bursty", 2000)
		base, err := PeakServerLowerBound(tr, DefaultServerCapacity())
		if err != nil {
			t.Fatal(err)
		}
		return runWork(t, Config{Trace: tr, Overcommit: 0.5, BaselineServers: base, Policy: policy.LatencyAware{},
			SLO: &SLOConfig{MaxSlowdown: 2}})
	}},
}

const workGolden = "testdata/work.golden"

// TestWorkCountsMatchGolden pins what each bench workload shape does,
// counted: host aggregate walks, sample-pass allocation reads, rows
// metered and events popped. A change that moves a count changes the
// work a run does, and says so in the golden's diff; a perf claim
// quotes that diff. After an intended change, rewrite it:
//
//	go test ./internal/clustersim -run TestWorkCountsMatchGolden -update
func TestWorkCountsMatchGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Work counts per bench workload shape at tier-1 size, seed 1 (TestWorkCountsMatchGolden).\n")
	for _, f := range workFixtures {
		w := f.run(t)
		if w.hostWalks == 0 || w.eventsPopped == 0 || w.rowsMetered == 0 || w.allocReads == 0 {
			t.Errorf("%s: a count reads zero, so it pins nothing: %v", f.name, w)
		}
		fmt.Fprintf(&b, "%s %v\n", f.name, w)
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(workGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(workGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("work counts moved (rewrite with -update if intended):\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestWorkCountsIndependentOfSchedule holds the counts to what a run
// decides, not how it is scheduled: the sweep fixture's counts, summed
// over its engines, are equal at 1 and 2 workers, and the
// pressure-shocks fixture does the same work on the streamed row
// adapter and on the eager one over its materialised trace.
func TestWorkCountsIndependentOfSchedule(t *testing.T) {
	if seq, par := sweepWork(t, 1), sweepWork(t, 2); seq != par {
		t.Errorf("sweep work at 1 worker %v, at 2 workers %v", seq, par)
	}
	streamed := pressureShocksConfig(t)
	eager := streamed
	eager.Trace, eager.Stream = streamed.Stream.Materialize(), nil
	if s, e := runWork(t, streamed), runWork(t, eager); s != e {
		t.Errorf("pressure-shocks work streamed %v, eager %v", s, e)
	}
}
