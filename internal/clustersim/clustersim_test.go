package clustersim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/pricing"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// testTrace builds a small but non-trivial Azure-like trace.
func testTrace(nVMs int) *trace.AzureTrace {
	tr, err := trace.GenerateNamed("azure", nVMs, 2*86400, 1)
	if err != nil {
		panic(err)
	}
	return tr
}

// TestZeroLifetimeVMFreesCapacityForSameInstantArrivals pins the
// departures-before-arrivals invariant through the arrival batching: a
// zero-lifetime VM (End == Start, possible only in hand-written CSV
// traces) must free its capacity before later arrivals at the same
// instant are placed — the one-at-a-time engine's behavior, which the
// batch coalescing must split to preserve.
func TestZeroLifetimeVMFreesCapacityForSameInstantArrivals(t *testing.T) {
	util := []float64{50, 50}
	tr := &trace.AzureTrace{VMs: []*trace.VMRecord{
		{ID: "vm-a", Class: trace.Unknown, Cores: 48, MemoryMB: 131072, Start: 0, End: 0, CPUUtil: util},
		{ID: "vm-b", Class: trace.Unknown, Cores: 48, MemoryMB: 131072, Start: 0, End: 3600, CPUUtil: util},
	}}
	res, err := Run(Config{Trace: tr, BaselineServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 2 || res.Rejected != 0 {
		t.Fatalf("admitted %d rejected %d; want the zero-lifetime VM's capacity freed for the same-instant arrival (2 admitted)",
			res.Admitted, res.Rejected)
	}
}

func TestBaselineServerCount(t *testing.T) {
	tr := testTrace(300)
	n, err := BaselineServerCount(tr, DefaultServerCapacity())
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("baseline servers = %d", n)
	}
	// Running at that size with no overcommitment must yield zero
	// failures for every deflation policy.
	res, err := Run(Config{Trace: tr, Policy: policy.Proportional{}, BaselineServers: n})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Errorf("baseline cluster rejected %d VMs", res.Rejected)
	}
	if res.FailureProbability != 0 {
		t.Errorf("baseline failure probability = %v", res.FailureProbability)
	}
}

// TestRunValidation: configurations a run cannot honour are errors. NaN
// fails every comparison, so a bare `< 0` check lets it through: a NaN
// or +Inf overcommit ran on a one-server fleet. An explicit shock
// schedule is checked entry by entry, naming the bad one: a NaN or +Inf resize scale crashed the
// capacity index, a revocation at +Inf was popped first and at NaN at
// an undefined instant, one at a negative time billed a negative
// outage, a non-positive scale failed deep in the run, and an unknown
// kind was dropped silently. A NaN or ±Inf SLO threshold metered no
// violations (a slowdown is never above NaN or +Inf). Every case fails
// in both modes.
func TestRunValidation(t *testing.T) {
	tr := testTrace(200)
	nan, inf := math.NaN(), math.Inf(1)
	// shocks is a schedule whose second entry is bad.
	shocks := func(bad trace.CapacityShock) Config {
		return Config{Trace: tr, Overcommit: 0.3, Shocks: []trace.CapacityShock{
			{At: 3600, Kind: trace.ShockRevoke, Server: 1},
			bad,
			{At: 7200, Kind: trace.ShockRestore, Server: 1},
		}}
	}
	cases := []struct {
		name string
		cfg  Config
		want string // in the error text, when set
	}{
		{"empty trace", Config{}, ""},
		{"negative overcommit", Config{Trace: tr, Overcommit: -0.5}, ""},
		{"NaN overcommit", Config{Trace: tr, Overcommit: nan}, ""},
		{"+Inf overcommit", Config{Trace: tr, Overcommit: inf}, ""},
		{"NaN resize scale", shocks(trace.CapacityShock{At: 5000, Kind: trace.ShockResize, Scale: nan}), "shock 1"},
		{"+Inf resize scale", shocks(trace.CapacityShock{At: 5000, Kind: trace.ShockResize, Scale: inf}), "shock 1"},
		{"negative resize scale", shocks(trace.CapacityShock{At: 5000, Kind: trace.ShockResize, Scale: -0.5}), "shock 1"},
		{"zero resize scale", shocks(trace.CapacityShock{At: 5000, Kind: trace.ShockResize}), "shock 1"},
		{"shock at +Inf", shocks(trace.CapacityShock{At: inf, Kind: trace.ShockRevoke}), "shock 1"},
		{"shock at NaN", shocks(trace.CapacityShock{At: nan, Kind: trace.ShockRevoke}), "shock 1"},
		{"shock at a negative time", shocks(trace.CapacityShock{At: -5000, Kind: trace.ShockRevoke}), "shock 1"},
		{"unknown shock kind", shocks(trace.CapacityShock{At: 5000, Kind: trace.ShockKind(7)}), "shock 1"},
		{"NaN SLO max slowdown", Config{Trace: tr, SLO: &SLOConfig{MaxSlowdown: nan}}, "slowdown"},
		{"+Inf SLO max slowdown", Config{Trace: tr, SLO: &SLOConfig{MaxSlowdown: inf}}, "slowdown"},
		{"-Inf SLO max slowdown", Config{Trace: tr, SLO: &SLOConfig{MaxSlowdown: -inf}}, "slowdown"},
	}
	for _, c := range cases {
		for _, mode := range []Mode{ModeDeflation, ModePreemption} {
			t.Run(fmt.Sprintf("%s/mode=%d", c.name, mode), func(t *testing.T) {
				cfg := c.cfg
				cfg.Mode = mode
				res, err := Run(cfg)
				if err == nil {
					t.Fatalf("want an error, got a run on %d servers (%d admitted, %d rejected)", res.Servers, res.Admitted, res.Rejected)
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Fatalf("err = %v, want one naming %q", err, c.want)
				}
			})
		}
	}
	// The schedule around each bad entry is valid on its own.
	if _, err := Run(shocks(trace.CapacityShock{At: 5000, Kind: trace.ShockResize, Server: 2, Scale: 0.5})); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsUnknownModeAndNegativeBaseline: a Mode that names
// neither reclamation strategy and a negative BaselineServers used to
// run deflation on a fleet sized from the trace, as if each were its
// default. Each is an error naming its field, eager or streamed, and
// the valid values still run.
func TestRunRejectsUnknownModeAndNegativeBaseline(t *testing.T) {
	tr := testTrace(60)
	s, err := trace.NewNamedStream("azure", 60, 86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		want string // in the error text; "" for a valid config
	}{
		{"mode 7", Config{Mode: Mode(7)}, "Config.Mode 7"},
		{"mode -1", Config{Mode: Mode(-1)}, "Config.Mode -1"},
		{"baseline -3", Config{BaselineServers: -3}, "Config.BaselineServers -3"},
		{"preemption baseline -1", Config{Mode: ModePreemption, BaselineServers: -1}, "Config.BaselineServers -1"},
		{"deflation derived", Config{}, ""},
		{"preemption pinned", Config{Mode: ModePreemption, BaselineServers: 4}, ""},
	}
	for _, c := range cases {
		for _, streamed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/streamed=%v", c.name, streamed), func(t *testing.T) {
				cfg := c.cfg
				cfg.Overcommit = 0.3
				if streamed {
					cfg.Stream = s
				} else {
					cfg.Trace = tr
				}
				res, err := Run(cfg)
				switch {
				case c.want == "" && err != nil:
					t.Fatalf("valid config: %v", err)
				case c.want != "" && err == nil:
					t.Fatalf("want an error, got a run on %d servers", res.Servers)
				case c.want != "" && !strings.Contains(err.Error(), c.want):
					t.Fatalf("err = %v, want one containing %q", err, c.want)
				}
			})
		}
	}
}

// TestRunRejectsMalformedCurve: a deflation-response curve outside its
// ranges is an error naming the curve and the field, whether it shapes
// SLO metering or the latency-aware policy. These curves used to run:
// a NaN slack metered no SLO violations at all, and the others reported
// numbers from a curve the model does not define. A zero curve still
// means the worst-case linear one, and every shipped profile runs.
func TestRunRejectsMalformedCurve(t *testing.T) {
	tr := testTrace(200)
	nan := math.NaN()
	slo := func(c perfmodel.Curve) Config {
		return Config{Trace: tr, Overcommit: 0.5, Policy: policy.LatencyAware{}, SLO: &SLOConfig{Curve: c}}
	}
	latency := func(c perfmodel.Curve) Config {
		return Config{Trace: tr, Overcommit: 0.5, Policy: policy.LatencyAware{Curve: c}}
	}
	slowdown := func(s float64) Config {
		return Config{Trace: tr, Overcommit: 0.5, Policy: policy.LatencyAware{MaxSlowdown: s}}
	}
	cases := []struct {
		name string
		cfg  Config
		want string // in the error text
	}{
		{"SLO NaN slack", slo(perfmodel.Curve{Slack: nan, Knee: 0.5, LossAtKnee: 0.2, CollapseExp: 2}), "SLO curve: perfmodel: slack"},
		{"SLO knee below slack", slo(perfmodel.Curve{Slack: 0.5, Knee: 0.3, LossAtKnee: 0.2, CollapseExp: 2}), "SLO curve: perfmodel: knee"},
		{"SLO NaN collapse exponent", slo(perfmodel.Curve{Slack: 0.1, Knee: 0.5, LossAtKnee: 0.2, CollapseExp: nan}), "SLO curve: perfmodel: collapse exponent"},
		{"SLO negative loss at knee", slo(perfmodel.Curve{Slack: 0.1, Knee: 0.5, LossAtKnee: -3, CollapseExp: 2}), "SLO curve: perfmodel: loss at knee"},
		{"SLO +Inf collapse exponent", slo(perfmodel.Curve{Slack: 0.1, Knee: 0.5, LossAtKnee: 0.2, CollapseExp: math.Inf(1)}), "SLO curve: perfmodel: collapse exponent"},
		{"policy NaN slack", latency(perfmodel.Curve{Slack: nan, Knee: 0.5}), "latency-aware policy curve: perfmodel: slack"},
		{"policy NaN knee", latency(perfmodel.Curve{Slack: 0.1, Knee: nan}), "latency-aware policy curve: perfmodel: knee"},
		{"policy loss at knee above 1", latency(perfmodel.Curve{Slack: 0.1, Knee: 0.5, LossAtKnee: 2}), "latency-aware policy curve: perfmodel: loss at knee"},
		{"policy NaN max slowdown", slowdown(nan), "latency-aware policy max slowdown NaN"},
		{"policy +Inf max slowdown", slowdown(math.Inf(1)), "latency-aware policy max slowdown +Inf"},
		{"policy -Inf max slowdown", slowdown(math.Inf(-1)), "latency-aware policy max slowdown -Inf"},
	}
	for _, c := range cases {
		for _, mode := range []Mode{ModeDeflation, ModePreemption} {
			t.Run(fmt.Sprintf("%s/mode=%d", c.name, mode), func(t *testing.T) {
				cfg := c.cfg
				cfg.Mode = mode
				res, err := Run(cfg)
				if err == nil {
					t.Fatalf("want an error, got a run (%d admitted, SLO violation-seconds %v)", res.Admitted, res.SLOViolationSeconds)
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Fatalf("err = %v, want one containing %q", err, c.want)
				}
			})
		}
	}
	for name, c := range perfmodel.Profiles {
		for _, cfg := range []Config{slo(c), latency(c)} {
			if _, err := Run(cfg); err != nil {
				t.Errorf("profile %s: %v", name, err)
			}
		}
	}
	if _, err := Run(slo(perfmodel.Curve{})); err != nil {
		t.Errorf("zero SLO curve: %v", err)
	}
}

func TestDeflationAbsorbsOvercommit(t *testing.T) {
	tr := testTrace(400)
	res, err := Run(Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals != 400 {
		t.Errorf("arrivals = %d", res.Arrivals)
	}
	if res.Admitted+res.Rejected != res.Arrivals {
		t.Errorf("admission bookkeeping: %d + %d != %d", res.Admitted, res.Rejected, res.Arrivals)
	}
	// The headline: at 50% overcommitment deflation keeps failure
	// probability very low and throughput loss around or below 1%.
	if res.FailureProbability > 0.05 {
		t.Errorf("failure probability at 50%% OC = %v, want < 0.05 (paper <0.01)", res.FailureProbability)
	}
	if res.ThroughputLoss > 0.05 {
		t.Errorf("throughput loss at 50%% OC = %v, want small (paper ~1%%)", res.ThroughputLoss)
	}
	if res.Revenue["static"] <= 0 {
		t.Error("static revenue should be positive")
	}
}

func TestPreemptionBaselineWorse(t *testing.T) {
	tr := testTrace(400)
	defl, err := Run(Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := Run(Config{Trace: tr, Mode: ModePreemption, Overcommit: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if pre.FailureProbability <= defl.FailureProbability {
		t.Errorf("preemption failure prob %v should exceed deflation %v",
			pre.FailureProbability, defl.FailureProbability)
	}
	if pre.Preemptions == 0 {
		t.Error("expected preemptions at 50% overcommitment")
	}
}

func TestFailureProbabilityGrowsWithOvercommit(t *testing.T) {
	tr := testTrace(400)
	var prev float64 = -1
	for _, oc := range []float64{0, 0.4, 0.8} {
		res, err := Run(Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: oc})
		if err != nil {
			t.Fatal(err)
		}
		if res.FailureProbability < prev-0.02 {
			t.Errorf("failure probability should not materially decrease with OC: %v after %v", res.FailureProbability, prev)
		}
		prev = res.FailureProbability
	}
}

func TestThroughputLossOrdering(t *testing.T) {
	tr := testTrace(400)
	// Priority-aware policies protect high-utilisation VMs, so their
	// throughput loss should not exceed plain proportional's by much;
	// deterministic should be the lowest (Section 7.4.2).
	prop, err := Run(Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	det, err := Run(Config{Trace: tr, Policy: policy.Deterministic{}, Overcommit: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if det.ThroughputLoss > prop.ThroughputLoss*1.5+0.01 {
		t.Errorf("deterministic loss %v should not dwarf proportional %v",
			det.ThroughputLoss, prop.ThroughputLoss)
	}
}

func TestPartitionedRuns(t *testing.T) {
	tr := testTrace(300)
	res, err := Run(Config{
		Trace:       tr,
		Policy:      policy.Priority{},
		Partitioned: true,
		Overcommit:  0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Error("partitioned cluster admitted nothing")
	}
}

func TestRevenueSchemes(t *testing.T) {
	tr := testTrace(300)
	res, err := Run(Config{Trace: tr, Policy: policy.Priority{}, Overcommit: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	st, pr, al := res.Revenue["static"], res.Revenue["priority"], res.Revenue["allocation"]
	if st <= 0 || pr <= 0 || al <= 0 {
		t.Fatalf("revenues = %v", res.Revenue)
	}
	// Priority pricing charges more than the 0.2x static discount on
	// average (priority levels are 0.25..1.0).
	if pr <= st {
		t.Errorf("priority revenue %v should exceed static %v", pr, st)
	}
	// Allocation-based never exceeds static (same discount, allocation
	// <= nominal size).
	if al > st*1.0001 {
		t.Errorf("allocation revenue %v should not exceed static %v", al, st)
	}
}

// perVMFee is a pricing scheme the engine has no name for: a flat fee
// per VM-hour whatever the VM's size, priority or allocation.
type perVMFee struct{ fee float64 }

func (perVMFee) Name() string { return "per-vm" }

func (s perVMFee) Rate(resources.Vector, float64, resources.Vector) float64 { return s.fee }

// perCoreFee is a second scheme the engine has no name for: a flat fee
// per nominal core-hour, so its revenue is fee x OnDemandRevenue.
type perCoreFee struct{ fee float64 }

func (perCoreFee) Name() string { return "per-core" }

func (s perCoreFee) Rate(size resources.Vector, _ float64, _ resources.Vector) float64 {
	return s.fee * size.Get(resources.CPU)
}

// TestSampleBillingUsesConfiguredSchemes: the 5-minute sample pass must
// bill through Scheme.Rate like admission does. It used to switch on the
// three default scheme names with 0.2 hard-coded, so another discount
// held only until a VM's first sample and any other scheme billed
// nothing after it. Runs meter the paper's three schemes; the test swaps
// other lists in (withSchemes). Without overcommitment nothing deflates,
// so every scheme's revenue is its undeflated rate times the VM-hours.
// The meters are a flat column with len(pricingSchemes) entries per
// table row, so the scheme count varies too — none, three, five — with
// the table audited at every sample.
func TestSampleBillingUsesConfiguredSchemes(t *testing.T) {
	tr := testTrace(1500)
	var hours float64
	for _, vm := range tr.VMs {
		if vm.Class == trace.Interactive {
			hours += (vm.End - vm.Start) / 3600
		}
	}
	cases := map[string][]pricing.Scheme{
		"none": {},
		"three": {
			pricing.Static{Discount: 0.5},
			pricing.Allocation{Discount: 0.5},
			perVMFee{fee: 3},
		},
		"five": {
			perVMFee{fee: 3},
			pricing.Priority{},
			pricing.Allocation{Discount: 0.5},
			perCoreFee{fee: 7},
			pricing.Static{Discount: 0.5},
		},
	}
	for name, schemes := range cases {
		t.Run(name, func(t *testing.T) {
			withSchemes(t, schemes)
			e, err := NewEngine(Config{Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			e.afterSample = func() { checkTable(t, e) }
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Rejected != 0 || res.ReclamationAttempts != 0 {
				t.Fatalf("test premise broken: rejected %d, reclamation attempts %d on an un-overcommitted fleet",
					res.Rejected, res.ReclamationAttempts)
			}
			if len(res.Revenue) != len(schemes) || len(res.CostSavings) != len(schemes) {
				t.Errorf("Revenue has %d schemes, CostSavings %d, want %d", len(res.Revenue), len(res.CostSavings), len(schemes))
			}
			if res.OnDemandRevenue <= 0 {
				t.Errorf("OnDemandRevenue = %v, want the deflatable VMs' core-hours whatever is metered", res.OnDemandRevenue)
			}
			want := map[string]float64{
				"static":     0.5 * res.OnDemandRevenue,
				"allocation": 0.5 * res.OnDemandRevenue,
				"per-vm":     3 * hours,
				"per-core":   7 * res.OnDemandRevenue,
			}
			for _, s := range schemes {
				got := res.Revenue[s.Name()]
				if w, ok := want[s.Name()]; ok && !almostEq(got, w) {
					t.Errorf("Revenue[%s] = %v, want %v", s.Name(), got, w)
				}
			}
			if _, ok := res.Revenue["priority"]; ok {
				var byLevel float64
				for _, v := range res.RevenueByPriority {
					byLevel += v
				}
				if got := res.Revenue["priority"]; got <= 0 || got > res.OnDemandRevenue || !almostEq(byLevel, got) {
					t.Errorf("Revenue[priority] = %v (by level %v), want within (0, %v]", got, byLevel, res.OnDemandRevenue)
				}
			}
		})
	}
}

// TestRunRejectsTraceChangedAfterFirstRun: the P95 column is derived
// once per trace, so a VM appended after a run has read it has no row;
// both engines must say so instead of indexing past the column.
func TestRunRejectsTraceChangedAfterFirstRun(t *testing.T) {
	for _, mode := range []Mode{ModeDeflation, ModePreemption} {
		tr := testTrace(50)
		if _, err := Run(Config{Trace: tr, Mode: mode}); err != nil {
			t.Fatal(err)
		}
		extra := *tr.VMs[0]
		extra.ID = "late"
		tr.VMs = append(tr.VMs, &extra)
		if _, err := Run(Config{Trace: tr, Mode: mode}); err == nil || !strings.Contains(err.Error(), "immutable") {
			t.Errorf("mode %d: err = %v, want one naming the immutability rule", mode, err)
		}
	}
}

func TestSweepAndRevenueIncrease(t *testing.T) {
	tr := testTrace(250)
	sr := sweepOne(t, tr, StrategyProportional, []float64{0, 40})
	if sr.Strategy != StrategyProportional || len(sr.Points) != 2 {
		t.Fatalf("sweep = %+v", sr)
	}
	inc := RevenueIncrease(sr, "static")
	if len(inc) != 2 || inc[0] != 0 {
		t.Errorf("revenue increase = %v (first point must be 0)", inc)
	}
	// More overcommitment packs more deflatable VMs onto fewer servers:
	// static revenue (per admitted VM-hour) should not decrease.
	if inc[1] < -1 {
		t.Errorf("static revenue increase at 40%% OC = %v, want >= 0", inc[1])
	}
	if RevenueIncrease(&SweepResult{}, "static") != nil {
		t.Error("empty sweep increase should be nil")
	}
}

func TestSweepStrategies(t *testing.T) {
	tr := testTrace(150)
	for _, s := range []string{StrategyPriority, StrategyDeterministic, StrategyPartitioned, StrategyPreemption} {
		if sr := sweepOne(t, tr, s, []float64{30}); len(sr.Points) != 1 {
			t.Fatalf("%s: points = %d", s, len(sr.Points))
		}
	}
}

// TestServersNeverOverAllocated: at 70 % overcommitment, at every
// sample, the allocations of each host's domains sum to no more than
// its capacity, and the running deflatable domains are exactly as many
// as the metering table's rows. The sums are taken domain by domain,
// not from the host's cached aggregate, and the run must have deflated
// for the check to mean anything.
func TestServersNeverOverAllocated(t *testing.T) {
	e, err := NewEngine(Config{Trace: testTrace(300), Policy: policy.Priority{}, Overcommit: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	samples, deflatedSeen := 0, false
	e.afterSample = func() {
		samples++
		live := 0
		for _, s := range e.mgr.Servers() {
			var sum resources.Vector
			for _, d := range s.Host.Domains() {
				alloc := d.Allocation()
				sum = sum.Add(alloc)
				if d.Deflatable() {
					live++
					deflatedSeen = deflatedSeen || alloc != d.MaxSize()
				}
			}
			if capacity := s.Host.Capacity(); !sum.FitsIn(capacity) {
				t.Fatalf("sample %d: %s allocates %v of capacity %v", samples, s.Host.Name(), sum, capacity)
			}
		}
		if live != len(e.tbl) {
			t.Fatalf("sample %d: %d deflatable domains running, metering table has %d rows", samples, live, len(e.tbl))
		}
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 || !deflatedSeen || res.ReclamationAttempts == 0 {
		t.Fatalf("vacuous run: %d samples, deflation seen %v, %d reclamation attempts", samples, deflatedSeen, res.ReclamationAttempts)
	}
}

func TestVMSizeVector(t *testing.T) {
	vm := &trace.VMRecord{Cores: 4, MemoryMB: 8192}
	if got := vmSize(vm); got != resources.CPUMem(4, 8192) {
		t.Errorf("vmSize = %v", got)
	}
}

// TestGeometryWalkOrdering: at t=100, a's departure precedes b's
// arrival, and a zero-lifetime VM departs before it arrives.
func TestGeometryWalkOrdering(t *testing.T) {
	tr := &trace.AzureTrace{VMs: []*trace.VMRecord{
		{ID: "a", Cores: 1, MemoryMB: 1024, Start: 0, End: 100},
		{ID: "b", Cores: 1, MemoryMB: 1024, Start: 100, End: 200},
		{ID: "z", Cores: 1, MemoryMB: 1024, Start: 100, End: 100},
	}}
	var got []string
	newRowSource(tr, nil).geometry().walk(func(row int32, arrival bool) bool {
		sign := "-"
		if arrival {
			sign = "+"
		}
		got = append(got, sign+tr.VMs[row].ID)
		return true
	})
	if want := "+a -a -z +b +z -b"; strings.Join(got, " ") != want {
		t.Errorf("walk = %s, want %s", strings.Join(got, " "), want)
	}
}

// TestStreamConfigValidation pins the Config surface: Trace and Stream
// are mutually exclusive, one of them is required, and the preemption
// baseline runs on a stream as on its materialised trace.
func TestStreamConfigValidation(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioAzure, NumVMs: 10, Duration: 86400, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Stream: s, Trace: s.Materialize()}); err == nil {
		t.Error("Trace+Stream together: want error")
	}
	streamed, err := Run(Config{Stream: s, Mode: ModePreemption, Overcommit: 1})
	if err != nil {
		t.Fatalf("preemption over a stream: %v", err)
	}
	eager, err := Run(Config{Trace: s.Materialize(), Mode: ModePreemption, Overcommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, eager) {
		t.Errorf("preemption over a stream diverged:\nstreamed %+v\neager    %+v", *streamed, *eager)
	}
	if _, err := Run(Config{}); err == nil {
		t.Error("neither Trace nor Stream: want error")
	}
}
