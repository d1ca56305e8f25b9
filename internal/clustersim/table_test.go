package clustersim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/pricing"
	"vmdeflate/internal/trace"
)

// checkTable audits the metering table against the manager it shadows,
// between two events: every row's slotOf back-pointer, that the row is
// what its domain says it is (deflatable, same name, same size, tagged
// with the row's trace row), that a cached allocation is the domain's
// own while its host's allocation epoch has not moved, the meter
// column's length, and the other direction — every deflatable resident
// of the manager has exactly its row, every on-demand resident sits at
// the on-demand sentinel, and no other trace row claims to be running.
func checkTable(t *testing.T, e *Engine) {
	t.Helper()
	if k := len(pricingSchemes); len(e.meters) != len(e.tbl)*k {
		t.Fatalf("meter column holds %d meters for %d rows of %d schemes", len(e.meters), len(e.tbl), k)
	}
	for i := range e.tbl {
		vt := &e.tbl[i]
		switch {
		case e.slotOf[vt.row] != int32(i):
			t.Fatalf("tbl[%d] is trace row %d, but slotOf[%d] = %d", i, vt.row, vt.row, e.slotOf[vt.row])
		case !vt.domain.Config().Deflatable:
			t.Fatalf("tbl[%d] (%s) holds an on-demand domain", i, vt.rec.ID)
		case vt.domain.Name() != vt.rec.ID:
			t.Fatalf("tbl[%d] is %s but its domain is %s", i, vt.rec.ID, vt.domain.Name())
		case vt.size != vt.domain.MaxSize():
			t.Fatalf("tbl[%d] (%s) size %v, domain size %v", i, vt.rec.ID, vt.size, vt.domain.MaxSize())
		case vt.domain.Config().Tag != vt.row:
			t.Fatalf("tbl[%d] (%s) is trace row %d, its domain is tagged %d", i, vt.rec.ID, vt.row, vt.domain.Config().Tag)
		case (vt.cur != nil) != (e.cfg.Stream != nil):
			t.Fatalf("tbl[%d] (%s): cursor bound = %v on a run with stream = %v", i, vt.rec.ID, vt.cur != nil, e.cfg.Stream != nil)
		case vt.host != nil && vt.host != vt.domain.Host():
			t.Fatalf("tbl[%d] (%s) caches host %s, its domain is on %s", i, vt.rec.ID, vt.host.Name(), vt.domain.Host().Name())
		case vt.host != nil && vt.epoch == vt.host.AllocEpoch() && vt.alloc != vt.domain.Allocation():
			t.Fatalf("tbl[%d] (%s) caches allocation %v at its host's current epoch %d, the domain holds %v",
				i, vt.rec.ID, vt.alloc, vt.epoch, vt.domain.Allocation())
		}
	}
	deflatable, onDemand := 0, 0
	for _, s := range e.mgr.Servers() {
		for _, d := range s.Host.Domains() {
			slot := e.slotOf[d.Config().Tag]
			if !d.Config().Deflatable {
				onDemand++
				if slot != slotOnDemand {
					t.Fatalf("on-demand resident %s (row %d) has slot %d, want the on-demand sentinel", d.Name(), d.Config().Tag, slot)
				}
				continue
			}
			deflatable++
			if slot < 0 || e.tbl[slot].domain != d {
				t.Fatalf("deflatable resident %s (row %d) has slot %d, which does not hold its domain", d.Name(), d.Config().Tag, slot)
			}
		}
	}
	if deflatable != len(e.tbl) {
		t.Fatalf("table has %d rows, the manager %d deflatable residents", len(e.tbl), deflatable)
	}
	rows, sentinels := 0, 0
	for _, slot := range e.slotOf {
		switch {
		case slot >= 0:
			rows++
		case slot == slotOnDemand:
			sentinels++
		}
	}
	if rows != len(e.tbl) || sentinels != onDemand {
		t.Fatalf("slotOf marks %d rows and %d on-demand VMs running; table has %d rows, manager %d on-demand residents",
			rows, sentinels, len(e.tbl), onDemand)
	}
}

// runChecked runs cfg with checkTable after every sample pass and
// reports how many passes it audited.
func runChecked(t *testing.T, cfg Config) (*Result, int) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audits := 0
	e.afterSample = func() {
		checkTable(t, e)
		audits++
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, audits
}

// meteringCases are the configurations the differential, revocation,
// SLO, pools and stream suites drive, built by those suites' own helpers.
func meteringCases(t *testing.T) map[string]Config {
	t.Helper()
	tr := testTrace(400)
	bursty, err := trace.GenerateScenario(trace.ScenarioConfig{Kind: trace.ScenarioBursty, NumVMs: 1200, Duration: 86400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := trace.NewStream(trace.ScenarioConfig{Kind: trace.ScenarioHeavyTail, NumVMs: 600, Duration: 86400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Duration()
	return map[string]Config{
		"differential": {Trace: tr, Policy: policy.Proportional{}, Overcommit: 0.6},
		"partitioned":  {Trace: tr, Policy: policy.Priority{}, Overcommit: 0.5, Partitioned: true},
		"revocation":   {Trace: tr, Policy: policy.Priority{}, Overcommit: 0.5, ShockConfig: testShockConfig(11)},
		"explicit shocks": {Trace: tr, Policy: policy.Priority{}, Overcommit: 0.5, Shocks: []trace.CapacityShock{
			{At: 0.2 * h, Kind: trace.ShockRevoke, Server: 0},
			{At: 0.5 * h, Kind: trace.ShockRestore, Server: 0},
			{At: 0.5 * h, Kind: trace.ShockRevoke, Server: 2},
		}},
		"slo":         sloTestConfig(bursty, 0.5),
		"slo shocked": {Trace: bursty, Policy: policy.Proportional{}, Overcommit: 0.5, SLO: &SLOConfig{Curve: perfmodel.Kcompile, MaxSlowdown: 2}, ShockConfig: testShockConfig(4)},
		// Metered through no scheme at all (forEachMeteringCase swaps
		// the list): a meter column of width zero.
		"zero schemes":   {Trace: tr, Policy: policy.Priority{}, Overcommit: 0.5, ShockConfig: testShockConfig(11)},
		"stream":         {Stream: stream, Policy: policy.Priority{}, Overcommit: 0.5},
		"stream shocked": {Stream: stream, Policy: policy.Priority{}, Overcommit: 0.4, Partitioned: true, SLO: &SLOConfig{}, ShockConfig: testShockConfig(11)},
	}
}

// withSchemes meters every run for the rest of the test through schemes
// in place of the paper's three: the meter column is len(schemes) wide.
func withSchemes(t testing.TB, schemes []pricing.Scheme) {
	t.Helper()
	prev := pricingSchemes
	pricingSchemes = schemes
	t.Cleanup(func() { pricingSchemes = prev })
}

// forEachMeteringCase runs fn on every metering case, on the run queue
// (labelled "calendar", the queue it replaced, so the subtest names stay
// stable) and on the binary-heap oracle.
func forEachMeteringCase(t *testing.T, fn func(t *testing.T, cfg Config)) {
	for name, cfg := range meteringCases(t) {
		for _, queue := range []string{"calendar", "heapqueue"} {
			t.Run(name+"/"+queue, func(t *testing.T) {
				if queue == "heapqueue" {
					useHeapQueue(t)
				}
				if name == "zero schemes" {
					withSchemes(t, nil)
				}
				fn(t, cfg)
			})
		}
	}
}

// TestMeteringTableInvariants audits the table mid-run on the metering
// cases and holds each audited run to the unaudited one.
func TestMeteringTableInvariants(t *testing.T) {
	forEachMeteringCase(t, func(t *testing.T, cfg Config) {
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, audits := runChecked(t, cfg)
		if audits == 0 || got.DeflatableAdmitted == 0 || got.Admitted == got.DeflatableAdmitted {
			t.Fatalf("vacuous run: %d audits, %d admitted, %d of them deflatable", audits, got.Admitted, got.DeflatableAdmitted)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("audited run diverged:\ngot  %+v\nwant %+v", *got, *want)
		}
	})
}

// TestCachedAllocationMatchesLockedReads holds the sample pass's
// allocation cache to the path it replaced: dropping every row's cache
// after each pass makes every sample re-read its allocation and re-ask
// every pricing scheme, and the Result must not change by a bit.
func TestCachedAllocationMatchesLockedReads(t *testing.T) {
	forEachMeteringCase(t, func(t *testing.T, cfg Config) {
		cached, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cached.Run()
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		visits := 0
		e.afterSample = func() {
			visits += len(e.tbl)
			for i := range e.tbl {
				e.tbl[i].host = nil
			}
		}
		got, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if e.work.allocReads != visits || cached.work.allocReads >= visits {
			t.Fatalf("allocation reads: %d uncached, %d cached, over %d metered rows; want all, then fewer",
				e.work.allocReads, cached.work.allocReads, visits)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("uncached run diverged:\ngot  %+v\nwant %+v", *got, *want)
		}
	})
}

// TestSamplePassAllocReads pins the work the allocation cache saves: on
// a shocked run that deflates at admission and relocates evacuees, the
// sample pass re-reads an allocation for a small share of the rows it
// meters. Without the cache every metered row was a read.
func TestSamplePassAllocReads(t *testing.T) {
	e, err := NewEngine(Config{Trace: testTrace(400), Policy: policy.Proportional{}, Overcommit: 0.5, ShockConfig: testShockConfig(11)})
	if err != nil {
		t.Fatal(err)
	}
	visits := 0
	e.afterSample = func() { visits += len(e.tbl) }
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclamationAttempts == 0 || res.Evacuations == 0 {
		t.Fatalf("premise broken: %d reclamation attempts, %d evacuations (want both > 0)", res.ReclamationAttempts, res.Evacuations)
	}
	if 100*e.work.allocReads >= 15*visits {
		t.Errorf("%d allocation reads over %d metered rows, want under 15 %%", e.work.allocReads, visits)
	}
	// 1701 reads while every limit write bumped the epoch; a write that
	// moves no allocation bumps nothing, and the cache serves 23 more.
	const wantReads, wantVisits = 1678, 16800
	if e.work.allocReads != wantReads || visits != wantVisits {
		t.Errorf("%d allocation reads over %d metered rows, want %d over %d", e.work.allocReads, visits, wantReads, wantVisits)
	}
}

// TestIDReuseAfterShockKill: a killed VM's queued departure must not
// touch a later VM that reuses its ID (legal in a CSV trace once the
// lifetimes are disjoint). Departures used to resolve by name, so the
// second "x" was closed and removed at the dead one's end time; by trace
// row the stale departure finds nothing and "x" runs to its own end.
func TestIDReuseAfterShockKill(t *testing.T) {
	util := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = 50
		}
		return s
	}
	tr := &trace.AzureTrace{VMs: []*trace.VMRecord{
		{ID: "x", Class: trace.Interactive, Cores: 2, MemoryMB: 2048, Start: 0, End: 6000, CPUUtil: util(20)},
		{ID: "x", Class: trace.Interactive, Cores: 2, MemoryMB: 2048, Start: 3000, End: 12000, CPUUtil: util(30)},
	}}
	e, err := NewEngine(Config{
		Trace:           tr,
		BaselineServers: 1,
		Shocks: []trace.CapacityShock{
			{At: 1500, Kind: trace.ShockRevoke, Server: 0}, // the only server: row 0 dies
			{At: 2400, Kind: trace.ShockRestore, Server: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// checkTable holds the manager to the table at every sample, so a
	// premature RemoveVMs of row 1 would fail there too.
	row1Samples := 0
	e.afterSample = func() {
		checkTable(t, e)
		if e.slotOf[1] >= 0 {
			row1Samples++
		}
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Servers != 1 || res.Admitted != 2 || res.Rejected != 0 || res.ShockKills != 1 {
		t.Fatalf("premise broken: %d servers, %d admitted, %d rejected, %d shock kills (want 1, 2, 0, 1)",
			res.Servers, res.Admitted, res.Rejected, res.ShockKills)
	}
	// Samples at 3300, 3600, ..., 12000 (a sample precedes the departure
	// it shares an instant with); only the first 10 come before row 0's
	// stale departure at 6000.
	if row1Samples != 30 {
		t.Errorf("row 1 was sampled %d times, want 30: it must run to its own end", row1Samples)
	}
	// Row 0 bills 0..1500, row 1 its whole 3000..12000: 2 cores each.
	if want := 2 * (1500.0 + 9000.0) / 3600; !almostEq(res.OnDemandRevenue, want) {
		t.Errorf("OnDemandRevenue = %v core-hours, want %v (row 1 metered to its own end)", res.OnDemandRevenue, want)
	}
}

// TestIDLiveTwiceFailsRun: a trace built in code can carry an ID that
// arrives while an earlier row with it still runs, which ReadAzureCSV
// rejects at load. The name-keyed manager cannot hold both, so the run
// fails naming the ID and the arriving row — in deflation mode, where
// the placement used to be counted as Rejected, and in preemption mode,
// where the second VM used to overwrite the first in the running set
// (the first's departure then took the second off its server and the
// first's capacity leaked).
func TestIDLiveTwiceFailsRun(t *testing.T) {
	util := []float64{50, 50, 50, 50}
	tr := &trace.AzureTrace{VMs: []*trace.VMRecord{
		{ID: "a", Class: trace.Interactive, Cores: 2, MemoryMB: 2048, Start: 0, End: 1200, CPUUtil: util},
		{ID: "x", Class: trace.Interactive, Cores: 2, MemoryMB: 2048, Start: 0, End: 1200, CPUUtil: util},
		{ID: "x", Class: trace.DelayInsensitive, Cores: 2, MemoryMB: 2048, Start: 600, End: 1800, CPUUtil: util},
	}}
	for _, mode := range []Mode{ModeDeflation, ModePreemption} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			res, err := Run(Config{Trace: tr, Mode: mode, BaselineServers: 1})
			if err == nil {
				t.Fatalf("run succeeded (%d admitted, %d rejected), want an error for ID \"x\" live twice", res.Admitted, res.Rejected)
			}
			for _, want := range []string{`"x"`, "trace row 2"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
		})
	}
}

// TestInvalidVMFailsRun: ReadAzureCSV accepts a 128 MB VM, which no
// hypervisor defines (memory below the guest kernel's 256 MB reserve).
// The run fails naming the VM and its trace row, instead of counting it
// as an admission rejection after deflating residents to make room for
// it.
func TestInvalidVMFailsRun(t *testing.T) {
	tr, err := trace.ReadAzureCSV(strings.NewReader(`id,class,cores,memory_mb,start,end,cpu_util
a,interactive,4,4096,0,1200,50;50;50;50
b,interactive,4,4096,0,1200,50;50;50;50
tiny,interactive,2,128,300,1200,50;50;50
`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Trace: tr, BaselineServers: 1})
	if !errors.Is(err, hypervisor.ErrInvalid) {
		t.Fatalf("run: %+v, err = %v, want hypervisor.ErrInvalid", res, err)
	}
	for _, want := range []string{`"tiny"`, "trace row 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestPreemptionIDReuseAfterShockKill is TestIDReuseAfterShockKill on the
// preemption baseline: row 0's stale departure must not take row 1,
// which reused its ID, off the server. A full-server VM arriving in
// between then finds row 1 still there and is rejected.
func TestPreemptionIDReuseAfterShockKill(t *testing.T) {
	util := make([]float64, 40)
	tr := &trace.AzureTrace{VMs: []*trace.VMRecord{
		{ID: "x", Class: trace.Interactive, Cores: 2, MemoryMB: 2048, Start: 0, End: 6000, CPUUtil: util},
		{ID: "x", Class: trace.Interactive, Cores: 2, MemoryMB: 2048, Start: 3000, End: 12000, CPUUtil: util},
		{ID: "big", Class: trace.Interactive, Cores: 48, MemoryMB: 131072, Start: 7000, End: 9000, CPUUtil: util},
	}}
	res, err := Run(Config{
		Trace:           tr,
		Mode:            ModePreemption,
		BaselineServers: 1,
		Shocks: []trace.CapacityShock{
			{At: 1500, Kind: trace.ShockRevoke, Server: 0}, // the only server: row 0 dies
			{At: 2400, Kind: trace.ShockRestore, Server: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShockKills != 1 || res.Admitted != 2 || res.Rejected != 1 {
		t.Fatalf("%d shock kills, %d admitted, %d rejected; want 1, 2, 1 (row 1 still holds its cores when big arrives)",
			res.ShockKills, res.Admitted, res.Rejected)
	}
}

// TestSamplePassVisitsOnlyMeteredVMs pins the work count the table
// exists for: a sample pass visits the running deflatable VMs and
// nothing else, so visits summed over the run equal the samples metered.
// With a tracking record for every running VM, on-demand included, the
// same run made 19,547 visits.
func TestSamplePassVisitsOnlyMeteredVMs(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{Kind: trace.ScenarioBursty, NumVMs: 400, Duration: 86400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(sloTestConfig(tr, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	visits := 0
	e.afterSample = func() { visits += len(e.tbl) }
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if metered := int(res.SLOSampleSeconds / trace.SampleInterval); visits != metered {
		t.Errorf("sample passes visited %d rows, metered %d samples", visits, metered)
	}
	const want = 11033
	if visits != want {
		t.Errorf("sample passes visited %d rows, want %d", visits, want)
	}
}

// TestArrivalDeparturePairAllocatesOneDomain: on a warm eager engine
// admitting one VM and closing it again allocates the manager's Domain
// and nothing else — no tracking record, no meter slice, no queue
// growth — whether the VM gets a table row (deflatable) or only a
// sentinel (on-demand).
func TestArrivalDeparturePairAllocatesOneDomain(t *testing.T) {
	checkPairAllocs(t, Config{Trace: testTrace(300)}, 1)
}

// TestStreamedArrivalDeparturePairAllocatesDomainAndName is the same
// pair on a streamed engine, which regenerates the VM from its row: the
// pair allocates the Domain and the VM's name, which the Domain, the
// table row and the departure event share, and nothing else. The
// utilisation cursor a deflatable VM binds is recycled from the last
// one released.
func TestStreamedArrivalDeparturePairAllocatesDomainAndName(t *testing.T) {
	st, err := trace.NewNamedStream("azure", 300, 2*86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkPairAllocs(t, Config{Stream: st}, 2)
}

// checkPairAllocs warms a deflation engine over cfg with every fourth
// trace row resident, then requires an arrival + departure pair of a
// spare row of each class to allocate exactly want objects.
func checkPairAllocs(t *testing.T, cfg Config, want float64) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.setupDeflation(); err != nil {
		t.Fatal(err)
	}
	// Warm: a resident population, and a queue holding only what the
	// pairs below push.
	var resident []simEvent
	rowOf := map[trace.VMClass]int{}
	for i := range e.src.len() {
		if i%4 == 0 {
			resident = append(resident, simEvent{at: 0, kind: evArrival, seq: i})
		} else {
			rowOf[e.src.class(i)] = i
		}
	}
	if err := e.handleArrivals(resident); err != nil {
		t.Fatal(err)
	}
	if len(e.tbl) == 0 || e.res.Rejected != 0 {
		t.Fatalf("warm-up admitted %d rows, rejected %d", len(e.tbl), e.res.Rejected)
	}
	e.queue = newStreamQueue(nil, nil)
	for _, class := range []trace.VMClass{trace.Interactive, trace.DelayInsensitive} {
		row, ok := rowOf[class]
		if !ok {
			t.Fatalf("trace has no spare %v VM", class)
		}
		arrival := []simEvent{{at: 0, kind: evArrival, seq: row}}
		departure := make([]simEvent, 1)
		pair := func() {
			if err := e.handleArrivals(arrival); err != nil {
				t.Fatal(err)
			}
			departure[0] = e.queue.pop()
			if err := e.handleDepartures(departure); err != nil {
				t.Fatal(err)
			}
		}
		pair() // warm the table, meter column, scratch capacity and cursor pool
		rows, admitted := len(e.tbl), e.res.Admitted
		if got := testing.AllocsPerRun(200, pair); got != want {
			t.Errorf("%v arrival + departure allocates %.1f objects, want %v", class, got, want)
		}
		if len(e.tbl) != rows || e.res.Admitted != admitted+201 || !e.queue.empty() {
			t.Fatalf("%v pairs left %d rows (want %d), %d admissions (want %d), queue empty = %v",
				class, len(e.tbl), rows, e.res.Admitted-admitted, 201, e.queue.empty())
		}
		checkTable(t, e)
	}
}

// TestNoSampleRowFailsRun: a CSV trace may hold a row with an empty
// cpu_util column, and its P95 is NaN. Admission used to quantise that
// into a priority of -2.3e18 and fail the run on the hypervisor's
// priority check, which named neither the cause nor the fix. The run
// now fails naming the trace row and its missing samples. (The
// preemption baseline still admits such rows: it defines no domain, and
// its former-loop differentials run fractional traces that hold them.)
func TestNoSampleRowFailsRun(t *testing.T) {
	tr, err := trace.ReadAzureCSV(strings.NewReader("id,class,cores,memory_mb,start,end,cpu_util\n" +
		"a,interactive,2,2048,0,1200,50;50\n" +
		"b,interactive,2,2048,300,1500,\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, partitioned := range []bool{false, true} {
		_, err := Run(Config{Trace: tr, BaselineServers: 1, Partitioned: partitioned})
		if err == nil || !strings.Contains(err.Error(), `trace row 1: interactive VM ID "b" has no CPU samples`) ||
			strings.Contains(err.Error(), "priority -") {
			t.Errorf("partitioned %v: err = %v, want one naming row 1 and its missing samples", partitioned, err)
		}
	}
	// A trace built in code may carry a NaN sample instead.
	nan := &trace.AzureTrace{VMs: []*trace.VMRecord{
		{ID: "n", Class: trace.Interactive, Cores: 2, MemoryMB: 2048, Start: 0, End: 600, CPUUtil: []float64{50, math.NaN()}},
	}}
	if _, err := Run(Config{Trace: nan, BaselineServers: 1}); err == nil || !strings.Contains(err.Error(), `trace row 0: interactive VM ID "n" has a NaN CPU sample`) {
		t.Errorf("NaN sample: err = %v", err)
	}
}
