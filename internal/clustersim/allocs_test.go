package clustersim

import (
	"runtime"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// steadyEngine stands up a populated deflation-mode engine over cfg: a
// bursty trace's VMs are all admitted in one batch, so subsequent
// samplePass calls meter a steady running set — the per-VM metering
// exactly as the event loop runs it, without the loop.
func steadyEngine(tb testing.TB, nVMs int, cfg Config) *Engine {
	tb.Helper()
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{
		Kind: trace.ScenarioBursty, NumVMs: nVMs, Duration: 86400, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Trace = tr
	e, err := NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.setupDeflation(); err != nil {
		tb.Fatal(err)
	}
	evs := make([]simEvent, len(tr.VMs))
	for i := range tr.VMs {
		evs[i] = simEvent{at: 0, kind: evArrival, seq: i}
	}
	e.handleArrivals(evs)
	if len(e.tbl) == 0 {
		tb.Fatal("no VMs admitted; sample pass would measure nothing")
	}
	return e
}

// sloSteadyEngine is steadyEngine with SLO metering on: the closed-form
// queueing math and load publication run in every sample.
func sloSteadyEngine(tb testing.TB, nVMs int) *Engine {
	return steadyEngine(tb, nVMs, Config{
		Policy:     policy.LatencyAware{},
		Overcommit: 0.5,
		SLO:        &SLOConfig{MaxSlowdown: 2},
	})
}

// samplePassCycle runs one metered sample at a rotating trace offset so
// utilisations (and hence published loads) actually change between
// passes — the dirty-marking edge, not just the unchanged-load fast
// path, is inside the measurement.
func samplePassCycle(e *Engine, i int) {
	e.samplePass(float64(1+i%100) * trace.SampleInterval)
}

// limitSampleCycle writes a new limit on one resident, alternating
// between two sizes, then runs samplePassCycle: the rows on that
// resident's host re-read their allocation and re-ask every pricing scheme
// (the miss path), every other row holds its cached allocation and rates
// (the hit path).
func limitSampleCycle(tb testing.TB, e *Engine, i int) {
	d := e.tbl[0].domain
	if _, err := d.SetLimits(d.MaxSize().Scale(0.5 + 0.25*float64(i%2))); err != nil {
		tb.Fatal(err)
	}
	samplePassCycle(e, i)
}

// TestSamplePassZeroAllocs is the allocation-regression guard for the
// non-SLO sample pass with the three default pricing schemes, on both
// sides of the allocation cache: the re-read with its Rate calls
// and the cached hold must both be allocation-free once warm.
func TestSamplePassZeroAllocs(t *testing.T) {
	e := steadyEngine(t, 600, Config{Policy: policy.Proportional{}, Overcommit: 0.5})
	limitSampleCycle(t, e, 0) // warm, and fill every row's cache
	reads := e.work.allocReads
	limitSampleCycle(t, e, 1)
	if n := e.work.allocReads - reads; n == 0 || n >= len(e.tbl) {
		t.Fatalf("one pass after a limit write took %d allocation reads over %d rows, want some but not all", n, len(e.tbl))
	}
	i := 2
	got := testing.AllocsPerRun(100, func() {
		limitSampleCycle(t, e, i)
		i++
	})
	if got != 0 {
		t.Errorf("sample pass allocates %.1f allocs/op, want 0", got)
	}
}

// BenchmarkSamplePassSteadyState is TestSamplePassZeroAllocs as the
// `make bench-allocs` gate: `-benchmem` must report 0 allocs/op.
func BenchmarkSamplePassSteadyState(b *testing.B) {
	e := steadyEngine(b, 600, Config{Policy: policy.Proportional{}, Overcommit: 0.5})
	limitSampleCycle(b, e, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		limitSampleCycle(b, e, i)
	}
}

// TestSamplePassSLOZeroAllocs is the allocation-regression guard for
// the SLO-metered sample pass: closed-form queueing math, histogram
// updates and load publication must all be allocation-free once warm,
// since this path runs once per VM per 5-minute boundary at 1M-VM
// scale.
func TestSamplePassSLOZeroAllocs(t *testing.T) {
	e := sloSteadyEngine(t, 600)
	samplePassCycle(e, 0) // warm
	i := 1
	got := testing.AllocsPerRun(100, func() {
		samplePassCycle(e, i)
		i++
	})
	if got != 0 {
		t.Errorf("SLO sample pass allocates %.1f allocs/op, want 0", got)
	}
}

// BenchmarkSamplePassSLOSteadyState is the clustersim benchmark CI's
// alloc smoke watches: `-benchmem` must report 0 allocs/op or the make
// target fails the build. ns/op here is the full-cluster metering cost
// paid every 5 simulated minutes.
func BenchmarkSamplePassSLOSteadyState(b *testing.B) {
	e := sloSteadyEngine(b, 600)
	samplePassCycle(e, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samplePassCycle(e, i)
	}
}

// heapAllocs reads the process's cumulative heap allocation count and
// bytes. ReadMemStats flushes every P's allocation cache first, so the
// counts are exact (runtime/metrics lags by the objects still in those
// caches).
func heapAllocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// TestAllocsPerVMEndToEnd pins the end-to-end allocation count of one
// eager run: heap objects allocated over trace synthesis, NewEngine
// (fleet sizing included) and Run, per trace VM, on the proportional
// policy at 50 % overcommitment. The count is deterministic, so it
// catches a per-VM allocation creeping back into synthesis, the event
// queue or the manager without waiting for a benchmark session. The
// bound is the measurement since a domain handle is a value and a
// host's rows keep their slots under a generation (0.372 per VM) with
// the 7 % headroom the first pin had (1.77, bound 1.9, with an arena and
// a free list per server); it read 1.300 while the manager allocated a
// 16 B handle per domain, and the per-VM trace layout and bucket-slice
// calendar queue before that read 7.47. Heap bytes per VM are bounded
// the same way: 1,329.7 with value handles (1,338.0 with the 16 B
// handle, 1,424.6 with the 128 B Domain), plus 7 %.
func TestAllocsPerVMEndToEnd(t *testing.T) {
	const (
		nVMs       = 4000
		bound      = 0.40
		bytesBound = 1423
	)
	runtime.GC() // the first collection's mark workers allocate
	objects, bytes := heapAllocs()
	e, err := NewEngine(Config{Trace: testTrace(nVMs), Policy: policy.Proportional{}, Overcommit: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	objectsAfter, bytesAfter := heapAllocs()
	perVM, bytesPerVM := float64(objectsAfter-objects)/nVMs, float64(bytesAfter-bytes)/nVMs
	t.Logf("%.3f heap objects, %.1f heap bytes per VM (%d admitted)", perVM, bytesPerVM, res.Admitted)
	if perVM > bound {
		t.Errorf("%.3f heap objects per VM, want <= %.2f", perVM, bound)
	}
	if bytesPerVM > bytesBound {
		t.Errorf("%.1f heap bytes per VM, want <= %d", bytesPerVM, bytesBound)
	}
}

// TestStreamedAllocsPerVMEndToEnd is TestAllocsPerVMEndToEnd on the
// streamed intake under capacity pressure: heap objects allocated over
// building the stream, NewEngine (fleet sizing included) and Run, per
// trace VM, on the priority policy at 75 % overcommitment under rack
// revocations. A streamed VM's floor is its name, plus the error of
// each refused arrival; a domain handle, an evacuee's new one included,
// is a value. The bound is the measurement since handles became values
// (1.150 per VM) with the 7 % headroom the first pin had (2.25, bound
// 2.4); it read 2.187 with a 16 B handle per domain, and the per-arrival
// VMRecord before that read 3.32. Heap bytes per VM are bounded the same
// way: 145.1 with value handles (160.0 with the 16 B handle, 273.5 with
// the 128 B Domain), plus 7 %.
func TestStreamedAllocsPerVMEndToEnd(t *testing.T) {
	const (
		nVMs       = 4000
		bound      = 1.23
		bytesBound = 155
	)
	runtime.GC() // the first collection's mark workers allocate
	objects, bytes := heapAllocs()
	s, err := trace.NewNamedStream("heavytail", nVMs, 3*86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{
		Stream:      s,
		Policy:      policy.Priority{},
		Overcommit:  0.75,
		ShockConfig: &trace.ShockConfig{Kind: trace.ShockRack, RatePerDay: 2, OutageMean: 7200, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	objectsAfter, bytesAfter := heapAllocs()
	perVM, bytesPerVM := float64(objectsAfter-objects)/nVMs, float64(bytesAfter-bytes)/nVMs
	t.Logf("%.3f heap objects, %.1f heap bytes per VM (%d admitted, %d rejected, %d evacuations)",
		perVM, bytesPerVM, res.Admitted, res.Rejected, res.Evacuations)
	if res.Rejected == 0 || res.Evacuations == 0 {
		t.Fatalf("vacuous run: %d rejected, %d evacuations", res.Rejected, res.Evacuations)
	}
	if perVM > bound {
		t.Errorf("%.3f heap objects per VM, want <= %.2f", perVM, bound)
	}
	if bytesPerVM > bytesBound {
		t.Errorf("%.1f heap bytes per VM, want <= %d", bytesPerVM, bytesBound)
	}
}
