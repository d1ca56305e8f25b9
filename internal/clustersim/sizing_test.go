package clustersim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// The reference for fleet sizing: the per-candidate search the
// single-pass packFleet replaced — its own stable event sort, its own
// placement map, one whole-trace replay per candidate server count. Two
// things changed since it was the production path: the map is keyed by
// record, so repeated IDs cannot alias, and a departure clamps free
// capacity as packFleet does.

type referenceEvent struct {
	at      float64
	arrival bool
	vm      *trace.VMRecord
}

func referenceEvents(tr *trace.AzureTrace) []referenceEvent {
	evs := make([]referenceEvent, 0, 2*len(tr.VMs))
	for _, vm := range tr.VMs {
		evs = append(evs, referenceEvent{at: vm.Start, arrival: true, vm: vm})
		evs = append(evs, referenceEvent{at: vm.End, arrival: false, vm: vm})
	}
	slices.SortStableFunc(evs, func(a, b referenceEvent) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		case !a.arrival && b.arrival:
			return -1
		case a.arrival && !b.arrival:
			return 1
		default:
			return 0
		}
	})
	return evs
}

func fullAllocationFeasible(evs []referenceEvent, n int, serverCap resources.Vector) bool {
	free := make([]resources.Vector, n)
	for i := range free {
		free[i] = serverCap
	}
	// Keyed by record, not ID, so repeated IDs cannot alias.
	where := make(map[*trace.VMRecord]int, len(evs)/2)
	for _, e := range evs {
		size := vmSize(e.vm)
		if !e.arrival {
			if s, ok := where[e.vm]; ok {
				// Clamped like packFleet's replay: no server frees more than
				// its capacity, whatever the round-off.
				free[s] = free[s].Add(size).Min(serverCap)
				delete(where, e.vm)
			}
			continue
		}
		best := tightestFit(free, size, serverCap)
		if best < 0 {
			return false
		}
		free[best] = free[best].Sub(size)
		where[e.vm] = best
	}
	return true
}

// referenceServerCount is the candidate search; it also reports how
// many candidates it replayed. Like sizeFleet it fails on a VM larger
// than a server and when no candidate up to 4x the peak bound packs.
func referenceServerCount(tr *trace.AzureTrace, serverCap resources.Vector) (n, candidates int, err error) {
	for _, vm := range tr.VMs {
		if !vmSize(vm).FitsIn(serverCap) {
			return 0, 0, fmt.Errorf("reference search: VM %s exceeds a server", vm.ID)
		}
	}
	lb, err := PeakServerLowerBound(tr, serverCap)
	if err != nil {
		return 0, 0, err
	}
	evs := referenceEvents(tr)
	for n := lb; n <= 4*lb+4; n++ {
		if fullAllocationFeasible(evs, n, serverCap) {
			return n, n - lb + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("reference search: no feasible packing within %d servers", 4*lb+4)
}

func TestSizingOnePassMatchesCandidateSearch(t *testing.T) {
	capacity := DefaultServerCapacity()
	sizes := []int{2000, 20000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, kind := range trace.Scenarios() {
		for _, vms := range sizes {
			t.Run(fmt.Sprintf("%v/%d", kind, vms), func(t *testing.T) {
				t.Parallel()
				grew := 0
				for seed := int64(1); seed <= 8; seed++ {
					s, err := trace.NewStream(trace.ScenarioConfig{Kind: kind, NumVMs: vms, Duration: 3 * 86400, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					tr := s.Materialize()
					want, candidates, err := referenceServerCount(tr, capacity)
					if err != nil {
						t.Fatal(err)
					}
					grew += candidates - 1
					eager, err := BaselineServerCount(tr, capacity)
					if err != nil {
						t.Fatal(err)
					}
					streamed, _, err := sizeFleet(newRowSource(nil, s), capacity)
					if err != nil {
						t.Fatal(err)
					}
					if eager != want || streamed != want {
						t.Errorf("seed %d: eager %d, streamed %d, candidate search %d", seed, eager, streamed, want)
					}
				}
				t.Logf("fleets grew past the peak bound by %d servers over 8 seeds", grew)
			})
		}
	}
}

// fractionalTrace draws VMs whose memory sizes are not exactly
// representable sums, so free vectors drift by round-off as VMs come
// and go, and whose start/end times collide often.
func fractionalTrace(seed int64, n int) *trace.AzureTrace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.AzureTrace{}
	for i := 0; i < n; i++ {
		start := float64(rng.Intn(200)) * 300
		tr.VMs = append(tr.VMs, &trace.VMRecord{
			ID:       fmt.Sprintf("vm-%d", i),
			Cores:    1 + rng.Intn(24),
			MemoryMB: 512 + rng.Float64()*65536/3,
			Start:    start,
			End:      start + float64(rng.Intn(40))*300,
		})
	}
	return tr
}

func TestSizingOnePassMatchesCandidateSearchFractionalMemory(t *testing.T) {
	capacity := DefaultServerCapacity()
	grew := 0
	for seed := int64(1); seed <= 40; seed++ {
		tr := fractionalTrace(seed, 1500)
		want, candidates, err := referenceServerCount(tr, capacity)
		if err != nil {
			t.Fatal(err)
		}
		grew += candidates - 1
		got, err := BaselineServerCount(tr, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("seed %d: one pass %d, candidate search %d", seed, got, want)
		}
	}
	if grew == 0 {
		t.Error("test premise broken: no trace needed more than the peak bound")
	}
}

// walkOrder lists a geometry walk's events as (record, arrival) pairs
// in the shape referenceEvents produces.
func walkOrder(src *rowSource, vms []*trace.VMRecord) []referenceEvent {
	var out []referenceEvent
	src.geometry().walk(func(row int32, arrival bool) bool {
		vm := vms[row]
		at := vm.End
		if arrival {
			at = vm.Start
		}
		out = append(out, referenceEvent{at: at, arrival: arrival, vm: vm})
		return true
	})
	return out
}

// TestGeometryWalkMatchesStableSort pins the geometry walk's (time,
// departures-first, trace row) total order to the stable sort it
// replaced, on traces dense with time ties and zero-lifetime VMs, and on
// the streamed adapter of every scenario.
func TestGeometryWalkMatchesStableSort(t *testing.T) {
	check := func(name string, src *rowSource, tr *trace.AzureTrace) {
		t.Helper()
		if got, want := walkOrder(src, tr.VMs), referenceEvents(tr); !slices.Equal(got, want) {
			t.Fatalf("%s: walk delivered %d events in another order than the %d the stable sort gives", name, len(got), len(want))
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		tr := fractionalTrace(seed, 800)
		check(fmt.Sprintf("fractional seed %d", seed), newRowSource(tr, nil), tr)
	}
	for _, kind := range trace.Scenarios() {
		s, err := trace.NewStream(trace.ScenarioConfig{Kind: kind, NumVMs: 600, Duration: 86400, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		check(string(kind)+" streamed", newRowSource(nil, s), s.Materialize())
	}
}

// TestSizingIgnoresDuplicateVMIDs: CSV traces may repeat a VM ID
// (ReadAzureCSV does not reject them). The placement column is indexed
// by trace row, so a repeated ID must size exactly like the same trace
// with unique IDs; the name-keyed map it replaced freed the wrong
// server and leaked the other VM's capacity.
func TestSizingIgnoresDuplicateVMIDs(t *testing.T) {
	capacity := DefaultServerCapacity()
	for seed := int64(1); seed <= 5; seed++ {
		unique := fractionalTrace(seed, 1500)
		dup := &trace.AzureTrace{}
		for i, vm := range unique.VMs {
			c := *vm
			c.ID = fmt.Sprintf("vm-%d", i%50)
			dup.VMs = append(dup.VMs, &c)
		}
		want, err := BaselineServerCount(unique, capacity)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BaselineServerCount(dup, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("seed %d: duplicated IDs size to %d servers, unique IDs to %d", seed, got, want)
		}
	}
}

// fitsMatchLinear replays packFleet's walk on a fleet and holds the
// pruned fit to the linear tightestFit at every arrival. It returns the
// servers each examined: the linear scan stops at its first perfect fit
// and otherwise examines every server.
func fitsMatchLinear(t testing.TB, src *rowSource, capacity resources.Vector) (linear, pruned int) {
	t.Helper()
	f := newFleet(0, capacity)
	where := make([]int32, src.len())
	for i := range where {
		where[i] = -1
	}
	arrivals := 0
	g := src.geometry()
	g.walk(func(row int32, arrival bool) bool {
		size := g.size(row)
		if !arrival {
			if sv := where[row]; sv >= 0 {
				f.depart(int(sv), size)
				where[row] = -1
			}
			return true
		}
		arrivals++
		servers := len(f.free)
		want := tightestFit(f.free, size, capacity)
		if want >= 0 && f.free[want].Sub(size).DominantShare(capacity) == 0 {
			linear += want + 1
		} else {
			linear += servers
		}
		// arrive places on fit's choice, or on a new server when fit
		// finds none.
		got := f.arrive(size)
		if want >= 0 && got != want || want < 0 && got != servers {
			t.Fatalf("arrival %d (row %d, %v) on %d servers: pruned scan placed on %d, linear scan chose %d",
				arrivals, row, size, servers, got, want)
		}
		where[row] = int32(got)
		return true
	})
	return linear, f.examined
}

// TestFleetFitMatchesLinearScan holds the pruned scan to the linear
// tightestFit decision by decision: four scenarios × seeds 1–3, eager and
// streamed, the fractional-memory traces on the default server, and on
// servers whose memory is scaled from 1/10,000 up to 1000 (VM memory
// with it), where the start slack is set by a smaller component.
func TestFleetFitMatchesLinearScan(t *testing.T) {
	capacity := DefaultServerCapacity()
	for _, kind := range trace.Scenarios() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", kind, seed), func(t *testing.T) {
				t.Parallel()
				s, err := trace.NewStream(trace.ScenarioConfig{Kind: kind, NumVMs: 20000, Duration: 3 * 86400, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				linear, pruned := fitsMatchLinear(t, newRowSource(nil, s), capacity)
				fitsMatchLinear(t, newRowSource(s.Materialize(), nil), capacity)
				t.Logf("servers examined: linear %d, pruned %d", linear, pruned)
			})
		}
	}
	t.Run("fractional", func(t *testing.T) {
		t.Parallel()
		for seed := int64(1); seed <= 10; seed++ {
			for _, scale := range []float64{1, 1e-4, 1e-3, 1.0 / 3, 7.3, 1e3} {
				tr := scaleMemory(fractionalTrace(seed, 1500), scale)
				fitsMatchLinear(t, newRowSource(tr, nil), scaledCapacity(scale))
			}
		}
	})
}

// TestFleetFitStartSlack pins the start bound's slack: a server whose
// free memory is 0.9e-9 MB short of a memory-dominant VM passes FitsIn
// and is the tightest fit, though its free share is below the VM's. On
// the default server the deficit is a few ulps of share; on a server
// with 13.1 MB of memory it is 6.9e-11, inside FitTolerance over that
// smallest component (7.6e-11) but not over the 48 cores (2.1e-11).
func TestFleetFitStartSlack(t *testing.T) {
	for _, scale := range []float64{1, 1e-4} {
		capacity := scaledCapacity(scale)
		mem := capacity.Get(resources.Memory)
		size := resources.CPUMem(1, mem/2)
		f := newFleet(3, capacity)
		f.set(0, resources.CPUMem(2, mem/2-0.9e-9))
		f.set(2, resources.CPUMem(47, mem*0.53))
		if s, d := f.share[0], size.DominantShare(capacity); s >= d || !size.FitsIn(f.free[0]) {
			t.Fatalf("scale %v: test premise broken: free share %v, VM share %v, fits %v", scale, s, d, size.FitsIn(f.free[0]))
		}
		if got, want := f.fit(size), tightestFit(f.free, size, capacity); got != want || want != 0 {
			t.Errorf("scale %v: pruned scan chose %d, linear scan %d, want 0", scale, got, want)
		}
	}
}

// scaledCapacity is the default server with its memory scaled.
func scaledCapacity(scale float64) resources.Vector {
	c := DefaultServerCapacity()
	return c.With(resources.Memory, c.Get(resources.Memory)*scale)
}

// scaleMemory scales every VM's memory in place and returns the trace.
func scaleMemory(tr *trace.AzureTrace, scale float64) *trace.AzureTrace {
	for _, vm := range tr.VMs {
		vm.MemoryMB *= scale
	}
	return tr
}

// TestSizingWorkCounters: sizing a 20k-VM trace walks it twice — the
// peak bound, then one packing replay — with one tightest-fit scan per
// arrival, however far the fleet grows past the lower bound, and the
// scans examine the pinned number of servers, under a fifth of what the
// linear scan examines on the same replay.
func TestSizingWorkCounters(t *testing.T) {
	const examined = 99990
	s, err := trace.NewNamedStream("heavytail", 20000, 3*86400, 3)
	if err != nil {
		t.Fatal(err)
	}
	capacity := DefaultServerCapacity()
	tr := s.Materialize()
	lb, err := PeakServerLowerBound(tr, capacity)
	if err != nil {
		t.Fatal(err)
	}
	linear, _ := fitsMatchLinear(t, newRowSource(tr, nil), capacity)
	for name, src := range map[string]*rowSource{
		"eager":    newRowSource(tr, nil),
		"streamed": newRowSource(nil, s),
	} {
		n, work, err := sizeFleet(src, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if n <= lb {
			t.Fatalf("%s: test premise broken: sized to %d, peak bound %d, so a candidate search would also replay once", name, n, lb)
		}
		if walks := src.geo.walks; walks != 2 || work.scans != len(tr.VMs) || work.examined != examined {
			t.Errorf("%s: %d trace walks, %d scans and %d servers examined, want 2, %d and %d",
				name, walks, work.scans, work.examined, len(tr.VMs), examined)
		}
		if 5*work.examined > linear {
			t.Errorf("%s: %d servers examined, more than a fifth of the linear scan's %d", name, work.examined, linear)
		}
		t.Logf("%s: servers examined %d, linear scan %d", name, work.examined, linear)
	}
}

// TestSizingRejectsBadCapacity: every sizing entry point fails on a NaN,
// ±Inf or negative capacity component, naming it, and on an all-zero
// capacity. A NaN or +Inf component used to drop out of the bound and
// size the fleet on the other dimension, with a nil error; a negative
// one blamed the first VM.
func TestSizingRejectsBadCapacity(t *testing.T) {
	s, err := trace.NewNamedStream("azure", 2000, 3*86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Materialize()
	entries := map[string]func(resources.Vector) (int, error){
		"BaselineServerCount":        func(c resources.Vector) (int, error) { return BaselineServerCount(tr, c) },
		"PeakServerLowerBound":       func(c resources.Vector) (int, error) { return PeakServerLowerBound(tr, c) },
		"PeakServerLowerBoundStream": func(c resources.Vector) (int, error) { return PeakServerLowerBoundStream(s, c) },
	}
	def := DefaultServerCapacity()
	for _, c := range []struct {
		name     string
		capacity resources.Vector
		want     string
	}{
		{"NaN cpu", def.With(resources.CPU, math.NaN()), "on cpu"},
		{"+Inf cpu", def.With(resources.CPU, math.Inf(1)), "on cpu"},
		{"-Inf cpu", def.With(resources.CPU, math.Inf(-1)), "on cpu"},
		{"negative cpu", def.With(resources.CPU, -48), "on cpu"},
		{"NaN memory", def.With(resources.Memory, math.NaN()), "on memory"},
		{"+Inf memory", def.With(resources.Memory, math.Inf(1)), "on memory"},
		{"negative memory", def.With(resources.Memory, -1), "on memory"},
		{"NaN disk", def.With(resources.DiskBW, math.NaN()), "on diskbw"},
		{"zero", resources.Vector{}, "zero on every resource"},
	} {
		for entry, size := range entries {
			t.Run(c.name+"/"+entry, func(t *testing.T) {
				n, err := size(c.capacity)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("sized to %d, err %v; want an error naming %q", n, err, c.want)
				}
			})
		}
	}
	// The default capacity still sizes this trace.
	for entry, size := range entries {
		if n, err := size(def); n < 1 || err != nil {
			t.Errorf("%s: default capacity sized to %d, %v", entry, n, err)
		}
	}
}

func TestSizingEdgeCases(t *testing.T) {
	capacity := DefaultServerCapacity()
	t.Run("oversized VM", func(t *testing.T) {
		tr := &trace.AzureTrace{VMs: []*trace.VMRecord{
			{ID: "small", Cores: 2, MemoryMB: 4096, Start: 0, End: 600},
			{ID: "whale", Cores: 64, MemoryMB: 4096, Start: 300, End: 900},
		}}
		if _, err := BaselineServerCount(tr, capacity); err == nil || !strings.Contains(err.Error(), "VM whale") {
			t.Errorf("err = %v, want one naming VM whale", err)
		}
	})
	t.Run("empty trace", func(t *testing.T) {
		n, err := BaselineServerCount(&trace.AzureTrace{}, capacity)
		if n != 1 || err != nil {
			t.Errorf("empty trace sized to %d, %v; want 1, nil", n, err)
		}
	})
	t.Run("guard", func(t *testing.T) {
		// Three concurrent full-server VMs cannot fit within a cap of 2.
		tr := &trace.AzureTrace{}
		for i := 0; i < 3; i++ {
			tr.VMs = append(tr.VMs, &trace.VMRecord{ID: fmt.Sprintf("vm-%d", i), Cores: 48, MemoryMB: 131072, Start: 0, End: 600})
		}
		_, _, err := packFleet(newRowSource(tr, nil), 1, 2, capacity)
		if err == nil || !strings.Contains(err.Error(), "no feasible packing within 2 servers") {
			t.Errorf("err = %v, want the no-feasible-packing error", err)
		}
		if n, _, err := packFleet(newRowSource(tr, nil), 1, 3, capacity); n != 3 || err != nil {
			t.Errorf("limit 3: sized to %d, %v; want 3, nil", n, err)
		}
	})
}

// sizingSink keeps the benchmarked call from being optimised away.
var sizingSink int

func BenchmarkBaselineServerCount(b *testing.B) {
	for _, c := range []struct {
		scenario string
		vms      int
	}{{"heavytail", 100000}, {"azure", 50000}} {
		b.Run(fmt.Sprintf("%s-%dk", c.scenario, c.vms/1000), func(b *testing.B) {
			tr, err := trace.GenerateNamed(c.scenario, c.vms, 3*86400, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				sizingSink, err = BaselineServerCount(tr, DefaultServerCapacity())
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sizedFleet is the steady state of a sizing replay: the fleet after
// the first half of a 20k-VM heavy-tail trace's events, plus one empty
// server so no arrival grows it, and the sizes of the VMs that arrived.
func sizedFleet(tb testing.TB) (*fleet, []resources.Vector) {
	s, err := trace.NewNamedStream("heavytail", 20000, 3*86400, 1)
	if err != nil {
		tb.Fatal(err)
	}
	g := newRowSource(nil, s).geometry()
	f := newFleet(0, DefaultServerCapacity())
	where := make([]int32, len(g.starts))
	for i := range where {
		where[i] = -1
	}
	var sizes []resources.Vector
	events := 0
	g.walk(func(row int32, arrival bool) bool {
		size := g.size(row)
		if arrival {
			where[row] = int32(f.arrive(size))
			sizes = append(sizes, size)
		} else if sv := where[row]; sv >= 0 {
			f.depart(int(sv), size)
		}
		events++
		return events < len(where)
	})
	f.grow()
	return f, sizes
}

// fleetCycle is one arrival and its departure on the sized fleet: a
// pruned scan and two re-sorts.
func fleetCycle(f *fleet, sizes []resources.Vector, i int) {
	size := sizes[i%len(sizes)]
	f.depart(f.arrive(size), size)
}

// TestFleetFitZeroAllocs: a steady-state scan and re-sort allocate
// nothing, and a sized fleet scans far fewer servers than it holds.
func TestFleetFitZeroAllocs(t *testing.T) {
	f, sizes := sizedFleet(t)
	servers, before := len(f.free), f.examined
	i := 0
	if got := testing.AllocsPerRun(1000, func() { fleetCycle(f, sizes, i); i++ }); got != 0 {
		t.Errorf("scan + re-sort allocates %.1f allocs/op, want 0", got)
	}
	if len(f.free) != servers {
		t.Fatalf("the fleet grew from %d to %d servers", servers, len(f.free))
	}
	if per := float64(f.examined-before) / 1001; per > float64(servers)/5 {
		t.Errorf("%.1f servers examined per scan on a fleet of %d", per, servers)
	}
}

// BenchmarkFleetFitSteadyState is the sizing replay's step `make
// bench-allocs` gates at 0 allocs/op: a pruned tightest-fit scan on a
// sized fleet, the chosen server's re-sort, and its re-sort back.
func BenchmarkFleetFitSteadyState(b *testing.B) {
	f, sizes := sizedFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleetCycle(f, sizes, i)
	}
}
