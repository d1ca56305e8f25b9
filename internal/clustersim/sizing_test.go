package clustersim

import (
	"fmt"
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

// TestSizingWorkCounters: sizing a 20k-VM trace walks it twice — the
// peak bound, then one packing replay — with one tightest-fit scan per
// arrival, however far the fleet grows past the lower bound.
func TestSizingWorkCounters(t *testing.T) {
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
	for name, src := range map[string]*rowSource{
		"eager":    newRowSource(tr, nil),
		"streamed": newRowSource(nil, s),
	} {
		n, scans, err := sizeFleet(src, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if n <= lb {
			t.Fatalf("%s: test premise broken: sized to %d, peak bound %d, so a candidate search would also replay once", name, n, lb)
		}
		if walks := src.geo.walks; walks != 2 || scans != len(tr.VMs) {
			t.Errorf("%s: %d trace walks and %d scans, want 2 and %d", name, walks, scans, len(tr.VMs))
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
