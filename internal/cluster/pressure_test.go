package cluster

import (
	"fmt"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// pressureScanSteadyState builds a manager whose every server is
// CPU-full with deflatable residents, plus a probe engineered to drive
// the under-pressure scan through its worst case without mutating
// anything: the demand exceeds what deflation can actually free by less
// than reserveMargin, so every server passes the cannotReclaim
// pre-filter (nothing is pruned by fit), gets scored and heaped, and
// then fails the real policy pass — the scan visits the entire cluster
// in exact candBefore order and returns empty-handed, leaving the
// cluster byte-identical for the next iteration.
func pressureScanSteadyState(tb testing.TB) (*Manager, hypervisor.DomainConfig) {
	tb.Helper()
	m := NewManager(Config{Policy: policy.Proportional{}})
	for i := 0; i < 8; i++ {
		if _, err := m.AddServer(fmt.Sprintf("node-%03d", i), resources.CPUMem(48, 131072), 0); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		dc := hypervisor.DomainConfig{
			Name:       fmt.Sprintf("resident-%02d", i),
			Size:       resources.CPUMem(12, 24576),
			Deflatable: true,
			Priority:   []float64{0.25, 0.5, 0.75, 1.0}[i%4],
		}
		if _, _, err := m.PlaceVM(dc); err != nil {
			tb.Fatal(err)
		}
	}
	// Refresh the cached aggregates and bound keys, then derive the
	// probe from live server state (every server is identically loaded):
	// demand = free + reclaimable + 5e-4 sits inside the pre-filter's
	// reserveMargin (1e-3) yet past what deflation to the floors frees.
	m.syncDirty()
	s := m.Servers()[0]
	agg := s.Host.Aggregates()
	free := s.Host.Capacity().Sub(agg.Allocated)
	probe := hypervisor.DomainConfig{
		Name: "probe",
		Size: free.Add(agg.DeflatableReserve).Add(resources.CPUMem(5e-4, 5e-4)),
	}
	return m, probe
}

// pressureScanOnce is one steady-state scan: the dirty sync a placement
// would run (a no-op here) plus the full bound-pruned descent. It
// returns the probe's outcome record.
func pressureScanOnce(tb testing.TB, m *Manager, probe hypervisor.DomainConfig) Placement {
	var pl Placement
	m.syncDirty()
	ok := m.pressureLive(probe, nil, &pl)
	if ok {
		tb.Fatal("probe was placed — the scan mutated state and is not steady-state")
	}
	return pl
}

// TestPressureScanZeroAllocs is the allocation-regression guard for the
// bound-pruned under-pressure scan: once the iterator stacks and the
// candidate heap are warm, a full-cluster descent — every server
// expanded, scored and tried — must perform zero heap allocations.
func TestPressureScanZeroAllocs(t *testing.T) {
	m, probe := pressureScanSteadyState(t)
	// The warmup fills the iterator and heap arenas.
	if pl := pressureScanOnce(t, m, probe); pl.Path != PathPressure || pl.Scored != len(m.Servers()) || pl.Pruned != 0 {
		t.Fatalf("warmup scored %d and pruned %d servers, want a full %d-server descent",
			pl.Scored, pl.Pruned, len(m.Servers()))
	}
	got := testing.AllocsPerRun(200, func() {
		pressureScanOnce(t, m, probe)
	})
	if got != 0 {
		t.Errorf("steady-state pressure scan allocates %.1f allocs/op, want 0", got)
	}
}

// BenchmarkPressureScan is the pressure-scan benchmark the Makefile's
// bench-allocs gate watches: `-benchmem` must report 0 allocs/op or the
// build fails. ns/op is the worst-case full-cluster descent — every
// bound admitted, every server scored and tried — which is the cost a
// pressured arrival pays when the cluster truly has no room.
func BenchmarkPressureScan(b *testing.B) {
	m, probe := pressureScanSteadyState(b)
	pressureScanOnce(b, m, probe)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pressureScanOnce(b, m, probe)
	}
}
