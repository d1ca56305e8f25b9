package cluster

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// describePlacements renders a batch result comparably: each VM's path,
// then its error class or its server, NeedsReclaim and initial
// allocation. Scan work is left out: it differs between scan modes by
// design, and checkScanWork holds it.
func describePlacements(pls []Placement) string {
	var out strings.Builder
	for _, pl := range pls {
		fmt.Fprintf(&out, "[p%d ", pl.Path)
		switch {
		case pl.Err != nil && errors.Is(pl.Err, ErrNoCapacity):
			out.WriteString("rejected]")
		case pl.Err != nil && errors.Is(pl.Err, ErrExists):
			out.WriteString("dup]")
		case pl.Err != nil:
			out.WriteString("err " + pl.Err.Error() + "]")
		default:
			fmt.Fprintf(&out, "%s reclaim=%v init=%v]", pl.Server.Host.Name(), pl.NeedsReclaim, pl.Initial)
		}
	}
	return out.String()
}

// placeLoop places dcs as a loop of one-element PlaceVMs batches, one
// result buffer reused across the calls.
func placeLoop(m *Manager, dcs []hypervisor.DomainConfig) []Placement {
	var out, buf []Placement
	for i := range dcs {
		buf = m.PlaceVMs(dcs[i:i+1], buf[:0])
		out = append(out, buf[0])
	}
	return out
}

// TestPlaceVMsDuplicateNames pins the in-batch duplicate semantics: the
// second occurrence fails with ErrExists, exactly as two PlaceVM calls
// would.
func TestPlaceVMsDuplicateNames(t *testing.T) {
	m := NewManager(Config{})
	if _, err := m.AddServer("node-000", serverCap(), 0); err != nil {
		t.Fatal(err)
	}
	dc := hypervisor.DomainConfig{Name: "vm-dup", Size: resources.CPUMem(2, 4096)}
	pls := m.PlaceVMs([]hypervisor.DomainConfig{dc, dc}, nil)
	if pls[0].Err != nil {
		t.Fatalf("first placement failed: %v", pls[0].Err)
	}
	if !errors.Is(pls[1].Err, ErrExists) {
		t.Fatalf("duplicate err = %v, want ErrExists", pls[1].Err)
	}
}

// TestPlaceVMsInvalidConfigTouchesNothing: a VM no hypervisor accepts
// (128 MB, below the guest kernel's 256 MB reserve) fails with
// hypervisor.ErrInvalid before the placement decision, so the residents
// a policy pass would have deflated to make room for it keep their
// allocations and their server stays clean.
func TestPlaceVMsInvalidConfigTouchesNothing(t *testing.T) {
	m := NewManager(Config{})
	s, err := m.AddServer("node-000", resources.CPUMem(8, 16384), 0)
	if err != nil {
		t.Fatal(err)
	}
	pls := m.PlaceVMs([]hypervisor.DomainConfig{
		deflatableVM("res-a", 4, 4096, 0.5),
		deflatableVM("res-b", 4, 4096, 0.5),
	}, nil)
	for _, pl := range pls {
		if pl.Err != nil {
			t.Fatal(pl.Err)
		}
	}
	m.Stats() // sync: nothing queued
	agg := s.Host.Aggregates()
	pl := m.PlaceVMs([]hypervisor.DomainConfig{deflatableVM("tiny", 2, 128, 0.5)}, nil)[0]
	if !errors.Is(pl.Err, hypervisor.ErrInvalid) || pl.Path != PathNone || pl.NeedsReclaim || pl.Domain != (hypervisor.Domain{}) {
		t.Fatalf("128 MB VM: %+v, want a PathNone hypervisor.ErrInvalid", pl)
	}
	for _, res := range pls {
		if got := res.Domain.Allocation(); got != res.Domain.MaxSize() {
			t.Errorf("%s deflated to %v for a VM that never launched", res.Domain.Name(), got)
		}
	}
	if len(m.dirty) != 0 || s.Host.Aggregates() != agg {
		t.Errorf("the rejected VM moved the server: %d servers queued", len(m.dirty))
	}
	if _, ok := m.placements["tiny"]; ok {
		t.Error("the rejected VM holds a placement")
	}
	// A launch whose initial limit write is refused leaves no domain.
	nan := resources.CPUMem(math.NaN(), 1024)
	if _, err := s.Host.Launch(deflatableVM("refused", 2, 2048, 0.5), nan); !errors.Is(err, hypervisor.ErrInvalid) {
		t.Errorf("launch at %v: err = %v, want hypervisor.ErrInvalid", nan, err)
	}
	if _, err := s.Host.Lookup("refused"); !errors.Is(err, hypervisor.ErrNotFound) {
		t.Errorf("the refused launch left its domain: %v", err)
	}
}

// TestPlaceVMsEmptyBatch pins the trivial cases.
func TestPlaceVMsEmptyBatch(t *testing.T) {
	m := NewManager(Config{})
	if got := m.PlaceVMs(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// decideSteadyState builds a manager at steady state: a cluster of
// residents, warm arenas, and probe VMs whose placement decisions
// exercise the surplus lookup — both hits and the miss that falls
// through to the cross-pool existence scan — without committing
// anything.
func decideSteadyState(tb testing.TB) (*Manager, []hypervisor.DomainConfig) {
	tb.Helper()
	m := NewManager(Config{Policy: policy.Proportional{}})
	for i := 0; i < 8; i++ {
		if _, err := m.AddServer(fmt.Sprintf("node-%03d", i), resources.CPUMem(48, 131072), 0); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 24; i++ {
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
	// Probes: small VMs that still fit (surplus hits) and a giant one
	// nothing can surplus-host (a miss, which the existence scan then
	// confirms cluster-wide).
	dcs := []hypervisor.DomainConfig{
		{Name: "probe-a", Size: resources.CPUMem(4, 8192)},
		{Name: "probe-b", Size: resources.CPUMem(8, 16384), Deflatable: true, Priority: 0.5},
		{Name: "probe-c", Size: resources.CPUMem(47, 122880)},
	}
	return m, dcs
}

// decideOnce runs, for each probe, the decision half of placeOne
// — dirty sync, surplus lookup, cross-pool existence scan and
// duplicate check — and commits nothing: the steady-state hot path the
// allocation gate watches.
func decideOnce(m *Manager, dcs []hypervisor.DomainConfig) {
	for _, dc := range dcs {
		m.syncDirty()
		best := m.surplusCandidate(m.PartitionOf(dc), dc.Size)
		_ = best == nil && !m.anyFits(dc.Size)
		_ = m.placements[dc.Name]
	}
}

// TestDecideSteadyStateZeroAllocs is the allocation-regression guard
// for the placement decision: once the arenas are warm, deciding a
// batch of probes must perform zero heap allocations.
func TestDecideSteadyStateZeroAllocs(t *testing.T) {
	m, dcs := decideSteadyState(t)
	decideOnce(m, dcs) // warm the arenas
	if got := testing.AllocsPerRun(200, func() { decideOnce(m, dcs) }); got != 0 {
		t.Errorf("steady-state placement decision allocates %.1f allocs/op, want 0", got)
	}
}

// BenchmarkDecideSteadyState is the placement-decision benchmark the
// Makefile's bench-allocs gate watches: `-benchmem` must report
// 0 allocs/op or the build fails. ns/op is the decision cost of three
// arrivals, before any policy pass or launch.
func BenchmarkDecideSteadyState(b *testing.B) {
	m, dcs := decideSteadyState(b)
	decideOnce(m, dcs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decideOnce(m, dcs)
	}
}

// TestLoadWritesLeaveNothingDirty is the cluster half of the
// read-through rule: a sample-style pass that rewrites every resident's
// offered load marks no server dirty, so the dirty sync at the head of
// the next PlaceVMs refreshes nothing — only the server that placement
// then writes is dirty afterwards.
func TestLoadWritesLeaveNothingDirty(t *testing.T) {
	m, dcs := decideSteadyState(t)
	m.Stats() // sync: every server clean, every index key current

	for round := 1; round <= 2; round++ {
		for _, s := range m.Servers() {
			for i, d := range s.Host.Domains() {
				d.SetOfferedLoad(float64(round) + float64(i))
			}
		}
	}
	if n := len(m.dirty); n != 0 {
		t.Fatalf("load writes marked %d servers dirty, want 0", n)
	}

	pls := m.PlaceVMs(dcs[:1], nil) // probe-a fits without deflation
	if pls[0].Err != nil {
		t.Fatal(pls[0].Err)
	}
	if len(m.dirty) != 1 {
		t.Errorf("%d servers dirty after one placement, want exactly the placed one", len(m.dirty))
	}
}
