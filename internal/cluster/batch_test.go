package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
	out := ""
	for _, pl := range pls {
		out += fmt.Sprintf("[p%d ", pl.Path)
		switch {
		case pl.Err != nil && errors.Is(pl.Err, ErrNoCapacity):
			out += "rejected]"
		case pl.Err != nil && errors.Is(pl.Err, ErrExists):
			out += "dup]"
		case pl.Err != nil:
			out += "err " + pl.Err.Error() + "]"
		default:
			out += fmt.Sprintf("%s reclaim=%v init=%v]", pl.Server.Host.Name(), pl.NeedsReclaim, pl.Initial)
		}
	}
	return out
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

// TestPlaceVMsMatchesPlaceVMLoopAndReference is the "commit order is
// trace order" invariant: a PlaceVMs batch places exactly as a loop of
// one-element PlaceVMs batches over the same VMs in the same order, and
// both exactly as the brute-force reference. Identical randomized batch-place /
// batch-remove churn — batches of up to 16 VMs, some repeating a name
// already in the batch, against 6 servers, so later VMs of a batch
// constantly land on what earlier ones consumed — goes through all
// three, and the test fails on the first divergence in placements,
// per-VM outcomes, counters or stats. It runs on a plain fleet, on
// priority-partitioned pools (a batch's VMs land in different pools) and
// on pools whose servers are resized between batches (a shrink's
// evacuees re-place through the pool filter, and a pool's index bound
// outgrows its shrunk servers).
func TestPlaceVMsMatchesPlaceVMLoopAndReference(t *testing.T) {
	cases := []struct {
		prefix string
		cfg    Config
		resize bool
	}{
		{"", Config{Policy: policy.Priority{}}, false},
		{"pools/", Config{Policy: policy.Priority{}, PartitionByPriority: true}, false},
		{"pools-resize/", Config{Policy: policy.Priority{}, PartitionByPriority: true}, true},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%sseed=%d", tc.prefix, seed), func(t *testing.T) {
				placeVMsChurn(t, seed, tc.cfg, tc.resize)
			})
		}
	}
}

// placeVMsChurn runs one seed of the batch / loop / reference churn on a
// six-server fleet provisioned by churnSpec; with resize set, one op in
// ten resizes a server on all three managers instead.
func placeVMsChurn(t *testing.T, seed int64, cfg Config, resize bool) {
	batch, loop, ref := NewManager(cfg), NewManager(cfg), newOracleManager(cfg, "reference")
	ms := []*Manager{batch, loop, ref}
	for i := 0; i < 6; i++ {
		for _, m := range ms {
			if _, err := m.AddServerSpec(churnSpec(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var placed []string
	next := 0
	resizes := 0
	for op := 0; op < 120; op++ {
		if resize && rng.Intn(10) == 0 {
			name := churnSpec(rng.Intn(6)).Name
			capacity := serverCap().Scale([]float64{0.3, 0.6, 1}[rng.Intn(3)])
			var want string
			for i, m := range ms {
				ev, err := m.ResizeServer(name, capacity)
				got := describeEvacuation(ev, err)
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("op %d: resize of %s diverged on manager %d:\n got %s\nwant %s", op, name, i, got, want)
				}
				if i == 0 {
					for j, pl := range ev.Placements {
						if pl.Err != nil {
							placed = slices.DeleteFunc(placed, func(n string) bool { return n == ev.VMs[j].Name })
						}
					}
				}
			}
			resizes++
			compareManagers(t, op, batch, loop)
			compareManagers(t, op, batch, ref)
			continue
		}
		if len(placed) > 0 && rng.Intn(10) < 3 {
			k := 1 + rng.Intn(min(4, len(placed)))
			names := make([]string, 0, k)
			for j := 0; j < k; j++ {
				i := rng.Intn(len(placed))
				names = append(names, placed[i])
				placed = append(placed[:i], placed[i+1:]...)
			}
			for _, m := range ms {
				if err := m.RemoveVMs(names...); err != nil {
					t.Fatalf("op %d: remove: %v", op, err)
				}
			}
			continue
		}
		b := 1 + rng.Intn(16)
		dcs := make([]hypervisor.DomainConfig, 0, b)
		for j := 0; j < b; j++ {
			name := fmt.Sprintf("vm-%05d", next)
			next++
			if j > 0 && rng.Intn(8) == 0 {
				name = dcs[rng.Intn(j)].Name // in-batch duplicate
			}
			dc := hypervisor.DomainConfig{
				Name:       name,
				Size:       resources.CPUMem(float64(1+rng.Intn(24)), float64(2048*(1+rng.Intn(24)))),
				Deflatable: rng.Intn(3) != 0,
				Priority:   0.25 * float64(1+rng.Intn(4)),
			}
			if !dc.Deflatable {
				dc.Priority = 0
			}
			dcs = append(dcs, dc)
		}
		pls := batch.PlaceVMs(dcs, nil)
		loopPls := placeLoop(loop, dcs)
		if got, want := describePlacements(loopPls), describePlacements(pls); got != want {
			t.Fatalf("op %d: one-element loop diverged from the batch:\n got %s\nwant %s", op, got, want)
		}
		for j := range pls {
			if loopPls[j].Scored != pls[j].Scored || loopPls[j].Pruned != pls[j].Pruned {
				t.Fatalf("op %d: %s scan work %d/%d in the loop, %d/%d in the batch", op, dcs[j].Name,
					loopPls[j].Scored, loopPls[j].Pruned, pls[j].Scored, pls[j].Pruned)
			}
		}
		refPls := ref.PlaceVMs(dcs, nil)
		if got, want := describePlacements(refPls), describePlacements(pls); got != want {
			t.Fatalf("op %d: reference diverged from the batch:\n got %s\nwant %s", op, got, want)
		}
		checkScanWork(t, op, refPls, pls, true)
		for j, dc := range dcs {
			dup := false
			for _, prev := range dcs[:j] {
				dup = dup || prev.Name == dc.Name
			}
			if _, _, err := batch.LookupVM(dc.Name); err == nil && !dup {
				placed = append(placed, dc.Name)
			}
		}
		compareManagers(t, op, batch, loop)
		compareManagers(t, op, batch, ref)
	}
	if resize && resizes == 0 {
		t.Fatal("no resizes in the churn — the variant is vacuous")
	}
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
	agg := s.Host.Aggregates()
	fires := 0
	s.Host.OnAggregateChange(func() { fires++ })
	pl := m.PlaceVMs([]hypervisor.DomainConfig{deflatableVM("tiny", 2, 128, 0.5)}, nil)[0]
	if !errors.Is(pl.Err, hypervisor.ErrInvalid) || pl.Path != PathNone || pl.NeedsReclaim || pl.Domain != nil {
		t.Fatalf("128 MB VM: %+v, want a PathNone hypervisor.ErrInvalid", pl)
	}
	for _, res := range pls {
		if got := res.Domain.Allocation(); got != res.Domain.MaxSize() {
			t.Errorf("%s deflated to %v for a VM that never launched", res.Domain.Name(), got)
		}
	}
	if fires != 0 || s.Host.Aggregates() != agg {
		t.Errorf("the rejected VM moved the server: %d change edges", fires)
	}
	if _, ok := m.placements["tiny"]; ok {
		t.Error("the rejected VM holds a placement")
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

// decideOnce runs, for each probe, the decision half of placeOneLocked
// — dirty sync, surplus lookup, cross-pool existence scan and
// duplicate check — and commits nothing: the steady-state hot path the
// allocation gate watches.
func decideOnce(m *Manager, dcs []hypervisor.DomainConfig) {
	m.mu.Lock()
	for _, dc := range dcs {
		m.syncDirtyLocked()
		best := m.surplusCandidateLocked(m.PartitionOf(dc), dc.Size)
		_ = best == nil && !m.anyFitsLocked(dc.Size)
		_ = m.placements[dc.Name]
	}
	m.mu.Unlock()
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
// the next PlaceVMs drains nothing and refreshes nothing — only the
// server that placement then mutates is dirty afterwards.
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
	// drained is what the last sync drained.
	if len(m.drained) != 0 {
		t.Errorf("PlaceVMs after load writes refreshed %d servers, want no refresh", len(m.drained))
	}
	if len(m.dirty) != 1 {
		t.Errorf("%d servers dirty after one placement, want exactly the placed one", len(m.dirty))
	}
}
