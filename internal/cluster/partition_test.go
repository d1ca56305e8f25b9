package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// batchManagers builds one manager per placement-partition count (the
// first entry, partitions=1, is the sequential engine the others must
// match) plus a brute-force reference manager, all over an identical
// small cluster. Small cluster + large batches saturate capacity fast,
// so commits constantly conflict with proposals — surplus bids consumed
// by earlier commits, pressure walks weaving touched servers, VMs that
// lose their surplus mid-batch — which is exactly the machinery under
// test.
func batchManagers(t *testing.T, cfg Config, nServers int, partitionCounts []int) []*Manager {
	t.Helper()
	var ms []*Manager
	for _, pc := range partitionCounts {
		c := cfg
		c.PlacementPartitions = pc
		ms = append(ms, NewManager(c))
	}
	refCfg := cfg
	refCfg.ReferencePlacement = true
	ms = append(ms, NewManager(refCfg))
	for i := 0; i < nServers; i++ {
		for _, m := range ms {
			part := i % max(1, m.Config().PriorityLevels)
			if _, err := m.AddServer(fmt.Sprintf("node-%03d", i), serverCap(), part); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ms
}

// describePlacements renders a batch result comparably.
func describePlacements(pls []Placement) string {
	out := ""
	for _, pl := range pls {
		switch {
		case pl.Err != nil && errors.Is(pl.Err, ErrNoCapacity):
			out += "[rejected]"
		case pl.Err != nil && errors.Is(pl.Err, ErrExists):
			out += "[dup]"
		case pl.Err != nil:
			out += "[err " + pl.Err.Error() + "]"
		default:
			out += fmt.Sprintf("[%s reclaim=%v init=%v]", pl.Server.Host.Name(), pl.NeedsReclaim, pl.Initial)
		}
	}
	return out
}

// TestPlaceVMsMatchesSequentialAcrossPartitionCounts drives identical
// randomized batch-place / batch-remove churn through partitioned
// managers, the sequential engine and the brute-force reference, and
// fails on the first divergence in placements, per-VM outcomes,
// counters or stats. Batches of up to 16 VMs against 6 servers force
// every commit conflict path.
func TestPlaceVMsMatchesSequentialAcrossPartitionCounts(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ms := batchManagers(t, Config{Policy: policy.Priority{}}, 6, []int{1, 2, 3, 8})
			for _, m := range ms {
				defer m.Close()
			}
			rng := rand.New(rand.NewSource(seed))
			var placed []string
			next := 0
			for op := 0; op < 120; op++ {
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
				var want string
				for mi, m := range ms {
					got := describePlacements(m.PlaceVMs(dcs, nil))
					if mi == 0 {
						want = got
						continue
					}
					if got != want {
						t.Fatalf("op %d: manager %d diverged:\n got %s\nwant %s", op, mi, got, want)
					}
				}
				// Record admissions from the sequential manager's view.
				for _, dc := range dcs {
					if _, _, err := ms[0].LookupVM(dc.Name); err == nil {
						placed = append(placed, dc.Name)
					}
				}
				for mi := 1; mi < len(ms); mi++ {
					compareManagers(t, op, ms[0], ms[mi])
				}
			}
		})
	}
}

// TestPlaceVMsDuplicateNames pins the in-batch duplicate semantics: the
// second occurrence fails with ErrExists at its commit, exactly as two
// sequential PlaceVM calls would.
func TestPlaceVMsDuplicateNames(t *testing.T) {
	for _, pc := range []int{1, 3} {
		m := NewManager(Config{PlacementPartitions: pc})
		defer m.Close()
		if _, err := m.AddServer("node-000", serverCap(), 0); err != nil {
			t.Fatal(err)
		}
		dc := hypervisor.DomainConfig{Name: "vm-dup", Size: resources.CPUMem(2, 4096)}
		pls := m.PlaceVMs([]hypervisor.DomainConfig{dc, dc}, nil)
		if pls[0].Err != nil {
			t.Fatalf("partitions=%d: first placement failed: %v", pc, pls[0].Err)
		}
		if !errors.Is(pls[1].Err, ErrExists) {
			t.Fatalf("partitions=%d: duplicate err = %v, want ErrExists", pc, pls[1].Err)
		}
	}
}

// TestPlaceVMsEmptyBatch pins the trivial cases.
func TestPlaceVMsEmptyBatch(t *testing.T) {
	m := NewManager(Config{PlacementPartitions: 4})
	defer m.Close()
	if got := m.PlaceVMs(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// proposeSteadyState builds a partitioned manager at steady state: a
// cluster of residents, warm arenas, and a batch of probe VMs whose
// proposals exercise the surplus phase — both hits and the miss that
// defers to the commit-time pressure descent — without committing
// anything.
func proposeSteadyState(tb testing.TB, partitions int) (*Manager, []hypervisor.DomainConfig) {
	tb.Helper()
	m := NewManager(Config{Policy: policy.Proportional{}, PlacementPartitions: partitions})
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
	// Probe batch: small VMs that still fit (surplus bids) and a giant
	// one nothing can surplus-host (a propose-phase miss — the pressure
	// work itself happens at commit, under the bound-pruned descent).
	dcs := []hypervisor.DomainConfig{
		{Name: "probe-a", Size: resources.CPUMem(4, 8192)},
		{Name: "probe-b", Size: resources.CPUMem(8, 16384), Deflatable: true, Priority: 0.5},
		{Name: "probe-c", Size: resources.CPUMem(47, 122880)},
	}
	return m, dcs
}

// proposeOnce runs the parallel propose phases for one batch without
// committing — the steady-state hot path the allocation gate watches.
func proposeOnce(m *Manager, dcs []hypervisor.DomainConfig) {
	m.mu.Lock()
	m.syncDirtyLocked()
	m.proposeLocked(dcs)
	m.batchDCs = nil
	m.mu.Unlock()
}

// TestProposeSteadyStateZeroAllocs is the allocation-regression guard
// for the partitioned propose pass: once the partition arenas are warm,
// proposing a batch — surplus bids across every partition, including
// the worker-pool barrier — must perform zero heap allocations.
func TestProposeSteadyStateZeroAllocs(t *testing.T) {
	for _, partitions := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", partitions), func(t *testing.T) {
			m, dcs := proposeSteadyState(t, partitions)
			defer m.Close()
			proposeOnce(m, dcs) // warm the arenas and spawn the workers
			got := testing.AllocsPerRun(200, func() {
				proposeOnce(m, dcs)
			})
			if got != 0 {
				t.Errorf("steady-state propose pass allocates %.1f allocs/op, want 0", got)
			}
		})
	}
}

// BenchmarkProposeSteadyState is the propose-pass benchmark the
// Makefile's bench-allocs gate watches: `-benchmem` must report
// 0 allocs/op or the build fails. ns/op here is the per-batch propose
// latency every arrival instant pays in a partitioned 1M-VM run.
func BenchmarkProposeSteadyState(b *testing.B) {
	m, dcs := proposeSteadyState(b, 4)
	defer m.Close()
	proposeOnce(m, dcs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proposeOnce(m, dcs)
	}
}

// TestLoadWritesLeaveNothingDirty is the cluster half of the
// read-through rule: a sample-style pass that rewrites every resident's
// offered load marks no server dirty in any partition, so the dirty sync
// at the head of the next PlaceVMs drains nothing and refreshes nothing —
// only the server that placement then mutates is dirty afterwards.
func TestLoadWritesLeaveNothingDirty(t *testing.T) {
	for _, partitions := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", partitions), func(t *testing.T) {
			m, dcs := proposeSteadyState(t, partitions)
			defer m.Close()
			m.Stats() // sync: every server clean, every index key current

			for round := 1; round <= 2; round++ {
				for _, s := range m.Servers() {
					for i, d := range s.Host.Domains() {
						d.SetOfferedLoad(float64(round) + float64(i))
					}
				}
			}
			for _, p := range m.parts {
				if n := len(p.dirty); n != 0 {
					t.Fatalf("partition %d: load writes marked %d servers dirty, want 0", p.id, n)
				}
			}

			pls := m.PlaceVMs(dcs[:1], nil) // probe-a fits without deflation
			if pls[0].Err != nil {
				t.Fatal(pls[0].Err)
			}
			dirty := 0
			for _, p := range m.parts {
				// drained is what the last sync drained for this partition.
				if len(p.drained) != 0 {
					t.Errorf("partition %d: PlaceVMs after load writes refreshed %d servers, want no refresh", p.id, len(p.drained))
				}
				dirty += len(p.dirty)
			}
			if dirty != 1 {
				t.Errorf("%d servers dirty after one placement, want exactly the placed one", dirty)
			}
		})
	}
}
