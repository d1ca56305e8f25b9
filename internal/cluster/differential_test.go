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

// churnStep drives both managers with one identical operation and
// returns a comparable description of what happened.
type churnStep func(m *Manager) string

// runDifferentialChurn feeds the same randomized place/remove/query
// sequence to an indexed and a reference manager and fails on the first
// divergence: each placement's outcome record (path, server, error
// class, NeedsReclaim, and its scan work held to the full scan's), or
// the stats; and it holds both managers' cached server state to fresh
// derivations after every op (checkServerCache). This is the bit-for-bit placement-identity guarantee of the
// capacity index.
func runDifferentialChurn(t *testing.T, seed int64, cfg Config, nServers, nOps int) {
	t.Helper()
	managers := []*Manager{NewManager(cfg), newOracleManager(cfg, "reference")}
	for i := 0; i < nServers; i++ {
		for _, m := range managers {
			if _, err := m.AddServerSpec(churnSpec(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	rng := rand.New(rand.NewSource(seed))
	var placed []string
	next := 0
	for op := 0; op < nOps; op++ {
		var step churnStep
		switch {
		case len(placed) > 0 && rng.Intn(10) < 3: // removal (sometimes batched)
			k := 1 + rng.Intn(min(3, len(placed)))
			names := make([]string, 0, k)
			for j := 0; j < k; j++ {
				i := rng.Intn(len(placed))
				names = append(names, placed[i])
				placed = append(placed[:i], placed[i+1:]...)
			}
			step = func(m *Manager) string {
				if err := m.RemoveVMs(names...); err != nil {
					return fmt.Sprintf("remove err %v", err)
				}
				return fmt.Sprintf("removed %v", names)
			}
		case rng.Intn(10) == 0: // reclaim probe
			size := resources.CPUMem(float64(1+rng.Intn(48)), float64(1024*(1+rng.Intn(96))))
			step = func(m *Manager) string {
				return fmt.Sprintf("fits=%v", m.FitsWithoutDeflation(size))
			}
		default: // placement
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
			var pls [2][]Placement
			for i, m := range managers {
				pls[i] = m.PlaceVMs([]hypervisor.DomainConfig{dc}, nil)
				if err := pls[i][0].Err; err != nil && !errors.Is(err, ErrNoCapacity) {
					t.Fatalf("op %d: unexpected error %v", op, err)
				}
			}
			if got, want := describePlacements(pls[0]), describePlacements(pls[1]); got != want {
				t.Fatalf("op %d (place %s): indexed %s != reference %s", op, name, got, want)
			}
			checkScanWork(t, op, pls[1], pls[0], true)
			if pls[0][0].Err == nil {
				placed = append(placed, name)
			}
			compareManagers(t, op, managers[0], managers[1])
			checkServerCaches(t, managers)
			continue
		}
		got := []string{step(managers[0]), step(managers[1])}
		if got[0] != got[1] {
			t.Fatalf("op %d: indexed %q != reference %q", op, got[0], got[1])
		}
		compareManagers(t, op, managers[0], managers[1])
		checkServerCaches(t, managers)
	}
}

// checkServerCaches runs checkServerCache on each manager.
func checkServerCaches(t *testing.T, managers []*Manager) {
	t.Helper()
	for _, m := range managers {
		checkServerCache(t, m)
	}
}

// compareManagers asserts the cluster-wide stats of the two managers are
// identical.
func compareManagers(t *testing.T, op int, a, b *Manager) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("op %d: stats diverged:\nindexed   %+v\nreference %+v", op, sa, sb)
	}
}

// checkScanWork holds one op's outcome records, from two managers that
// ran it in lockstep, to the scan-work invariants record by record. full
// comes from a full-scan oracle, which scores every pool server and
// prunes none, so a second full scan (indexed false) agrees with it
// exactly. The indexed descent scores or prunes each of those servers
// exactly once.
func checkScanWork(t *testing.T, op int, full, got []Placement, indexed bool) {
	t.Helper()
	for i, f := range full {
		g := got[i]
		if f.Pruned != 0 {
			t.Fatalf("op %d, record %d: the full scan pruned %d servers", op, i, f.Pruned)
		}
		if !indexed {
			if g.Scored != f.Scored || g.Pruned != 0 {
				t.Fatalf("op %d, record %d: full scans scored %d/%d, pruned %d", op, i, g.Scored, f.Scored, g.Pruned)
			}
			continue
		}
		if n := g.Scored + g.Pruned; n != f.Scored {
			t.Fatalf("op %d, record %d: descent scored %d + pruned %d against the full scan's %d",
				op, i, g.Scored, g.Pruned, f.Scored)
		}
	}
}

func TestIndexedPlacementMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferentialChurn(t, seed, Config{Policy: policy.Proportional{}}, 12, 400)
		})
	}
}

func TestIndexedPlacementMatchesReferencePriorityPolicy(t *testing.T) {
	runDifferentialChurn(t, 11, Config{Policy: policy.Priority{}}, 8, 300)
}

func TestIndexedPlacementMatchesReferencePartitioned(t *testing.T) {
	runDifferentialChurn(t, 21, Config{
		Policy:              policy.Priority{},
		PartitionByPriority: true,
	}, 12, 400)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
