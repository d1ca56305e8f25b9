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

func TestRevokeServerEvacuatesVMs(t *testing.T) {
	m := newTestManager(t, 3, Config{})
	var placedOn *Server
	for i := 0; i < 4; i++ {
		_, s, err := m.PlaceVM(deflatableVM(fmt.Sprintf("vm-%d", i), 8, 16384, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			placedOn = s
		}
	}
	before := m.Stats()
	out, err := m.RevokeServer(placedOn.Host.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.VMs) == 0 {
		t.Fatal("revocation displaced nothing")
	}
	for i, pl := range out.Placements { // none killed: two empty servers remain
		if pl.Err != nil {
			t.Fatalf("VM %s: relocation error %v", out.VMs[i].Name, pl.Err)
		}
		if pl.Server == placedOn {
			t.Fatalf("VM %s relocated onto the revoked server", out.VMs[i].Name)
		}
		d, s, err := m.LookupVM(out.VMs[i].Name)
		if err != nil || d == nil || s != pl.Server {
			t.Fatalf("VM %s: lookup after evacuation = (%v, %v, %v)", out.VMs[i].Name, d, s, err)
		}
	}
	st := m.Stats()
	if st.Revoked != 1 {
		t.Fatalf("Stats.Revoked = %d", st.Revoked)
	}
	if st.VMs != before.VMs {
		t.Fatalf("VM count changed across lossless evacuation: %d -> %d", before.VMs, st.VMs)
	}
	wantCap := before.Capacity.Sub(serverCap())
	if st.Capacity != wantCap {
		t.Fatalf("Stats.Capacity = %v after revocation, want %v", st.Capacity, wantCap)
	}

	// A revoked server must never receive placements.
	for i := 0; i < 8; i++ {
		_, s, err := m.PlaceVM(deflatableVM(fmt.Sprintf("post-%d", i), 4, 8192, 0.5))
		if err != nil {
			break // cluster full: fine, the check is about the target
		}
		if s == placedOn {
			t.Fatal("placement landed on a revoked server")
		}
	}

	// Restoration brings the capacity back and the server becomes a
	// candidate again.
	if err := m.RestoreServer(placedOn.Host.Name()); err != nil {
		t.Fatal(err)
	}
	st = m.Stats()
	if st.Revoked != 0 || st.Capacity != before.Capacity {
		t.Fatalf("after restore: revoked=%d capacity=%v, want 0 / %v", st.Revoked, st.Capacity, before.Capacity)
	}
	if !m.FitsWithoutDeflation(serverCap()) {
		t.Fatal("restored server's full capacity not visible to placement")
	}
}

func TestRevokeRestoreLifecycleErrors(t *testing.T) {
	m := newTestManager(t, 2, Config{})
	if _, err := m.RevokeServer("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("revoke unknown server err = %v", err)
	}
	if err := m.RestoreServer("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("restore unknown server err = %v", err)
	}
	if err := m.RestoreServer("node-0"); !errors.Is(err, ErrRevoked) {
		t.Errorf("restore in-service server err = %v", err)
	}
	if _, err := m.RevokeServers("node-0", "node-0"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate revoke batch err = %v", err)
	}
	if _, err := m.RevokeServer("node-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RevokeServer("node-0"); !errors.Is(err, ErrRevoked) {
		t.Errorf("double revoke err = %v", err)
	}
	if _, err := m.ResizeServer("node-0", serverCap().Scale(0.5)); !errors.Is(err, ErrRevoked) {
		t.Errorf("resize of revoked server err = %v", err)
	}
	if err := m.RestoreServer("node-0"); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreServer("node-0"); !errors.Is(err, ErrRevoked) {
		t.Errorf("double restore err = %v", err)
	}
}

func TestRevokeKillsWhenNoCapacity(t *testing.T) {
	// Two servers, both filled with on-demand VMs that cannot deflate:
	// revoking one leaves nowhere for its residents to go.
	m := newTestManager(t, 2, Config{})
	for i := 0; i < 2; i++ {
		if _, _, err := m.PlaceVM(onDemandVM(fmt.Sprintf("od-%d", i), 48, 131072)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := m.RevokeServer("node-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.VMs) != 1 || kills(out) != 1 {
		t.Fatalf("outcome = %d displaced / %d killed, want 1/1", len(out.VMs), kills(out))
	}
	// The relocation failed in the pressure ranking, not at a gate.
	if pl := out.Placements[0]; !errors.Is(pl.Err, ErrNoCapacity) || pl.Path != PathPressure {
		t.Fatalf("kill: path %d, err %v", pl.Path, pl.Err)
	}
	if _, _, err := m.LookupVM(out.VMs[0].Name); !errors.Is(err, ErrNotFound) {
		t.Fatalf("killed VM still placed: %v", err)
	}
	if m.Stats().VMs != 1 {
		t.Fatalf("VMs = %d after kill, want 1", m.Stats().VMs)
	}
}

func TestResizeServerShrinkDeflates(t *testing.T) {
	// One server, deflatable residents filling most of it: a moderate
	// shrink must be absorbed purely by deflation — nothing displaced.
	m := newTestManager(t, 1, Config{})
	for i := 0; i < 3; i++ {
		if _, _, err := m.PlaceVM(deflatableVM(fmt.Sprintf("vm-%d", i), 12, 32768, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	newCap := serverCap().Scale(0.5)
	out, err := m.ResizeServer("node-0", newCap)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.VMs) != 0 {
		t.Fatalf("moderate shrink displaced %d VMs", len(out.VMs))
	}
	s := m.Servers()[0]
	if alloc := s.Host.Allocated(); !alloc.FitsIn(newCap) {
		t.Fatalf("allocated %v exceeds shrunk capacity %v", alloc, newCap)
	}
	if m.Stats().VMs != 3 {
		t.Fatalf("VMs = %d, want 3", m.Stats().VMs)
	}

	// Growing back reinflates the residents to full size.
	if _, err := m.ResizeServer("node-0", serverCap()); err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Host.Domains() {
		if d.Allocation() != d.MaxSize() {
			t.Fatalf("VM %s not reinflated after grow: %v of %v", d.Name(), d.Allocation(), d.MaxSize())
		}
	}
}

func TestResizeServerShrinkDisplaces(t *testing.T) {
	// Shrinking below the residents' floors forces displacement; the
	// displaced VMs must land on the second server, lowest priority
	// first.
	m := newTestManager(t, 2, Config{})
	// Two residents with explicit QoS floors of 8 cores each: the shrunk
	// capacity (10 cores) can hold one floor but not both, so exactly
	// one VM must be displaced even at maximal deflation.
	var target *Server
	for i := 0; i < 2; i++ {
		dc := deflatableVM(fmt.Sprintf("vm-%d", i), 20, 49152, 0.25*float64(i+1))
		dc.MinAllocation = resources.CPUMem(8, 20480)
		_, s, err := m.PlaceVM(dc)
		if err != nil {
			t.Fatal(err)
		}
		if target == nil {
			target = s
		} else if s != target {
			t.Fatalf("setup: VMs spread across servers")
		}
	}
	out, err := m.ResizeServer(target.Host.Name(), resources.CPUMem(10, 24576))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.VMs) == 0 {
		t.Fatal("deep shrink displaced nothing")
	}
	if out.VMs[0].Priority != 0.25 {
		t.Fatalf("displacement order: first victim priority %g, want the lowest (0.25)", out.VMs[0].Priority)
	}
	if n := kills(out); n != 0 {
		t.Fatalf("displaced VMs killed (%d) with an empty server available", n)
	}
	if alloc := target.Host.Allocated(); !alloc.FitsIn(resources.CPUMem(10, 24576)) {
		t.Fatalf("allocated %v exceeds shrunk capacity", alloc)
	}
}

// TestRevocationChurnMatchesAcrossEngines is the cluster-level
// differential guarantee under capacity shocks: an identical randomized
// sequence of placements, removals, revocations, restorations and
// resizes must produce identical placements, evacuation outcomes,
// counters and stats on the reference manager and on the indexed
// manager in both pressure-scan modes — under the priority policy, the
// proportional policy and priority-partitioned pools under both
// policies, whose evacuations re-place through the pool filter.
func TestRevocationChurnMatchesAcrossEngines(t *testing.T) {
	cases := []struct {
		prefix string
		cfg    Config
	}{
		{"", Config{Policy: policy.Priority{}}},
		{"proportional/", Config{Policy: policy.Proportional{}}},
		{"pools/", Config{Policy: policy.Priority{}, PartitionByPriority: true}},
		{"pools-proportional/", Config{Policy: policy.Proportional{}, PartitionByPriority: true}},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%sseed=%d", tc.prefix, seed), func(t *testing.T) {
				runRevocationChurn(t, seed, tc.cfg, 12, 160)
			})
		}
	}
}

// TestPressureShockChurnDifferential saturates the revocation churn so
// revokes and resizes interleave with under-pressure placements — the
// adversarial case for the pressure index, whose bound keys must track
// servers leaving, returning and changing size mid-stream. The longer
// sequence keeps the cluster full enough that arrivals routinely fall
// through to the pressure scan right after shock events, and the
// outcome checks reject a run where the new machinery never fired.
func TestPressureShockChurnDifferential(t *testing.T) {
	for _, seed := range []int64{7, 19} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			out := runRevocationChurn(t, seed, Config{Policy: policy.Priority{}}, 10, 500)
			if out.revokes == 0 || out.resizes == 0 {
				t.Fatalf("churn produced %d revokes / %d resizes — the interleaving is vacuous",
					out.revokes, out.resizes)
			}
			if out.arrivals == 0 {
				t.Fatal("no pressured arrivals — the churn never saturated")
			}
			if out.pruned == 0 {
				t.Fatal("bound pruning never fired under shock churn")
			}
		})
	}
}

// churnEngine pairs one manager configuration with its label for the
// multi-engine differential churn.
type churnEngine struct {
	label string
	m     *Manager
}

// churnOutcome summarizes one runRevocationChurn for vacuity checks:
// how much shock churn the sequence produced and the pruned engine's
// pressure-scan work, folded from its outcome records.
type churnOutcome struct {
	revokes, resizes int
	arrivals, pruned int
}

func runRevocationChurn(t *testing.T, seed int64, cfg Config, nServers, nOps int) churnOutcome {
	t.Helper()
	// Both scan modes: pruned descent (the shipped path) and the full
	// linear scan, both against the reference.
	engines := []churnEngine{
		{"reference", newOracleManager(cfg, "reference")},
		{"pruned", NewManager(cfg)},
		{"fullscan", newOracleManager(cfg, "fullscan")},
	}
	for i := 0; i < nServers; i++ {
		for _, e := range engines {
			if _, err := e.m.AddServerSpec(churnSpec(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	revoked := make([]bool, nServers)
	nRevoked := 0
	placed := map[string]bool{}
	next := 0
	var out churnOutcome
	// pls holds each engine's outcome records of the current op.
	var pls [3][]Placement
	evacuation := func(i int, ev Evacuation, err error) string {
		pls[i] = ev.Placements
		for j, pl := range ev.Placements {
			if pl.Err != nil {
				delete(placed, ev.VMs[j].Name)
			}
		}
		return describeEvacuation(ev, err)
	}
	for op := 0; op < nOps; op++ {
		pls = [3][]Placement{}
		var step func(i int, m *Manager) string
		r := rng.Intn(20)
		switch {
		case r < 2 && nRevoked < nServers/2: // revoke 1-2 servers
			k := 1 + rng.Intn(2)
			var names []string
			for j := 0; j < k && nRevoked < nServers/2; j++ {
				i := rng.Intn(nServers)
				for revoked[i] {
					i = (i + 1) % nServers
				}
				revoked[i] = true
				nRevoked++
				out.revokes++
				names = append(names, fmt.Sprintf("node-%03d", i))
			}
			step = func(i int, m *Manager) string {
				ev, err := m.RevokeServers(names...)
				return "revoke " + evacuation(i, ev, err)
			}
		case r < 4 && nRevoked > 0: // restore one
			i := rng.Intn(nServers)
			for !revoked[i] {
				i = (i + 1) % nServers
			}
			revoked[i] = false
			nRevoked--
			name := fmt.Sprintf("node-%03d", i)
			step = func(_ int, m *Manager) string {
				if err := m.RestoreServer(name); err != nil {
					return fmt.Sprintf("restore err %v", err)
				}
				return "restored " + name
			}
		case r < 6: // resize an in-service server
			i := rng.Intn(nServers)
			for revoked[i] {
				i = (i + 1) % nServers
			}
			name := fmt.Sprintf("node-%03d", i)
			scale := 0.4 + 0.6*rng.Float64() // 40%..100%
			capv := serverCap().Scale(scale)
			out.resizes++
			step = func(i int, m *Manager) string {
				ev, err := m.ResizeServer(name, capv)
				return fmt.Sprintf("resize %s %.2f ", name, scale) + evacuation(i, ev, err)
			}
		case r < 9 && len(placed) > 0: // departure batch
			k := 1 + rng.Intn(3)
			var names []string
			for name := range placed {
				names = append(names, name)
				if len(names) == k {
					break
				}
			}
			// map range order is random but the same list is fed to all
			// engines, so determinism across engines holds.
			for _, n := range names {
				delete(placed, n)
			}
			step = func(_ int, m *Manager) string {
				if err := m.RemoveVMs(names...); err != nil {
					return fmt.Sprintf("remove err %v", err)
				}
				return "removed"
			}
		default: // arrival
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
			step = func(i int, m *Manager) string {
				pls[i] = m.PlaceVMs([]hypervisor.DomainConfig{dc}, nil)
				if err := pls[i][0].Err; err != nil && !errors.Is(err, ErrNoCapacity) {
					t.Fatalf("op %d: unexpected error %v", op, err)
				} else if err == nil {
					placed[name] = true
				}
				return describePlacements(pls[i])
			}
		}
		got := make([]string, len(engines))
		for i, e := range engines {
			got[i] = step(i, e.m)
		}
		for i := 1; i < len(engines); i++ {
			if got[i] != got[0] {
				t.Fatalf("op %d: %s %q != %s %q", op, engines[i].label, got[i], engines[0].label, got[0])
			}
		}
		// Scan work, record by record: the full scan scores exactly what
		// the reference scores and prunes nothing; the pruned engine's
		// scored plus pruned covers the reference's eligible total.
		checkScanWork(t, op, pls[0], pls[2], false)
		checkScanWork(t, op, pls[0], pls[1], true)
		for _, pl := range pls[1] {
			if pl.Path == PathPressure {
				out.arrivals++
			}
			out.pruned += pl.Pruned
		}
		compareEngineStats(t, op, engines[0].m, engines[1:])
	}
	return out
}

// churnSpec provisions server i of a churn suite's fleet: a plain
// server in pool i mod PriorityLevels.
func churnSpec(i int) ServerSpec {
	return ServerSpec{
		Name:      fmt.Sprintf("node-%03d", i),
		Capacity:  serverCap(),
		Partition: i % PriorityLevels,
	}
}

// describeEvacuation renders a capacity-shock outcome comparably: the
// displaced VMs in evacuation order, then their relocation records.
func describeEvacuation(out Evacuation, err error) string {
	if err != nil {
		return fmt.Sprintf("err=%v", err)
	}
	s := ""
	for _, dc := range out.VMs {
		s += dc.Name + " "
	}
	return s + describePlacements(out.Placements)
}

// kills folds an evacuation's records: how many displaced VMs no server
// could host.
func kills(out Evacuation) int {
	n := 0
	for _, pl := range out.Placements {
		if pl.Err != nil {
			n++
		}
	}
	return n
}

func compareEngineStats(t *testing.T, op int, ref *Manager, others []churnEngine) {
	t.Helper()
	sr := ref.Stats()
	for _, o := range others {
		if so := o.m.Stats(); so != sr {
			t.Fatalf("op %d: stats diverged (%s):\nref   %+v\ngot   %+v", op, o.label, sr, so)
		}
	}
}
