package cluster

import (
	"errors"
	"fmt"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// steadyStateServer builds a one-server manager filled to capacity with
// deflatable residents, so that every deflateFor/reinflate cycle
// exercises a full policy pass. It returns the manager, whose arena and
// normalised config the passes use, and the server, synced as a
// placement decision leaves it for deflateFor.
func steadyStateServer(tb testing.TB, pol policy.Policy) (*Manager, *Server) {
	tb.Helper()
	m := NewManager(Config{Policy: pol})
	s, err := m.AddServer("node-0", resources.CPUMem(48, 131072), 0)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		dc := hypervisor.DomainConfig{
			Name:       fmt.Sprintf("resident-%d", i),
			Size:       resources.CPUMem(8, 16384),
			Deflatable: true,
			Priority:   []float64{0.25, 0.5, 0.75, 1.0}[i%4],
			// Mixed offered loads so a latency-aware pass computes real
			// per-VM safe fractions (ignored by the other policies).
			Load: []float64{0, 2, 5, 7}[i%4],
		}
		if _, _, err := m.PlaceVM(dc); err != nil {
			tb.Fatal(err)
		}
	}
	m.Stats()
	return m, s
}

// policyPassCycle is one steady-state hot-path iteration: the deflation
// policy pass that would make room for a 16-core on-demand arrival
// (deflateFor — everything a placement does on its server except
// defining the domain, which inherently allocates), followed by the
// reinflation pass a departure would trigger. The server returns to its
// initial state, so the cycle can repeat indefinitely. Each pass reads
// the synced cache, so the cycle syncs before each, as placeOne and
// RemoveVMs do.
func policyPassCycle(tb testing.TB, m *Manager, s *Server) {
	od := hypervisor.DomainConfig{Name: "od", Size: resources.CPUMem(16, 32768)}
	m.syncDirty()
	if _, err := m.deflateFor(s, od); err != nil {
		tb.Fatal(err)
	}
	m.syncDirty()
	if err := m.reinflate(s); err != nil {
		tb.Fatal(err)
	}
}

// TestPolicyPassSteadyStateZeroAllocs is the allocation-regression
// guard for the placement hot path: once the manager's pass arena is
// warm, the deflation pass and reinflate must perform zero heap
// allocations, for every policy. (A full placement additionally defines
// and starts a domain, which allocates by nature; the policy pass is
// the part that runs once per pressured arrival and departure at cloud
// scale.)
func TestPolicyPassSteadyStateZeroAllocs(t *testing.T) {
	for _, pol := range []policy.Policy{policy.Proportional{}, policy.Priority{}, policy.Deterministic{}, policy.LatencyAware{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			m, s := steadyStateServer(t, pol)
			policyPassCycle(t, m, s) // warm the arenas
			got := testing.AllocsPerRun(200, func() {
				policyPassCycle(t, m, s)
			})
			if got != 0 {
				t.Errorf("steady-state deflate/reinflate policy pass allocates %.1f allocs/op, want 0", got)
			}
		})
	}
}

// TestPolicyPassOnAnotherServerAllocatesNothing: the policy-pass arena
// is the manager's, not a server's. Once one server has run a deflation
// and a reinflation pass over its six residents, the same two passes on
// every other server — each run on a server that has never run a pass,
// holding six, four or three residents — allocate nothing. With an arena
// per server, each server's first pass grew its own.
func TestPolicyPassOnAnotherServerAllocatesNothing(t *testing.T) {
	const runs = 8
	for _, pol := range []policy.Policy{policy.Proportional{}, policy.Priority{}, policy.Deterministic{}, policy.LatencyAware{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			m := NewManager(Config{Policy: pol})
			var servers []*Server
			for i := 0; i <= runs+1; i++ {
				s, err := m.AddServer(fmt.Sprintf("node-%d", i), resources.CPUMem(48, 131072), 0)
				if err != nil {
					t.Fatal(err)
				}
				// Each server is filled before the next is added, so the
				// surplus placement lands every resident on it.
				k := []int{6, 4, 3}[i%3]
				for j := 0; j < k; j++ {
					cores := 48 / float64(k)
					dc := deflatableVM(fmt.Sprintf("vm-%d-%d", i, j), cores, 2048*cores, []float64{0.25, 0.5, 0.75, 1.0}[j%4])
					dc.Load = []float64{0, 2, 5, 7}[j%4]
					if _, got, err := m.PlaceVM(dc); err != nil || got != s {
						t.Fatalf("%s landed on %v (err %v), want %s", dc.Name, got, err, s.Host.Name())
					}
				}
				servers = append(servers, s)
			}
			policyPassCycle(t, m, servers[0]) // six residents: the arena's high-water mark
			next := 1
			got := testing.AllocsPerRun(runs, func() {
				s := servers[next]
				next++
				epoch := s.Host.AllocEpoch()
				policyPassCycle(t, m, s)
				if moved := s.Host.AllocEpoch() - epoch; moved != 2 || s.Host.Aggregates().Deflated != 0 {
					t.Fatalf("%s: %d of the two passes moved an allocation, %d residents left deflated",
						s.Host.Name(), moved, s.Host.Aggregates().Deflated)
				}
			})
			if next != runs+2 {
				t.Fatalf("ran the passes on %d servers, want %d", next-1, runs+1)
			}
			if got != 0 {
				t.Errorf("the first passes on a server allocate %.2f objects, want 0", got)
			}
		})
	}
}

// TestReinflateAloneZeroAllocs pins the departure path by itself: with
// residents deflated, a single reinflate (including its early-exit
// read of the synced aggregates) must not allocate.
func TestReinflateAloneZeroAllocs(t *testing.T) {
	m, s := steadyStateServer(t, policy.Proportional{})
	od := hypervisor.DomainConfig{Name: "od", Size: resources.CPUMem(16, 32768)}
	if _, err := m.deflateFor(s, od); err != nil {
		t.Fatal(err)
	}
	// First reinflation returns everyone to full; subsequent calls hit
	// the Deflated==0 early exit. Both must be allocation-free, and each
	// syncs first, as RemoveVMs does.
	if got := testing.AllocsPerRun(1, func() {
		m.syncDirty()
		if err := m.reinflate(s); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("full reinflation pass allocates %.1f allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		m.syncDirty()
		if err := m.reinflate(s); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("no-op reinflation allocates %.1f allocs/op, want 0", got)
	}
}

// BenchmarkPolicyPassSteadyState is the placement benchmark CI's alloc
// smoke watches: `-benchmem` must report 0 allocs/op or the make target
// fails the build. It measures the same deflate+reinflate cycle as the
// AllocsPerRun tests, so ns/op here is the per-pass latency the 1M-VM
// runs pay on every pressured arrival and departure.
func BenchmarkPolicyPassSteadyState(b *testing.B) {
	m, s := steadyStateServer(b, policy.Proportional{})
	policyPassCycle(b, m, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policyPassCycle(b, m, s)
	}
}

// TestPlaceRemovePairAllocatesNothing pins the per-VM allocation
// budget of the manager's churn path: on a populated manager in steady
// state, admitting a VM under pressure (dirty sync, pressure descent,
// policy pass, launch) and removing it again (teardown, reinflation
// pass) allocates nothing: the hypervisor.Domain is a value, and its
// row takes the slot the last removal freed.
func TestPlaceRemovePairAllocatesNothing(t *testing.T) {
	m, pair := placeRemoveSteadyState(t)
	if got := testing.AllocsPerRun(200, pair); got != 0 {
		t.Errorf("PlaceVMs + RemoveVMs allocates %.1f objects per pair, want 0", got)
	}
	// Placed once more, the VM must take the pressure path and deflate a
	// resident beside itself, or the policy-pass path was not exercised.
	pl := m.PlaceVMs([]hypervisor.DomainConfig{deflatableVM("churn", 8, 16384, 0.5)}, nil)[0]
	if pl.Err != nil || pl.Path != PathPressure || pl.Server.Host.Aggregates().Deflated < 2 {
		t.Errorf("the pair never deflated a resident: path %d, err %v", pl.Path, pl.Err)
	}
}

// placeRemoveSteadyState builds a manager of four servers, each filled
// by four 12-core residents, and returns it with a warm pair: an 8-core
// VM that fits nowhere without deflation placed and removed again in
// one-element batches through caller-owned buffers reused across calls,
// the engine's calling convention.
func placeRemoveSteadyState(tb testing.TB) (*Manager, func()) {
	m := newTestManager(tb, 4, Config{})
	for i := 0; i < 16; i++ { // four 12-core residents fill each 48-core server
		if _, _, err := m.PlaceVM(deflatableVM(fmt.Sprintf("resident-%02d", i), 12, 24576, 0.5)); err != nil {
			tb.Fatal(err)
		}
	}
	dcs := []hypervisor.DomainConfig{deflatableVM("churn", 8, 16384, 0.5)}
	names := []string{dcs[0].Name}
	var buf []Placement
	pair := func() {
		buf = m.PlaceVMs(dcs, buf[:0])
		if buf[0].Err != nil {
			tb.Fatal(buf[0].Err)
		}
		if err := m.RemoveVMs(names...); err != nil {
			tb.Fatal(err)
		}
	}
	pair() // warm the arenas, the buffers, the placement map and the host's row table
	return m, pair
}

// BenchmarkPlaceRemoveSteadyState is one VM's life on a full cluster:
// its placement under pressure (dirty sync, pressure descent, policy
// pass, launch) and its removal (teardown, reinflation pass), each a
// one-element batch. `make bench-allocs` requires 0 allocs/op.
func BenchmarkPlaceRemoveSteadyState(b *testing.B) {
	_, pair := placeRemoveSteadyState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair()
	}
}

// TestRejectionAllocatesOneObject pins what a refused arrival costs: one
// object, the error, whose text and sentinels are those of the
// fmt.Errorf chain it replaced ("%w: %s (size %v)"). A capacity
// rejection (a VM larger than any server) is measured.
func TestRejectionAllocatesOneObject(t *testing.T) {
	capacity := newTestManager(t, 2, Config{})
	for _, tc := range []struct {
		name     string
		m        *Manager
		dc       hypervisor.DomainConfig
		wantPath Path
		want     error
	}{
		{"capacity", capacity, onDemandVM("huge", 96, 1024), PathPressure, fmt.Errorf("%w: %s (size %v)", ErrNoCapacity, "huge", resources.CPUMem(96, 1024))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dcs := []hypervisor.DomainConfig{tc.dc}
			var buf []Placement
			refuse := func() { buf = tc.m.PlaceVMs(dcs, buf[:0]) }
			refuse() // warm the buffer
			pl := buf[0]
			if pl.Err == nil || pl.Path != tc.wantPath {
				t.Fatalf("placement took path %d with err %v, want a rejection on path %d", pl.Path, pl.Err, tc.wantPath)
			}
			if pl.Err.Error() != tc.want.Error() {
				t.Errorf("text %q, want %q", pl.Err, tc.want)
			}
			for _, sentinel := range []error{ErrNoCapacity, ErrExists} {
				if got, want := errors.Is(pl.Err, sentinel), errors.Is(tc.want, sentinel); got != want {
					t.Errorf("errors.Is(err, %v) = %v, want %v", sentinel, got, want)
				}
			}
			if got := testing.AllocsPerRun(200, refuse); got > 1 {
				t.Errorf("a refused PlaceVMs allocates %.1f objects, want at most 1 (the error)", got)
			}
		})
	}
}
