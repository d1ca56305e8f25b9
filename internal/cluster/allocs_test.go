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
// exercises a full policy pass. It returns the server and the manager's
// normalised config, which the passes read.
func steadyStateServer(tb testing.TB, pol policy.Policy) (*Server, *Config) {
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
	return s, &m.cfg
}

// policyPassCycle is one steady-state hot-path iteration: the deflation
// policy pass that would make room for a 16-core on-demand arrival
// (deflateFor — everything a placement does on its server except
// defining the domain, which inherently allocates), followed by the
// reinflation pass a departure would trigger. The server returns to its
// initial state, so the cycle can repeat indefinitely.
func policyPassCycle(tb testing.TB, s *Server, cfg *Config) {
	od := hypervisor.DomainConfig{Name: "od", Size: resources.CPUMem(16, 32768)}
	if _, err := deflateFor(s, cfg, od); err != nil {
		tb.Fatal(err)
	}
	if err := reinflate(s, cfg); err != nil {
		tb.Fatal(err)
	}
}

// TestPolicyPassSteadyStateZeroAllocs is the allocation-regression
// guard for the placement hot path: once the per-server scratch arena
// is warm, the deflation pass and reinflate must perform zero heap
// allocations, for every policy. (A full placement additionally defines
// and starts a domain, which allocates by nature; the policy pass is
// the part that runs once per pressured arrival and departure at cloud
// scale.)
func TestPolicyPassSteadyStateZeroAllocs(t *testing.T) {
	for _, pol := range []policy.Policy{policy.Proportional{}, policy.Priority{}, policy.Deterministic{}, policy.LatencyAware{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			s, cfg := steadyStateServer(t, pol)
			policyPassCycle(t, s, cfg) // warm the arenas
			got := testing.AllocsPerRun(200, func() {
				policyPassCycle(t, s, cfg)
			})
			if got != 0 {
				t.Errorf("steady-state deflate/reinflate policy pass allocates %.1f allocs/op, want 0", got)
			}
		})
	}
}

// TestReinflateAloneZeroAllocs pins the departure path by itself: with
// residents deflated, a single reinflate (including its early-exit
// aggregate read) must not allocate.
func TestReinflateAloneZeroAllocs(t *testing.T) {
	s, cfg := steadyStateServer(t, policy.Proportional{})
	od := hypervisor.DomainConfig{Name: "od", Size: resources.CPUMem(16, 32768)}
	if _, err := deflateFor(s, cfg, od); err != nil {
		t.Fatal(err)
	}
	// First reinflation returns everyone to full; subsequent calls hit
	// the Deflated==0 early exit. Both must be allocation-free.
	if got := testing.AllocsPerRun(1, func() {
		if err := reinflate(s, cfg); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("full reinflation pass allocates %.1f allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := reinflate(s, cfg); err != nil {
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
	s, cfg := steadyStateServer(b, policy.Proportional{})
	policyPassCycle(b, s, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policyPassCycle(b, s, cfg)
	}
}

// TestPlaceRemovePairAllocatesOneDomain pins the per-VM allocation
// budget of the manager's churn path: on a populated manager in steady
// state, admitting a VM under pressure (dirty sync, pressure descent,
// policy pass, launch) and removing it again (teardown, reinflation
// pass) allocates one object — the hypervisor.Domain, which carries its
// guest, cgroup and accounting row — and nothing per call on either
// path.
func TestPlaceRemovePairAllocatesOneDomain(t *testing.T) {
	m := newTestManager(t, 4, Config{})
	for i := 0; i < 16; i++ { // four 12-core residents fill each 48-core server
		if _, _, err := m.PlaceVM(deflatableVM(fmt.Sprintf("resident-%02d", i), 12, 24576, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	// The engine's calling convention: one-element batches through
	// caller-owned buffers that are reused across calls.
	dcs := []hypervisor.DomainConfig{deflatableVM("churn", 8, 16384, 0.5)} // fits nowhere without deflation
	names := []string{dcs[0].Name}
	var buf []Placement
	pair := func() {
		buf = m.PlaceVMs(dcs, buf[:0])
		if buf[0].Err != nil {
			t.Fatal(buf[0].Err)
		}
		if err := m.RemoveVMs(names...); err != nil {
			t.Fatal(err)
		}
	}
	pair() // warm the arenas, the buffers, the placement map and the host's row table
	if got := testing.AllocsPerRun(200, pair); got != 1 {
		t.Errorf("PlaceVMs + RemoveVMs allocates %.1f objects per pair, want exactly 1 (the Domain)", got)
	}
	dc := dcs[0]
	// Placed once more, the VM must take the pressure path and deflate a
	// resident beside itself, or the policy-pass path was not exercised.
	pl := m.PlaceVMs([]hypervisor.DomainConfig{dc}, nil)[0]
	if pl.Err != nil || pl.Path != PathPressure || pl.Server.Host.Aggregates().Deflated < 2 {
		t.Errorf("the pair never deflated a resident: path %d, err %v", pl.Path, pl.Err)
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
