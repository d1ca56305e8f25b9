package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// riskSpec provisions a deliberately heterogeneous risky fleet: bands
// cycle through all four levels and every third server carries a
// headroom reserve, so the churn exercises band-keyed indexes, the
// banded candidate order and the admission gate together.
func riskSpec(i int, m *Manager) ServerSpec {
	return ServerSpec{
		Name:            fmt.Sprintf("node-%03d", i),
		Capacity:        serverCap(),
		Partition:       i % PriorityLevels,
		Band:            i % 4,
		ReserveFraction: 0.05 * float64(i%3),
	}
}

// TestRiskChurnMatchesReference is the differential guarantee for the
// risk-aware paths: with hazard bands, headroom reserves and the
// shock-aware admission gate all active, the indexed engine must match
// the brute-force reference bit for bit — server choices, rejection
// classes and every counter — with and without priority-partitioned
// pools, and with the banded pressure ranking on the full linear scan.
func TestRiskChurnMatchesReference(t *testing.T) {
	risk := &RiskConfig{HighPriority: 0.75, MaxBands: 4}
	cases := []struct {
		name   string
		cfg    Config
		oracle string
	}{
		{"sequential", Config{Policy: policy.Priority{}, Risk: risk}, ""},
		{"fullscan", Config{Policy: policy.Priority{}, Risk: risk}, "fullscan"},
		{"pools", Config{
			Policy:              policy.Priority{},
			Risk:                risk,
			PartitionByPriority: true,
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{5, 17} {
				runDifferentialChurnSpecs(t, seed, tc.cfg, tc.oracle, 12, 400, riskSpec)
			}
		})
	}
}

// TestBandedOrderPrefersLowHazard: a high-priority VM walks the hazard
// bands upward and lands on the safe server even though the risky one
// is the tighter fit, while a low-priority VM keeps the legacy
// tightest-fit order and packs onto the risky server.
func TestBandedOrderPrefersLowHazard(t *testing.T) {
	m := NewManager(Config{Risk: &RiskConfig{}})
	if _, err := m.AddServerSpec(ServerSpec{Name: "a-risky", Capacity: serverCap(), Band: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddServerSpec(ServerSpec{Name: "b-safe", Capacity: serverCap(), Band: 0}); err != nil {
		t.Fatal(err)
	}
	// Tie on free share: low priority takes the name order, onto a-risky,
	// which from then on is the tighter fit.
	_, s, err := m.PlaceVM(deflatableVM("low-0", 8, 16384, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if s.Host.Name() != "a-risky" {
		t.Fatalf("low-priority tie broke to %s, want a-risky (legacy name order)", s.Host.Name())
	}
	_, s, err = m.PlaceVM(deflatableVM("high-0", 8, 16384, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	if s.Host.Name() != "b-safe" {
		t.Fatalf("high-priority VM placed on %s, want b-safe (band 0 before band 3)", s.Host.Name())
	}
	_, s, err = m.PlaceVM(deflatableVM("low-1", 8, 16384, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if s.Host.Name() != "a-risky" {
		t.Fatalf("low-priority VM placed on %s, want a-risky (tightest fit, band-blind)", s.Host.Name())
	}
	// A non-deflatable VM is banded too: the reserve protects exactly
	// this class, and it must avoid hazard like high priority does.
	_, s, err = m.PlaceVM(onDemandVM("ondemand-0", 8, 16384))
	if err != nil {
		t.Fatal(err)
	}
	if s.Host.Name() != "b-safe" {
		t.Fatalf("on-demand VM placed on %s, want b-safe", s.Host.Name())
	}
}

// TestHeadroomGateWithholdsLowPriority pins the admission gate's
// arithmetic and its accounting: two servers reserving half their
// capacity stop admitting low-priority VMs once free capacity dips to
// the reserve, the rejection carries both ErrHeadroom and
// ErrNoCapacity, high-priority and on-demand VMs bypass the gate, and
// the whole trajectory is identical on the indexed engine in both
// pressure-scan modes and on the reference engine.
func TestHeadroomGateWithholdsLowPriority(t *testing.T) {
	for _, oracle := range []string{"", "fullscan", "reference"} {
		name := cmp.Or(oracle, "sequential")
		t.Run(name, func(t *testing.T) {
			m := newOracleManager(Config{Risk: &RiskConfig{}}, oracle)
			for i := 0; i < 2; i++ {
				spec := ServerSpec{
					Name:            fmt.Sprintf("node-%d", i),
					Capacity:        serverCap(),
					ReserveFraction: 0.5,
				}
				if _, err := m.AddServerSpec(spec); err != nil {
					t.Fatal(err)
				}
			}
			if got := m.HeadroomReserve(); got != serverCap() {
				t.Fatalf("reserve = %v, want one server's worth %v", got, serverCap())
			}
			// Free capacity starts at 96 cores against a 48-core reserve:
			// 8-core VMs pass the gate while 8 + 48 <= 96 - 8k, so exactly
			// six are admitted and the seventh is withheld — with 40 cores
			// still free, so this is headroom, not capacity.
			var lows []hypervisor.DomainConfig
			for i := 0; i < 7; i++ {
				lows = append(lows, deflatableVM(fmt.Sprintf("low-%d", i), 8, 1024, 0.25))
			}
			pls := m.PlaceVMs(lows, nil)
			for i, pl := range pls[:6] {
				if pl.Err != nil || pl.Path != PathSurplus {
					t.Fatalf("low-%d before the gate: path %d, err %v; want a surplus admission", i, pl.Path, pl.Err)
				}
			}
			rej := pls[6]
			if !errors.Is(rej.Err, ErrHeadroom) || !errors.Is(rej.Err, ErrNoCapacity) {
				t.Fatalf("gate rejection = %v, want ErrHeadroom wrapping ErrNoCapacity", rej.Err)
			}
			if rej.Path != PathHeadroom || rej.Scored+rej.Pruned != 0 {
				t.Fatalf("gate rejection took path %d with scan work %d/%d, want the headroom gate and no scan", rej.Path, rej.Scored, rej.Pruned)
			}
			// The classes the reserve protects sail through the gate.
			for _, pl := range m.PlaceVMs([]hypervisor.DomainConfig{deflatableVM("high", 8, 1024, 0.9), onDemandVM("ondemand", 8, 1024)}, nil) {
				if pl.Err != nil || pl.Path == PathHeadroom {
					t.Fatalf("protected VM gated: path %d, err %v", pl.Path, pl.Err)
				}
			}
		})
	}
}

// TestHeadroomGateLiftsDuringEvacuation: the gate must never fight an
// evacuation — displaced low-priority VMs relocate even into reserved
// headroom (the reserve exists precisely to absorb them).
func TestHeadroomGateLiftsDuringEvacuation(t *testing.T) {
	m := NewManager(Config{Risk: &RiskConfig{}})
	for i := 0; i < 2; i++ {
		spec := ServerSpec{
			Name:            fmt.Sprintf("node-%d", i),
			Capacity:        serverCap(),
			ReserveFraction: 0.5,
		}
		if _, err := m.AddServerSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	// Six 8-core VMs saturate the gate (see the arithmetic above); all
	// land somewhere across the two servers.
	for i := 0; i < 6; i++ {
		if _, _, err := m.PlaceVM(deflatableVM(fmt.Sprintf("low-%d", i), 8, 1024, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	// Revoking node-0 displaces its residents; relocation onto node-1
	// must succeed even though a fresh arrival would be gated there.
	out, err := m.RevokeServers("node-0")
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range out.Placements {
		if pl.Err != nil || pl.Path == PathHeadroom {
			t.Fatalf("evacuation gated or failed: path %d, err %v", pl.Path, pl.Err)
		}
	}
}

// riskDecideSteadyState is decideSteadyState on a risk-on manager:
// bands cycle across the fleet, every server reserves headroom, and the
// probes hit the risk gate, the banded surplus scan (high-priority), the
// band-blind surplus scan (low-priority) and, for the on-demand giant,
// a banded miss every round.
func riskDecideSteadyState(tb testing.TB) (*Manager, []hypervisor.DomainConfig) {
	tb.Helper()
	m := NewManager(Config{
		Policy: policy.Proportional{},
		Risk:   &RiskConfig{},
	})
	for i := 0; i < 8; i++ {
		spec := ServerSpec{
			Name:            fmt.Sprintf("node-%03d", i),
			Capacity:        resources.CPUMem(48, 131072),
			Band:            i % 4,
			ReserveFraction: 0.1,
		}
		if _, err := m.AddServerSpec(spec); err != nil {
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
	dcs := []hypervisor.DomainConfig{
		{Name: "probe-high", Size: resources.CPUMem(8, 16384), Deflatable: true, Priority: 0.9},
		{Name: "probe-low", Size: resources.CPUMem(4, 8192), Deflatable: true, Priority: 0.25},
		{Name: "probe-od", Size: resources.CPUMem(47, 122880)},
	}
	return m, dcs
}

// TestRiskDecideSteadyStateZeroAllocs extends the placement-decision
// allocation gate to the hazard-aware paths: with bands and reserves
// active, the risk gate and the banded surplus walk must stay
// allocation-free once the arenas are warm.
func TestRiskDecideSteadyStateZeroAllocs(t *testing.T) {
	m, dcs := riskDecideSteadyState(t)
	decideOnce(m, dcs) // warm the arenas
	if got := testing.AllocsPerRun(200, func() { decideOnce(m, dcs) }); got != 0 {
		t.Errorf("risk-on steady-state placement decision allocates %.1f allocs/op, want 0", got)
	}
}

// BenchmarkRiskDecideSteadyState is the hazard-aware decision's entry
// in the Makefile's bench-allocs gate: `-benchmem` must report
// 0 allocs/op or the build fails. Compare its ns/op against
// BenchmarkDecideSteadyState for the cost of banding.
func BenchmarkRiskDecideSteadyState(b *testing.B) {
	m, dcs := riskDecideSteadyState(b)
	decideOnce(m, dcs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decideOnce(m, dcs)
	}
}

// TestReserveTracksCapacityEvents: the cluster-wide reserve follows
// revocations (risk realised leaves the forecast), restorations and
// resizes, staying exactly the sum of in-service reserves.
func TestReserveTracksCapacityEvents(t *testing.T) {
	m := NewManager(Config{Risk: &RiskConfig{}})
	for i := 0; i < 3; i++ {
		spec := ServerSpec{
			Name:            fmt.Sprintf("node-%d", i),
			Capacity:        serverCap(),
			ReserveFraction: 0.25,
		}
		if _, err := m.AddServerSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	one := serverCap().Scale(0.25)
	if got, want := m.HeadroomReserve(), one.Scale(3); got != want {
		t.Fatalf("reserve = %v, want %v", got, want)
	}
	if _, err := m.RevokeServers("node-1"); err != nil {
		t.Fatal(err)
	}
	if got, want := m.HeadroomReserve(), one.Scale(2); got != want {
		t.Fatalf("reserve after revoke = %v, want %v", got, want)
	}
	if err := m.RestoreServer("node-1"); err != nil {
		t.Fatal(err)
	}
	if got, want := m.HeadroomReserve(), one.Scale(3); got != want {
		t.Fatalf("reserve after restore = %v, want %v", got, want)
	}
	if _, err := m.ResizeServer("node-2", serverCap().Scale(0.5)); err != nil {
		t.Fatal(err)
	}
	want := one.Scale(2).Add(serverCap().Scale(0.5).Scale(0.25))
	if got := m.HeadroomReserve(); got != want {
		t.Fatalf("reserve after resize = %v, want %v", got, want)
	}
}
