package cluster

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

func serverCap() resources.Vector { return resources.New(48, 131072, 0, 0) }

func newTestManager(t *testing.T, nServers int, cfg Config) *Manager {
	t.Helper()
	m := NewManager(cfg)
	for i := 0; i < nServers; i++ {
		if _, err := m.AddServer(fmt.Sprintf("node-%d", i), serverCap(), i%PriorityLevels); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func deflatableVM(name string, cores, memMB, prio float64) hypervisor.DomainConfig {
	return hypervisor.DomainConfig{
		Name:       name,
		Size:       resources.CPUMem(cores, memMB),
		Deflatable: true,
		Priority:   prio,
	}
}

func onDemandVM(name string, cores, memMB float64) hypervisor.DomainConfig {
	return hypervisor.DomainConfig{Name: name, Size: resources.CPUMem(cores, memMB)}
}

// TestAddServerDuplicate: re-adding any registered server name — first,
// middle or last, at another capacity and pool — fails with ErrExists
// and leaves the fleet as it was: the same servers in the same order,
// the name still mapped to its first server and no pool's capacity
// bound widened.
func TestAddServerDuplicate(t *testing.T) {
	m := newTestManager(t, 5, Config{PartitionByPriority: true})
	before := m.Servers()
	maxCap := maps.Clone(m.maxCap)
	for _, name := range []string{"node-0", "node-2", "node-4"} {
		if _, err := m.AddServerSpec(ServerSpec{Name: name, Capacity: serverCap().Scale(2), Partition: 3}); !errors.Is(err, ErrExists) {
			t.Errorf("duplicate server %s: err = %v, want ErrExists", name, err)
		}
		if got := m.Servers(); !slices.Equal(got, before) {
			t.Errorf("after duplicate %s: servers %v, want %v", name, got, before)
		}
		if s := m.byName[name]; s != before[s.gidx] || s.Host.Name() != name {
			t.Errorf("after duplicate %s: the name maps to %v", name, s)
		}
		if !maps.Equal(m.maxCap, maxCap) {
			t.Errorf("after duplicate %s: pool capacity bounds %v, want %v", name, m.maxCap, maxCap)
		}
	}
}

func TestPlaceWithoutDeflation(t *testing.T) {
	m := newTestManager(t, 2, Config{})
	d, s, err := m.PlaceVM(deflatableVM("vm-1", 8, 16384, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if d.State() != hypervisor.Running {
		t.Errorf("state = %v", d.State())
	}
	if d.Allocation() != d.MaxSize() {
		t.Errorf("undeflated placement should give full size: %v", d.Allocation())
	}
	if s == nil {
		t.Fatal("nil server")
	}
	if n := s.Host.Aggregates().Deflated; n != 0 {
		t.Errorf("%d VMs deflated", n)
	}
}

func TestPlaceDuplicateVM(t *testing.T) {
	m := newTestManager(t, 1, Config{})
	if _, _, err := m.PlaceVM(deflatableVM("vm", 2, 4096, 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.PlaceVM(deflatableVM("vm", 2, 4096, 0.5)); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate VM err = %v", err)
	}
}

func TestPlacementPacksSurplusTightly(t *testing.T) {
	m := newTestManager(t, 4, Config{})
	counts := map[string]int{}
	for i := 0; i < 8; i++ {
		_, s, err := m.PlaceVM(deflatableVM(fmt.Sprintf("vm-%d", i), 12, 32768, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		counts[s.Host.Name()]++
	}
	// Surplus-first placement is tightest-fit: 8 x 12-core VMs fill two
	// 48-core servers completely before touching the others, keeping the
	// remaining servers whole for large future arrivals.
	used := 0
	for _, c := range counts {
		used++
		if c != 4 {
			t.Errorf("expected full packing (4 VMs/server), got %v", counts)
			break
		}
	}
	if used != 2 {
		t.Errorf("expected exactly 2 servers used, got %v", counts)
	}
}

func TestPlacementPrefersDeflationOverRejection(t *testing.T) {
	m := newTestManager(t, 2, Config{})
	// Fill both servers with deflatable load.
	for i := 0; i < 2; i++ {
		if _, _, err := m.PlaceVM(deflatableVM(fmt.Sprintf("low-%d", i), 48, 98304, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	// A new on-demand VM must still be admitted by deflating residents.
	d, _, err := m.PlaceVM(onDemandVM("od", 16, 16384))
	if err != nil {
		t.Fatal(err)
	}
	if d.Allocation() != d.MaxSize() {
		t.Errorf("on-demand allocation = %v", d.Allocation())
	}
}

func TestPlaceTriggersDeflation(t *testing.T) {
	m := newTestManager(t, 1, Config{Policy: policy.Proportional{}})
	// Fill the server: 40 cores of deflatable + on-demand needing 16.
	if _, _, err := m.PlaceVM(deflatableVM("low-1", 40, 65536, 0.5)); err != nil {
		t.Fatal(err)
	}
	d, _, err := m.PlaceVM(onDemandVM("od-1", 16, 32768))
	if err != nil {
		t.Fatal(err)
	}
	if d.Allocation() != d.MaxSize() {
		t.Errorf("on-demand VM must get full size: %v", d.Allocation())
	}
	low, _, err := m.LookupVM("low-1")
	if err != nil {
		t.Fatal(err)
	}
	// low-1 must have been deflated to 48-16=32 cores.
	if got := low.Allocation().Get(resources.CPU); got > 32.001 {
		t.Errorf("deflatable VM allocation = %v, want <= 32", got)
	}
	// Server never over-allocated, and low-1 is its one deflated VM.
	srv := m.Servers()[0]
	if n := srv.Host.Aggregates().Deflated; n != 1 {
		t.Errorf("%d VMs deflated, want low-1 alone", n)
	}
	if !srv.Host.Aggregates().Allocated.FitsIn(srv.Host.Capacity()) {
		t.Errorf("allocated %v exceeds capacity", srv.Host.Aggregates().Allocated)
	}
}

func TestNewcomerStartsDeflated(t *testing.T) {
	m := newTestManager(t, 1, Config{})
	if _, _, err := m.PlaceVM(deflatableVM("a", 40, 65536, 0.5)); err != nil {
		t.Fatal(err)
	}
	// Another deflatable 40-core VM: total 80 > 48 -> both deflate.
	d, _, err := m.PlaceVM(deflatableVM("b", 40, 65536, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Allocation().Get(resources.CPU); got >= 40 {
		t.Errorf("newcomer should start deflated: %v", got)
	}
	srv := m.Servers()[0]
	if !srv.Host.Aggregates().Allocated.FitsIn(srv.Host.Capacity()) {
		t.Errorf("allocated %v exceeds capacity", srv.Host.Aggregates().Allocated)
	}
}

func TestAdmissionControlRejects(t *testing.T) {
	m := newTestManager(t, 1, Config{})
	if _, _, err := m.PlaceVM(onDemandVM("od-1", 40, 65536)); err != nil {
		t.Fatal(err)
	}
	// A 16-core on-demand VM cannot fit: nothing is deflatable, so the
	// pressure ranking is the gate that refuses it.
	pl := m.PlaceVMs([]hypervisor.DomainConfig{onDemandVM("od-2", 16, 32768)}, nil)[0]
	if !errors.Is(pl.Err, ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity, got %v", pl.Err)
	}
	// The feasibility pre-filter skips the one server unscored.
	if pl.Path != PathPressure || pl.Scored != 0 || pl.Pruned != 1 {
		t.Errorf("rejection path %d, scored %d, pruned %d; want the pressure path, 0 scored, 1 pruned", pl.Path, pl.Scored, pl.Pruned)
	}
}

func TestRemoveVMReinflates(t *testing.T) {
	m := newTestManager(t, 1, Config{})
	if _, _, err := m.PlaceVM(deflatableVM("low", 40, 65536, 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.PlaceVM(onDemandVM("od", 16, 32768)); err != nil {
		t.Fatal(err)
	}
	low, _, _ := m.LookupVM("low")
	if got := low.Allocation().Get(resources.CPU); got > 32.001 {
		t.Fatalf("setup: low = %v", got)
	}
	if err := m.RemoveVM("od"); err != nil {
		t.Fatal(err)
	}
	// Freed capacity flows back: low reinflates to full.
	if got := low.Allocation().Get(resources.CPU); got < 39.999 {
		t.Errorf("after departure low = %v, want reinflated to 40", got)
	}
}

// A bad name mid-batch must not leave earlier removals' servers with
// their survivors stuck deflated: reinflation runs for every server
// already touched before the error is reported.
func TestRemoveVMsPartialBatchStillReinflates(t *testing.T) {
	m := newTestManager(t, 1, Config{})
	if _, _, err := m.PlaceVM(deflatableVM("low", 40, 65536, 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.PlaceVM(onDemandVM("od", 16, 32768)); err != nil {
		t.Fatal(err)
	}
	low, _, _ := m.LookupVM("low")
	if got := low.Allocation().Get(resources.CPU); got > 32.001 {
		t.Fatalf("setup: low = %v", got)
	}
	if err := m.RemoveVMs("od", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if got := low.Allocation().Get(resources.CPU); got < 39.999 {
		t.Errorf("low = %v cores after partial batch, want reinflated to 40", got)
	}
	if _, _, err := m.LookupVM("od"); !errors.Is(err, ErrNotFound) {
		t.Error("od should have been removed despite the batch error")
	}
}

func TestRemoveVMErrors(t *testing.T) {
	m := newTestManager(t, 1, Config{})
	if err := m.RemoveVM("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := m.LookupVM("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup err = %v", err)
	}
}

func TestPartitionedPlacement(t *testing.T) {
	cfg := Config{PartitionByPriority: true}
	m := NewManager(cfg)
	for i := 0; i < 4; i++ {
		if _, err := m.AddServer(fmt.Sprintf("node-%d", i), serverCap(), i); err != nil {
			t.Fatal(err)
		}
	}
	// Priority 0.9 -> level 3; 0.1 -> level 0.
	_, sHigh, err := m.PlaceVM(deflatableVM("high", 4, 8192, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if sHigh.Partition != 3 {
		t.Errorf("high-priority VM on partition %d, want 3", sHigh.Partition)
	}
	_, sLow, err := m.PlaceVM(deflatableVM("low", 4, 8192, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if sLow.Partition != 0 {
		t.Errorf("low-priority VM on partition %d, want 0", sLow.Partition)
	}
	// On-demand VMs land in the highest pool.
	_, sOD, err := m.PlaceVM(onDemandVM("od", 4, 8192))
	if err != nil {
		t.Fatal(err)
	}
	if sOD.Partition != 3 {
		t.Errorf("on-demand VM on partition %d, want 3", sOD.Partition)
	}
}

func TestPartitionFullRejects(t *testing.T) {
	m := NewManager(Config{PartitionByPriority: true})
	for pool := 0; pool < PriorityLevels; pool++ {
		if _, err := m.AddServer(fmt.Sprintf("p%d", pool), serverCap(), pool); err != nil {
			t.Fatal(err)
		}
	}
	// On-demand VMs share the highest pool: od-a fills its one server.
	if _, _, err := m.PlaceVM(onDemandVM("od-a", 48, 131072)); err != nil {
		t.Fatal(err)
	}
	// A second on-demand VM cannot go to the lower pools even though
	// they are empty.
	_, _, err := m.PlaceVM(onDemandVM("od-b", 8, 8192))
	if !errors.Is(err, ErrNoCapacity) {
		t.Errorf("want partition-full rejection, got %v", err)
	}
}

func TestAvailabilityVector(t *testing.T) {
	m := newTestManager(t, 1, Config{})
	s := m.Servers()[0]
	// Empty server: availability = capacity.
	if got := availability(s); got != serverCap() {
		t.Errorf("empty availability = %v", got)
	}
	if _, _, err := m.PlaceVM(deflatableVM("a", 24, 65536, 0.5)); err != nil {
		t.Fatal(err)
	}
	got := availability(s)
	// free = 24 cores; deflatable adds back most of a's 24 cores.
	if got.Get(resources.CPU) < 24 {
		t.Errorf("availability should include deflatable resources: %v", got)
	}
	if got.Get(resources.CPU) > 48 {
		t.Errorf("availability cannot exceed capacity here: %v", got)
	}
}

func TestStats(t *testing.T) {
	m := newTestManager(t, 2, Config{})
	m.PlaceVM(deflatableVM("a", 40, 65536, 0.5))
	m.PlaceVM(deflatableVM("b", 40, 65536, 0.5))
	m.PlaceVM(deflatableVM("c", 40, 65536, 0.5)) // forces deflation somewhere
	st := m.Stats()
	if st.Servers != 2 || st.VMs != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.Committed.Get(resources.CPU) != 120 {
		t.Errorf("committed = %v", st.Committed)
	}
	if st.Overcommit < 0.24 || st.Overcommit > 0.26 {
		t.Errorf("overcommit = %v, want 0.25", st.Overcommit)
	}
	if !st.Allocated.FitsIn(st.Capacity) {
		t.Errorf("allocated %v exceeds capacity %v", st.Allocated, st.Capacity)
	}
}

func TestDeterministicPolicyIntegration(t *testing.T) {
	m := newTestManager(t, 1, Config{Policy: policy.Deterministic{}})
	if _, _, err := m.PlaceVM(deflatableVM("low", 40, 65536, 0.25)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.PlaceVM(onDemandVM("od", 20, 32768)); err != nil {
		t.Fatal(err)
	}
	low, _, _ := m.LookupVM("low")
	// Deterministic: low deflated to priority*max = 10 cores.
	if got := low.Allocation().Get(resources.CPU); got > 10.001 {
		t.Errorf("deterministic deflation = %v, want 10", got)
	}
}
