package hypervisor

import (
	"testing"

	"vmdeflate/internal/resources"
)

// freshAggregates recomputes the host's aggregates through the public
// accessors and Vector arithmetic, walking domains in name order — the
// oracle the row-table walk must match bit-for-bit after any operation
// sequence.
func freshAggregates(h *Host) Aggregates {
	var a Aggregates
	for _, d := range h.Domains() { // Domains() is sorted by name
		a.Committed = a.Committed.Add(d.Config().Size)
		if d.State() != Running {
			continue
		}
		a.Running++
		alloc := d.Allocation()
		a.Allocated = a.Allocated.Add(alloc)
		if !d.Deflatable() {
			continue
		}
		a.DeflatableReserve = a.DeflatableReserve.Add(alloc.Sub(DefaultFloor()).ClampNonNegative())
		if alloc.DeflationFraction(d.Config().Size) > 0 {
			a.Deflated++
		}
	}
	return a
}

// checkAggregates holds h's aggregates to a fresh recomputation and
// returns them.
func checkAggregates(t *testing.T, h *Host, op string) Aggregates {
	t.Helper()
	got, want := h.Aggregates(), freshAggregates(h)
	if got != want {
		t.Fatalf("after %s: row-table aggregates diverged from fresh recompute:\n got %+v\nwant %+v", op, got, want)
	}
	return got
}

// TestAggregatesMatchFreshRecompute: after every op of a hostMix
// stream, the row-table walk's aggregates must equal a fresh name-order
// recomputation through the public accessors exactly — the invariant
// that lets the cluster layer's cached sync and the oracles' fresh reads
// agree bit for bit (runDomainOps checks it with the rest of its model).
func TestAggregatesMatchFreshRecompute(t *testing.T) {
	runHostMix(t, 7)
}

// TestAggregatesConvenienceAccessors keeps Committed/Allocated/Available
// consistent with the aggregate snapshot they are served from.
func TestAggregatesConvenienceAccessors(t *testing.T) {
	h := testHost(t)
	defineRunning(t, h, "a", 8, 16384)
	d := defineRunning(t, h, "b", 4, 8192)
	d.SetCPUShares(2)

	agg := h.Aggregates()
	if h.Committed() != agg.Committed || h.Allocated() != agg.Allocated {
		t.Error("accessors disagree with Aggregates()")
	}
	if agg.Running != 2 || agg.Deflated != 1 {
		t.Errorf("running/deflated = %d/%d, want 2/1", agg.Running, agg.Deflated)
	}
	if got := h.Available(); got != h.Capacity().Sub(agg.Allocated).ClampNonNegative() {
		t.Errorf("Available = %v", got)
	}
}

// TestFloorHelpers pins the one deflation floor the cluster policies,
// the host's reserve aggregate and its deflatable view share:
// DefaultFloor, which fits in the smallest domain Define accepts, so no
// size caps it.
func TestFloorHelpers(t *testing.T) {
	if DefaultFloor() != resources.New(0.05, 64, 0, 0) {
		t.Errorf("DefaultFloor = %v", DefaultFloor())
	}
	smallest := DomainConfig{Name: "s", Size: resources.New(1, reserveMB, 0, 0), Deflatable: true}
	if err := smallest.Validate(); err != nil {
		t.Fatal(err)
	}
	if !DefaultFloor().FitsIn(smallest.Size) || smallest.Floor() != DefaultFloor() {
		t.Errorf("smallest valid size %v: floor %v, want DefaultFloor within it", smallest.Size, smallest.Floor())
	}
	h := testHost(t)
	d, err := h.Define(smallest)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if got := h.Aggregates().DeflatableReserve; got != resources.New(0.95, reserveMB-64, 0, 0) {
		t.Errorf("reserve of an undeflated %v domain = %v, want its size less DefaultFloor", smallest.Size, got)
	}
	// Limits below the floor leave nothing to reclaim, not a negative
	// amount; the view still offers the floor as the VM's minimum.
	if _, err := d.SetLimits(resources.New(0.01, 16, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if got := h.Aggregates().DeflatableReserve; got != (resources.Vector{}) {
		t.Errorf("reserve below the floor = %v, want zero", got)
	}
	if vms, _ := h.AppendDeflatableView(nil, nil); len(vms) != 1 || vms[0].Min != DefaultFloor() {
		t.Errorf("view = %+v, want one VM with Min = DefaultFloor", vms)
	}
}
