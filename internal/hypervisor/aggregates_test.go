package hypervisor

import (
	"fmt"
	"math/rand"
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

func checkAggregates(t *testing.T, h *Host, op string) {
	t.Helper()
	got, want := h.Aggregates(), freshAggregates(h)
	if got != want {
		t.Fatalf("after %s: row-table aggregates diverged from fresh recompute:\n got %+v\nwant %+v", op, got, want)
	}
}

// hostChurn drives one host through a long randomized define / start /
// limit / clear / shutdown / undefine / resize sequence, with
// offered-load writes throughout, and calls check after every operation.
// Around each operation it holds the allocation epoch to checkEpoch, and
// check, checkRows and their Aggregates / AppendDeflatableView reads must
// leave the epoch where they found it.
// It exercises what the host's row table adds over a plain sorted list:
// names are drawn out of order, so most defines insert mid-order; most
// undefines move the table's last row into the freed slot, re-pointing a
// survivor whose name sorts anywhere; a share of defines re-use a
// previously undefined name; limit writes go through the single setters, the
// one-domain SetLimits and the host's batched write (which must move the
// epoch by at most one) alike; and SetCapacity is interleaved.
func hostChurn(t *testing.T, seed int64, check func(t *testing.T, h *Host, op string)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := testHost(t)
	base := h.Capacity()
	var live, retired []string
	isLive := map[string]bool{}
	moves := 0

	for op := 0; op < 3000; op++ {
		var opName string
		// allocWrite marks the ops that may move an allocation: the only
		// ones allowed to move the host's allocation epoch.
		allocWrite := false
		epoch, before := h.AllocEpoch(), allocations(h)
		switch k := rng.Intn(13); {
		case k >= 11 && len(live) > 0: // offered-load write, any lifecycle state
			name := live[rng.Intn(len(live))]
			d, err := h.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			d.SetOfferedLoad(8 * rng.Float64())
			opName = "load " + name
		case k == 10: // the provider resizes the server under its residents
			if err := h.SetCapacity(base.Scale(0.5 + rng.Float64())); err != nil {
				t.Fatal(err)
			}
			opName = "resize"
		case k <= 2 || len(live) == 0: // define + maybe start
			var name string
			if len(retired) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(retired))
				name = retired[i]
				retired = append(retired[:i], retired[i+1:]...)
			}
			for name == "" || isLive[name] {
				name = fmt.Sprintf("vm-%04d", rng.Intn(10000))
			}
			cfg := DomainConfig{
				Name:       name,
				Size:       resources.New(float64(1+rng.Intn(16)), float64(1024*(1+rng.Intn(16))), 0, 0),
				Deflatable: rng.Intn(3) != 0,
				Priority:   0.25 * float64(1+rng.Intn(4)),
				Load:       float64(rng.Intn(3)),
			}
			if rng.Intn(4) == 0 { // the smallest domain Validate admits
				cfg.Size = resources.New(1, reserveMB, 0, 0)
			}
			d, err := h.Define(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(5) != 0 {
				if err := d.Start(); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live, name)
			isLive[name] = true
			opName = "define " + name
		case k <= 7: // transparent limit change / clear
			name := live[rng.Intn(len(live))]
			d, err := h.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			frac := 0.3 + 0.7*rng.Float64()
			if rng.Intn(8) == 0 {
				// Below DefaultFloor on the smallest domains: their
				// reserve terms clamp at zero.
				frac = 0.01
			}
			allocWrite = true
			switch rng.Intn(6) {
			case 0:
				d.ClearTransparentLimits()
				opName = "clear " + name
			case 1, 2:
				if _, err := d.SetLimits(d.MaxSize().Scale(frac)); err != nil {
					t.Fatal(err)
				}
				opName = "limits " + name
			case 5: // one pass's write over several residents, repeats allowed
				doms := []*Domain{d}
				for len(doms) < 1+rng.Intn(5) {
					o, err := h.Lookup(live[rng.Intn(len(live))])
					if err != nil {
						t.Fatal(err)
					}
					doms = append(doms, o)
				}
				lims := make([]resources.Vector, len(doms))
				for i, o := range doms {
					lims[i] = o.MaxSize().Scale(0.3 + 0.7*rng.Float64())
				}
				if err := h.SetLimits(doms, lims); err != nil {
					t.Fatal(err)
				}
				if h.AllocEpoch() > epoch+1 {
					t.Fatalf("a batched write of %d domains moved the epoch %d -> %d", len(doms), epoch, h.AllocEpoch())
				}
				opName = fmt.Sprintf("batched limits %s+%d", name, len(doms)-1)
			default:
				d.SetCPUShares(d.MaxSize().Get(resources.CPU) * frac)
				d.SetMemoryLimit(d.MaxSize().Get(resources.Memory) * frac)
				opName = "limit " + name
			}
		case k == 8: // lifecycle flip
			name := live[rng.Intn(len(live))]
			d, err := h.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if d.State() == Running {
				d.Shutdown()
			} else {
				d.Start()
			}
			opName = "flip " + name
		default: // undefine (stopping first if needed)
			i := rng.Intn(len(live))
			name := live[i]
			d, err := h.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if d.State() == Running {
				d.Shutdown()
			}
			if int(d.slot) != len(h.rows)-1 {
				moves++
			}
			if err := h.Undefine(name); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			delete(isLive, name)
			retired = append(retired, name)
			opName = "undefine " + name
		}
		checkEpoch(t, h, opName, allocWrite, epoch, before)
		epoch = h.AllocEpoch()
		check(t, h, opName)
		checkRows(t, h, opName)
		if h.AllocEpoch() != epoch {
			t.Fatalf("after %s: a read moved the allocation epoch %d -> %d", opName, epoch, h.AllocEpoch())
		}
	}
	// The table has no holes: one row per resident, whatever the churn.
	if len(h.rows) != len(live) || len(h.order) != len(live) {
		t.Errorf("row table: %d rows, %d ordered, want the %d residents", len(h.rows), len(h.order), len(live))
	}
	if moves == 0 {
		t.Error("churn never undefined a resident short of the table's last row")
	}
}

// allocations snapshots every resident's allocation.
func allocations(h *Host) map[*Domain]resources.Vector {
	out := map[*Domain]resources.Vector{}
	for _, d := range h.Domains() {
		out[d] = d.Allocation()
	}
	return out
}

// checkEpoch is the allocation-epoch property behind every cache keyed
// on it: an op that moved any resident's allocation moved the host's
// epoch, and an op that writes no allocation (an offered-load write, a
// resize, a lifecycle change, a define or undefine) left it alone.
func checkEpoch(t *testing.T, h *Host, op string, allocWrite bool, epoch uint64, before map[*Domain]resources.Vector) {
	t.Helper()
	now := h.AllocEpoch()
	if !allocWrite && now != epoch {
		t.Fatalf("after %s: the allocation epoch moved %d -> %d, but no allocation was written", op, epoch, now)
	}
	if now != epoch {
		return
	}
	for d, a := range before {
		if got := d.Allocation(); got != a {
			t.Fatalf("after %s: %s allocation moved %v -> %v at an unmoved epoch %d", op, d.Name(), a, got, epoch)
		}
	}
}

// TestAggregatesMatchFreshRecompute: after every operation of the
// hostChurn sequence, the row-table walk's aggregates must equal a fresh
// name-order recomputation through the public accessors exactly — the
// invariant that lets the cluster layer's cached sync and the oracles'
// fresh reads agree bit for bit.
func TestAggregatesMatchFreshRecompute(t *testing.T) {
	hostChurn(t, 7, checkAggregates)
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
