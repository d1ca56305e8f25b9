package hypervisor

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vmdeflate/internal/resources"
)

// TestHostConcurrentMutatorsAndReaders hammers ONE host — one lock —
// from every kind of mutator and reader at once, for the race detector
// (`-race -count=10`): limit writes (single and batched), lifecycle
// flips, define/undefine churn (so row slots are recycled and
// the name order shifts under the readers), capacity resizes and load
// writes, against Aggregates / AppendDeflatableView / Allocation /
// AllocationEpoch / AllocEpoch / State / Domains readers (the epoch never
// runs backwards). The aggregate-change callback bumps a plain
// int: callbacks always run under the host's lock, so the detector
// flags it if one ever does not. When the dust settles the cached
// aggregates and the view must equal the fresh walks.
func TestHostConcurrentMutatorsAndReaders(t *testing.T) {
	h := testHost(t)
	edges := 0
	h.OnAggregateChange(func() { edges++ })

	const residents, rounds = 12, 300
	doms := make([]*Domain, residents)
	for i := range doms {
		doms[i] = defineRunning(t, h, fmt.Sprintf("res-%02d", 2*i), 8, 16384)
	}

	var wg sync.WaitGroup
	var seed int64
	spawn := func(fn func(rng *rand.Rand, r int)) {
		seed++
		seed := seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				fn(rng, r)
			}
		}()
	}
	pick := func(rng *rand.Rand) *Domain { return doms[rng.Intn(len(doms))] }

	spawn(func(rng *rand.Rand, r int) { // limit writes, single and batched
		d, frac := pick(rng), 0.3+0.7*rng.Float64()
		if r%2 == 0 {
			if _, err := d.SetLimits(d.MaxSize().Scale(frac)); err != nil {
				t.Error(err)
			}
		} else if err := d.SetCPUShares(8 * frac); err != nil {
			t.Error(err)
		}
		if r%17 == 0 {
			d.ClearTransparentLimits()
		}
	})
	spawn(func(rng *rand.Rand, r int) { // lifecycle flips on the last resident
		d := doms[residents-1]
		if d.Shutdown() != nil {
			d.Start()
		}
	})
	for w := 0; w < 2; w++ { // define/undefine churn, names interleaving the residents'
		w := w
		spawn(func(rng *rand.Rand, r int) {
			name := fmt.Sprintf("res-%02d", 2*((r+w*5)%residents)+1) + string(rune('a'+w))
			d, err := h.Define(DomainConfig{Name: name, Size: resources.New(2, 4096, 0, 0), Deflatable: r%3 != 0, Priority: 0.5})
			if err != nil {
				t.Error(err)
				return
			}
			if err := d.Start(); err != nil {
				t.Error(err)
			}
			d.SetCPUShares(1)
			if err := d.Shutdown(); err != nil {
				t.Error(err)
			}
			if err := h.Undefine(name); err != nil {
				t.Error(err)
			}
			// The stale handle stays usable and must not reach the slot's
			// next tenant.
			d.SetCPUShares(1.5)
			if got := d.Allocation().Get(resources.CPU); got != 1.5 {
				t.Errorf("undefined %s: allocation CPU = %g, want 1.5", name, got)
			}
		})
	}
	spawn(func(rng *rand.Rand, r int) { // load writes and capacity resizes
		pick(rng).SetOfferedLoad(float64(r % 9))
		if r%5 == 0 {
			if err := h.SetCapacity(h.cfg.Capacity.Scale(0.5 + rng.Float64())); err != nil {
				t.Error(err)
			}
		}
	})
	for w := 0; w < 2; w++ { // readers
		spawn(func(rng *rand.Rand, r int) {
			epoch := h.AllocEpoch()
			agg := h.Aggregates()
			if agg.Running < residents-1 || agg.Deflated > agg.Running {
				t.Errorf("aggregates: running %d (want >= %d), deflated %d", agg.Running, residents-1, agg.Deflated)
			}
			states, view := h.AppendDeflatableView(nil, nil)
			for i, st := range states {
				if st.Name != view[i].Name() || !st.Current.FitsIn(st.Max) {
					t.Errorf("view[%d] = %+v beside domain %s", i, st, view[i].Name())
				}
				if i > 0 && states[i-1].Name >= st.Name {
					t.Errorf("view out of name order: %s before %s", states[i-1].Name, st.Name)
				}
			}
			d := pick(rng)
			if a := d.Allocation(); !a.FitsIn(d.MaxSize()) {
				t.Errorf("%s allocation %v exceeds size", d.Name(), a)
			}
			if a, at := d.AllocationEpoch(); !a.FitsIn(d.MaxSize()) || at < epoch || h.AllocEpoch() < at {
				t.Errorf("%s allocation %v at epoch %d, read between epochs %d and %d", d.Name(), a, at, epoch, h.AllocEpoch())
			}
			d.State()
			if n := len(h.Domains()); n < residents {
				t.Errorf("Domains() lists %d, want >= %d", n, residents)
			}
		})
	}
	wg.Wait()

	checkAggregates(t, h, "concurrent churn")
	checkView(t, h, "concurrent churn")
	checkRows(t, h, "concurrent churn")
	if n := len(h.Domains()); n != residents {
		t.Errorf("%d domains left, want the %d residents", n, residents)
	}
	if edges == 0 {
		t.Error("no aggregate-change edge fired")
	}
	if h.AllocEpoch() == 0 {
		t.Error("no allocation write moved the allocation epoch")
	}
}

// checkRows audits the row table against the domains it describes: every
// live slot is owned by exactly the domain that points at it, and each
// column equals what the domain's own state derives — so a write that
// reached the wrong row (a stale handle into a recycled slot) or missed
// its own cannot hide behind accessors that read the same row.
func checkRows(t *testing.T, h *Host, op string) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.order)+len(h.free) != len(h.rows) {
		t.Fatalf("after %s: %d ordered + %d free slots in a table of %d", op, len(h.order), len(h.free), len(h.rows))
	}
	for i, slot := range h.order {
		r := &h.rows[slot]
		d := r.dom
		if pos, found := h.findLocked(r.name); d == nil || d.slot != slot || pos != i || found != d {
			t.Fatalf("after %s: slot %d (%q) is not owned by the domain it names", op, slot, r.name)
		}
		if i > 0 && h.rows[h.order[i-1]].name >= r.name {
			t.Fatalf("after %s: order not sorted at %q", op, r.name)
		}
		want := row{
			name: d.cfg.Name, size: d.cfg.Size, floor: d.cfg.Floor(), alloc: d.derive(),
			priority: d.cfg.Priority, dom: d, running: d.state == Running, deflatable: d.cfg.Deflatable,
		}
		want.deflated = want.alloc.DeflationFraction(want.size) > 0
		if *r != want {
			t.Fatalf("after %s: row of %s = %+v, domain state derives %+v", op, r.name, *r, want)
		}
	}
	for _, slot := range h.free {
		if h.rows[slot] != (row{}) {
			t.Fatalf("after %s: free slot %d still holds %+v", op, slot, h.rows[slot])
		}
	}
}

// limitState is everything a limit write may move on a domain, cgroup
// controller state included.
type limitState struct {
	limits resources.Vector // zero where disengaged
	alloc  resources.Vector
	agg    Aggregates
}

func limitStateOf(d *Domain) limitState {
	return limitState{limitsOf(d), d.Allocation(), d.Host().Aggregates()}
}

// TestSetLimitsMatchesSingleSetters holds the batched write to the path
// it replaced in the mechanisms: for random targets — zero disk and
// network components included, on domains with and without I/O
// dimensions — SetLimits(target)
// must leave the same cgroup limits, engaged controllers, allocation and
// host aggregates as SetCPUShares + SetMemoryLimit + the I/O setters for
// positive components, and return that allocation.
func TestSetLimitsMatchesSingleSetters(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	hb, hs := testHost(t), testHost(t)
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("vm-%03d", i)
		size := resources.New(float64(1+rng.Intn(8)), float64(1024*(1+rng.Intn(8))), 0, 0)
		if i%2 == 0 {
			size = size.With(resources.DiskBW, 100).With(resources.NetBW, 1000)
		}
		cfg := DomainConfig{Name: name, Size: size, Deflatable: true, Priority: 0.5}
		var pair [2]*Domain
		for j, h := range []*Host{hb, hs} {
			d, err := h.Define(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			pair[j] = d
		}
		batched, single := pair[0], pair[1]
		for round := 0; round < 3; round++ {
			target := size.Scale(0.2 + 0.8*rng.Float64())
			if rng.Intn(2) == 0 {
				target = target.With(resources.DiskBW, 0)
			}
			if rng.Intn(2) == 0 {
				target = target.With(resources.NetBW, 0)
			}

			got, err := batched.SetLimits(target)
			if err != nil {
				t.Fatal(err)
			}
			if err := single.SetCPUShares(target.Get(resources.CPU)); err != nil {
				t.Fatal(err)
			}
			if err := single.SetMemoryLimit(target.Get(resources.Memory)); err != nil {
				t.Fatal(err)
			}
			if v := target.Get(resources.DiskBW); v > 0 {
				if err := single.SetDiskLimit(v); err != nil {
					t.Fatal(err)
				}
			}
			if v := target.Get(resources.NetBW); v > 0 {
				if err := single.SetNetLimit(v); err != nil {
					t.Fatal(err)
				}
			}

			b, s := limitStateOf(batched), limitStateOf(single)
			if b != s {
				t.Fatalf("%s target %v: batched left %+v, single setters %+v", name, target, b, s)
			}
			if got != s.alloc {
				t.Fatalf("%s target %v: SetLimits returned %v, allocation is %v", name, target, got, s.alloc)
			}
		}
	}

	// An all-zero vector engages nothing; a negative component rejects
	// the write whole.
	d := defineRunning(t, testHost(t), "vm", 4, 8192)
	d.Host().Aggregates() // clean cache: a mutation would fire the edge
	fires := 0
	d.Host().OnAggregateChange(func() { fires++ })
	got, err := d.SetLimits(resources.Vector{})
	if err != nil || got != d.MaxSize() || fires != 0 {
		t.Errorf("zero limits: alloc %v, err %v, %d edges", got, err, fires)
	}
	if l := limitsOf(d); l != (resources.Vector{}) {
		t.Errorf("zero limits engaged a controller: %v", l)
	}
	before := limitStateOf(d)
	if _, err := d.SetLimits(resources.New(2, -1, 0, 0)); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative limit err = %v", err)
	}
	if after := limitStateOf(d); after != before {
		t.Errorf("rejected write moved state: %+v -> %+v", before, after)
	}
}

// TestDefineSurfacesGuestError: memory below the guest kernel's 256 MB
// reserve, on which a guest would fail to boot, is refused by Define,
// and the refusal leaves no trace on the host: no row, no name, no
// invalidation.
func TestDefineSurfacesGuestError(t *testing.T) {
	h := testHost(t)
	defineRunning(t, h, "a", 4, 8192)
	before := h.Aggregates()
	fires := 0
	h.OnAggregateChange(func() { fires++ })

	tiny := DomainConfig{Name: "tiny", Size: resources.New(1, 128, 0, 0)}
	if _, err := h.Define(tiny); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Define with 128 MB: err = %v, want ErrInvalid", err)
	}
	if fires != 0 || h.Aggregates() != before || len(h.Domains()) != 1 || len(h.rows) != 1 {
		t.Errorf("failed Define left a trace: %d edges, %d domains, %d rows", fires, len(h.Domains()), len(h.rows))
	}
	if _, err := h.Lookup("tiny"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Lookup after failed Define: err = %v", err)
	}
	tiny.Size = resources.New(1, 512, 0, 0)
	if _, err := h.Define(tiny); err != nil {
		t.Errorf("the name of a failed Define is not reusable: %v", err)
	}
}

// TestDefineAllocatesOnce pins the layout: in steady state a
// define / start / shutdown / undefine cycle allocates the Domain and
// nothing else (its limits and row cost no object of their own).
func TestDefineAllocatesOnce(t *testing.T) {
	h := testHost(t)
	for i := 0; i < 8; i++ {
		defineRunning(t, h, fmt.Sprintf("res-%d", i), 2, 4096)
	}
	probe := DomainConfig{Name: "probe", Size: resources.New(2, 4096, 0, 0), Deflatable: true, Priority: 0.5}
	cycle := func() {
		d, err := h.Define(probe)
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		d.Shutdown()
		if err := h.Undefine(probe.Name); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the row table and the name order
	if got := testing.AllocsPerRun(200, cycle); got != 1 {
		t.Errorf("define/undefine cycle allocates %.1f objects, want 1 (the Domain)", got)
	}
}

// BenchmarkRefreshWalkSteadyState is one dirty episode on a populated
// host: a limit write that moves an allocation (each resident's CPU
// limit alternates between 1 and 1.5 cores from one round of the
// residents to the next) invalidates, the next Aggregates() re-derives
// the host over its 20 residents' rows. `make bench-allocs` requires
// 0 allocs/op; ns/op is what every mutated server owes the cluster's
// dirty sync.
func BenchmarkRefreshWalkSteadyState(b *testing.B) {
	h := testHost(b)
	doms := make([]*Domain, 20)
	for i := range doms {
		doms[i] = defineRunning(b, h, fmt.Sprintf("vm-%02d", i), 2, 4096)
	}
	running := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := doms[n%len(doms)].SetCPUShares(1 + float64(n/len(doms)%2)/2); err != nil {
			b.Fatal(err)
		}
		running += h.Aggregates().Running
	}
	b.StopTimer()
	if running != b.N*len(doms) || h.AllocEpoch() != uint64(b.N) || h.Aggregates() != freshAggregates(h) {
		b.Fatalf("refresh walk lost residents: %d running over %d walks", running, b.N)
	}
}
