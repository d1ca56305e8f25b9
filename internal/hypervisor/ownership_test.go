package hypervisor

import (
	"errors"
	"fmt"
	"testing"

	"vmdeflate/internal/resources"
)

// checkRows audits the row table: every slot is either live, in the
// name order exactly once, or free, on the free list exactly once and
// zero but for its generation; each live row is found under its name at
// its position in the order, which is sorted, and Lookup hands out its
// slot at its generation; each live row's allocation and Deflated
// predicate equal what its size and engaged limits derive; the spare
// capacity past the last row holds no row; and the row undefined
// handles read is still all zeros.
func checkRows(t *testing.T, h *Host, op string) {
	t.Helper()
	if len(h.order)+len(h.free) != len(h.rows) {
		t.Fatalf("after %s: %d ordered and %d free slots in a table of %d", op, len(h.order), len(h.free), len(h.rows))
	}
	seen := make([]bool, len(h.rows))
	for _, slot := range h.free {
		if r := h.rows[slot]; seen[slot] || r != (row{gen: r.gen}) {
			t.Fatalf("after %s: free slot %d is listed twice or holds %+v", op, slot, r)
		}
		seen[slot] = true
	}
	for i, slot := range h.order {
		r := &h.rows[slot]
		if seen[slot] {
			t.Fatalf("after %s: slot %d (%q) is both live and free, or ordered twice", op, slot, r.name)
		}
		seen[slot] = true
		if pos, found := h.find(r.name); !found || pos != i {
			t.Fatalf("after %s: slot %d (%q) is not found at its position %d", op, slot, r.name, i)
		}
		if d, err := h.Lookup(r.name); err != nil || d != (Domain{host: h, slot: slot, gen: r.gen}) {
			t.Fatalf("after %s: Lookup(%q) = %+v, %v; want slot %d at generation %d", op, r.name, d, err, slot, r.gen)
		}
		if i > 0 && h.rows[h.order[i-1]].name >= r.name {
			t.Fatalf("after %s: order not sorted at %q", op, r.name)
		}
		if want := r.derive(); r.alloc != want || r.deflated != (want.DeflationFraction(r.size) > 0) {
			t.Fatalf("after %s: row of %s allocates %v (deflated %v), its size and limits derive %v", op, r.name, r.alloc, r.deflated, want)
		}
	}
	for i, r := range h.rows[len(h.rows):cap(h.rows)] {
		if r != (row{}) {
			t.Fatalf("after %s: spare slot %d still holds %+v", op, len(h.rows)+i, r)
		}
	}
	if undefinedRow != (row{}) {
		t.Fatalf("after %s: the row undefined handles read holds %+v", op, undefinedRow)
	}
}

// limitState is everything a limit write may move on a domain, cgroup
// controller state included.
type limitState struct {
	limits resources.Vector // zero where disengaged
	alloc  resources.Vector
	agg    Aggregates
}

func limitStateOf(d Domain) limitState {
	return limitState{d.row().limits, d.Allocation(), d.Host().Aggregates()}
}

// TestSetLimitsMatchesSingleSetters is a named stream of runDomainOps:
// one running domain whose limits SetLimits (all four controllers) and
// the single setter SetCPUShares rewrite in turn, 300 rounds of
// accepted, zero, negative and NaN components, each write held to the
// model's min(size, engaged limits), its epoch and the host's rows and
// aggregates.
func TestSetLimitsMatchesSingleSetters(t *testing.T) {
	runDomainOps(t, limitRewrites(23, 300), 8)
}

// TestDefineSurfacesGuestError: memory below the guest kernel's 256 MB
// reserve, on which a guest would fail to boot, is refused by Define,
// and the refusal leaves no trace on the host: no row, no name, no
// aggregate moved.
func TestDefineSurfacesGuestError(t *testing.T) {
	h := testHost(t)
	defineRunning(t, h, "a", 4, 8192)
	before := h.Aggregates()

	tiny := DomainConfig{Name: "tiny", Size: resources.New(1, 128, 0, 0)}
	if _, err := h.Define(tiny); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Define with 128 MB: err = %v, want ErrInvalid", err)
	}
	if h.Aggregates() != before || len(h.Domains()) != 1 || len(h.rows) != 1 {
		t.Errorf("failed Define left a trace: %d domains, %d rows", len(h.Domains()), len(h.rows))
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
// define / start / shutdown / undefine cycle allocates the Domain handle
// Define returns and nothing else (its row and limits cost no object of
// their own, and it reuses the slot it freed), and a launch / shutdown /
// undefine cycle, whose handle is a value, allocates nothing.
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
	launch := func() {
		d, err := h.Launch(probe, probe.Size.Scale(0.5))
		if err != nil {
			t.Fatal(err)
		}
		d.Shutdown()
		if err := h.Undefine(probe.Name); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, launch); got != 0 {
		t.Errorf("launch/undefine cycle allocates %.1f objects, want 0", got)
	}
}

// BenchmarkDefineUndefineSteadyState is one VM's life on a populated
// host: define, start, shut down, undefine. `make bench-allocs` requires
// exactly 1 allocs/op, the Domain handle, and at most 16 B/op, its size
// class, so a field that pushes the handle into the next class fails the
// gate even where TestDomainSize's unsafe.Sizeof pin is not run.
func BenchmarkDefineUndefineSteadyState(b *testing.B) {
	h := testHost(b)
	for i := 0; i < 20; i++ {
		defineRunning(b, h, fmt.Sprintf("res-%02d", i), 2, 4096)
	}
	probe := DomainConfig{Name: "probe", Size: resources.New(2, 4096, 0, 0), Deflatable: true, Priority: 0.5}
	cycle := func() {
		d, err := h.Define(probe)
		if err == nil {
			err = d.Start()
		}
		if err == nil {
			err = d.Shutdown()
		}
		if err == nil {
			err = h.Undefine(probe.Name)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	cycle() // warm the row table and the name order
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cycle()
	}
}

// BenchmarkRefreshWalkSteadyState is one write-then-read on a populated
// host: a limit write that moves an allocation (each resident's CPU
// limit alternates between 1 and 1.5 cores from one round of the
// residents to the next), then an Aggregates() walk over its 20
// residents' rows. `make bench-allocs` requires 0 allocs/op; ns/op is
// what every server the manager writes owes its dirty sync.
func BenchmarkRefreshWalkSteadyState(b *testing.B) {
	h := testHost(b)
	doms := make([]Domain, 20)
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
