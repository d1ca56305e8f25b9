package hypervisor

import (
	"errors"
	"fmt"
	"testing"

	"vmdeflate/internal/resources"
)

// checkRows audits the row table against the domains it describes: the
// table is dense, every slot is owned by exactly the domain that points
// at it, each column equals what the domain's own state derives — so a
// write that reached the wrong row (a moved row whose domain was not
// re-pointed, or a stale handle) or missed its own cannot hide behind
// accessors that read the same row — and the spare capacity past the
// last row holds no row a departed resident left behind.
func checkRows(t *testing.T, h *Host, op string) {
	t.Helper()
	if len(h.order) != len(h.rows) {
		t.Fatalf("after %s: %d ordered slots in a table of %d", op, len(h.order), len(h.rows))
	}
	for i, slot := range h.order {
		r := &h.rows[slot]
		d := r.dom
		if pos, found := h.find(r.name); d == nil || d.slot != slot || pos != i || found != d {
			t.Fatalf("after %s: slot %d (%q) is not owned by the domain it names", op, slot, r.name)
		}
		if i > 0 && h.rows[h.order[i-1]].name >= r.name {
			t.Fatalf("after %s: order not sorted at %q", op, r.name)
		}
		want := row{
			name: d.cfg.Name, size: d.cfg.Size, alloc: d.derive(),
			priority: d.cfg.Priority, dom: d, running: d.state == Running, deflatable: d.cfg.Deflatable,
		}
		want.deflated = want.alloc.DeflationFraction(want.size) > 0
		if *r != want {
			t.Fatalf("after %s: row of %s = %+v, domain state derives %+v", op, r.name, *r, want)
		}
	}
	for i, r := range h.rows[len(h.rows):cap(h.rows)] {
		if r != (row{}) {
			t.Fatalf("after %s: spare slot %d still holds %+v", op, len(h.rows)+i, r)
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
	return limitState{d.limits, d.Allocation(), d.Host().Aggregates()}
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

// BenchmarkDefineUndefineSteadyState is one VM's life on a populated
// host: define, start, shut down, undefine. `make bench-allocs` requires
// exactly 1 allocs/op, the Domain, and at most 128 B/op, its size class,
// so a field that pushes the Domain into the next class fails the gate
// even where TestDomainSize's unsafe.Sizeof pin is not run.
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
