package hypervisor

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"vmdeflate/internal/resources"
)

func testHost(t testing.TB) *Host {
	t.Helper()
	h, err := NewHost(HostConfig{
		Name:     "node-0",
		Capacity: resources.New(48, 131072, 1000, 10000),
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func defineRunning(t testing.TB, h *Host, name string, cores, memMB float64) *Domain {
	t.Helper()
	d, err := h.Define(DomainConfig{
		Name:       name,
		Size:       resources.New(cores, memMB, 100, 1000),
		Deflatable: true,
		Priority:   0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	return d
}

// badCapacities are host capacities no server can have: empty, or with
// a negative, NaN or +Inf component. A NaN or +Inf one used to pass the
// `< 0` check and reach the aggregates and index keys.
var badCapacities = map[string]resources.Vector{
	"zero":            {},
	"negative CPU":    resources.New(-1, 1024, 0, 0),
	"NaN CPU":         resources.New(math.NaN(), 1024, 0, 0),
	"+Inf memory":     resources.New(8, math.Inf(1), 0, 0),
	"NaN network":     resources.New(8, 1024, 0, math.NaN()),
	"-Inf disk":       resources.New(8, 1024, math.Inf(-1), 0),
	"+Inf everywhere": resources.New(math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)),
}

func TestNewHostValidation(t *testing.T) {
	if _, err := NewHost(HostConfig{Name: "", Capacity: resources.New(1, 1, 1, 1)}); err == nil {
		t.Error("empty name should fail")
	}
	for name, c := range badCapacities {
		if _, err := NewHost(HostConfig{Name: "h", Capacity: c}); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s capacity %v: err = %v, want ErrInvalid", name, c, err)
		}
	}
}

func TestDefineValidation(t *testing.T) {
	h := testHost(t)
	cases := []DomainConfig{
		{Name: "", Size: resources.New(1, 1024, 0, 0)},
		{Name: "v", Size: resources.New(0, 1024, 0, 0)},
		{Name: "v", Size: resources.New(1, 0, 0, 0)},
		{Name: "v", Size: resources.New(1, 1024, -1, 0)},
		{Name: "v", Size: resources.New(1, 1024, 0, 0), Deflatable: true, Priority: 2},
		{Name: "v", Size: resources.New(1, 1024, 0, 0), Deflatable: true, Priority: math.NaN()},
		// A size with no room above the floor every domain deflates to.
		{Name: "v", Size: DefaultFloor().With(resources.Memory, 1024)},
	}
	for i, cfg := range cases {
		if _, err := h.Define(cfg); err == nil {
			t.Errorf("case %d should fail: %+v", i, cfg)
		}
	}
	// Both ends of [0, 1] are priorities.
	for _, p := range []float64{0, 1} {
		if _, err := h.Define(DomainConfig{Name: fmt.Sprint("p", p), Size: resources.New(1, 1024, 0, 0), Deflatable: true, Priority: p}); err != nil {
			t.Errorf("priority %g: %v", p, err)
		}
	}
}

// TestOfferedLoadRejectsNonFinite covers both doors an offered load
// comes in through: Define refuses a negative or non-finite
// DomainConfig.Load with ErrInvalid, and SetOfferedLoad clamps the same
// values to zero, so no NaN or Inf can reach a latency-aware policy's
// sort keys or the PS model.
func TestOfferedLoadRejectsNonFinite(t *testing.T) {
	h := testHost(t)
	d := defineRunning(t, h, "live", 4, 8192)
	cases := []struct {
		name    string
		load    float64
		invalid bool // Define fails, SetOfferedLoad stores 0
	}{
		{"zero", 0, false},
		{"positive", 2.5, false},
		{"negative", -1, true},
		{"NaN", math.NaN(), true},
		{"+Inf", math.Inf(1), true},
		{"-Inf", math.Inf(-1), true},
	}
	for _, c := range cases {
		_, err := h.Define(DomainConfig{Name: "cfg-" + c.name, Size: resources.New(1, 1024, 0, 0), Load: c.load})
		if c.invalid != errors.Is(err, ErrInvalid) {
			t.Errorf("Define with load %s: err = %v, want ErrInvalid: %v", c.name, err, c.invalid)
		}
		want := c.load
		if c.invalid {
			want = 0
		}
		d.SetOfferedLoad(1) // so a clamp to zero is visible
		d.SetOfferedLoad(c.load)
		if got := d.Config().Load; got != want {
			t.Errorf("SetOfferedLoad(%s): OfferedLoad = %g, want %g", c.name, got, want)
		}
	}
}

func TestLifecycle(t *testing.T) {
	h := testHost(t)
	d, err := h.Define(DomainConfig{Name: "vm-1", Size: resources.New(4, 8192, 100, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	if d.State() != Defined {
		t.Errorf("state = %v", d.State())
	}
	if _, err := h.Define(DomainConfig{Name: "vm-1", Size: resources.New(1, 1024, 0, 0)}); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate define = %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if d.State() != Running {
		t.Errorf("state = %v", d.State())
	}
	if err := d.Start(); !errors.Is(err, ErrState) {
		t.Errorf("double start = %v", err)
	}
	if err := h.Undefine("vm-1"); !errors.Is(err, ErrState) {
		t.Errorf("undefine running = %v", err)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if d.State() != Shutoff {
		t.Errorf("state = %v", d.State())
	}
	if err := d.Shutdown(); !errors.Is(err, ErrState) {
		t.Errorf("double shutdown = %v", err)
	}
	if err := h.Undefine("vm-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Lookup("vm-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup after undefine = %v", err)
	}
	if err := h.Undefine("vm-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double undefine = %v", err)
	}
	// The undefined handle reads zero values and its lifecycle calls fail
	// like libvirt's on an undefined domain.
	if d.Name() != "" || d.State() != Defined || d.Config() != (DomainConfig{}) {
		t.Errorf("undefined handle reads %q, %v, %+v; want zero values", d.Name(), d.State(), d.Config())
	}
	if err := d.Start(); !errors.Is(err, ErrNotFound) {
		t.Errorf("start through an undefined handle = %v, want ErrNotFound", err)
	}
}

func TestStateString(t *testing.T) {
	if Defined.String() != "defined" || Running.String() != "running" || Shutoff.String() != "shut off" {
		t.Error("state names wrong")
	}
}

// TestDomainsSorted is a named stream of runDomainOps: each round
// defines a name between the residents in name order, and the host's
// name order (its rows, view and walks) must stay sorted.
func TestDomainsSorted(t *testing.T) {
	runDomainOps(t, mutatorMix(47, 40), 8)
}

func TestAccountingAndOvercommit(t *testing.T) {
	h := testHost(t)
	// Capacity 48 cores. Define 40+20 cores = 60 committed -> 25% overcommit.
	a := defineRunning(t, h, "a", 40, 65536)
	_ = a
	defineRunning(t, h, "b", 20, 32768)
	c := h.Committed()
	if c.Get(resources.CPU) != 60 {
		t.Errorf("committed CPU = %v", c.Get(resources.CPU))
	}
	if oc := h.Overcommit(); oc < 0.249 || oc > 0.251 {
		t.Errorf("overcommit = %v, want 0.25", oc)
	}
	alloc := h.Allocated()
	if alloc.Get(resources.CPU) != 60 {
		t.Errorf("allocated CPU = %v", alloc.Get(resources.CPU))
	}
	// Available clamps at zero.
	if h.Available().Get(resources.CPU) != 0 {
		t.Errorf("available CPU = %v", h.Available().Get(resources.CPU))
	}
}

func TestOvercommitUnderpacked(t *testing.T) {
	h := testHost(t)
	defineRunning(t, h, "a", 10, 8192)
	if oc := h.Overcommit(); oc != 0 {
		t.Errorf("underpacked overcommit = %v, want 0", oc)
	}
}

// TestTransparentDeflation is a named stream of runDomainOps: every
// mutator against one host, in which each limit write deflates its
// domain to min(size, engaged limits) and a CPU share caps the one
// controller.
func TestTransparentDeflation(t *testing.T) {
	runDomainOps(t, mutatorMix(37, 60), 8)
}

func TestConfigAccessors(t *testing.T) {
	h := testHost(t)
	d, err := h.Define(DomainConfig{
		Name: "vm", Size: resources.New(4, 8192, 100, 1000),
		Deflatable: true, Priority: 0.75, Load: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Config().Deflatable || d.Config().Priority != 0.75 {
		t.Error("deflatable/priority accessors wrong")
	}
	if got := d.Config().Floor(); got != DefaultFloor() {
		t.Errorf("Floor = %v, want DefaultFloor", got)
	}
	// Config carries the live offered load, so a VM re-defined from it
	// (an evacuation) lands under its current load, not its admission one.
	if got := d.Config().Load; got != 1.5 {
		t.Errorf("Config().Load = %g before any load write, want the admission load 1.5", got)
	}
	d.SetOfferedLoad(3)
	if got := d.Config().Load; got != 3 {
		t.Errorf("Config().Load = %g after SetOfferedLoad(3), want 3", got)
	}
	if d.Host() != h {
		t.Error("Host accessor wrong")
	}
	if d.Config().Name != "vm" {
		t.Error("Config accessor wrong")
	}
	if h.Capacity() != resources.New(48, 131072, 1000, 10000) {
		t.Error("Capacity accessor wrong")
	}
	if h.Name() != "node-0" {
		t.Error("Name accessor wrong")
	}
}
