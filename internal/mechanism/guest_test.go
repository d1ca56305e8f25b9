package mechanism

import (
	"errors"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

// The guest booted beside a domain: what hotplug does to the allocation,
// when the guest agent refuses, and the swap and cache-loss reads at the
// domain's memory allocation.

// TestExplicitDeflation: hybrid deflation above the RSS threshold is all
// hotplug — the guest offlines whole vCPUs and unplugs whole blocks, the
// allocation follows — and a reinflation plugs everything back.
func TestExplicitDeflation(t *testing.T) {
	d, g := newDomain(t, 8, 16384)
	g.SetWorkload(4000, 2000)

	got, err := Hybrid{}.Apply(d, g, d.MaxSize().With(resources.CPU, 5).With(resources.Memory, 16384-4096))
	if err != nil {
		t.Fatal(err)
	}
	if g.OnlineVCPUs() != 5 || g.PluggedMemoryMB() != 16384-4096 {
		t.Errorf("guest has %d vCPUs and %v MB plugged, want 5 and %v", g.OnlineVCPUs(), g.PluggedMemoryMB(), 16384-4096)
	}
	if want := resources.New(5, 16384-4096, 100, 1000); got != want || d.Allocation() != want {
		t.Errorf("achieved %v, allocation %v, want %v", got, d.Allocation(), want)
	}
	got, err = Hybrid{}.Apply(d, g, d.MaxSize())
	if err != nil {
		t.Fatal(err)
	}
	if got != d.MaxSize() || g.OnlineVCPUs() != 8 || g.PluggedMemoryMB() != 16384 {
		t.Errorf("after reinflate: achieved %v, guest %d vCPUs / %v MB", got, g.OnlineVCPUs(), g.PluggedMemoryMB())
	}
}

// TestHotplugRequiresRunning: the guest agent answers only a running
// domain, so a hybrid apply that needs any of the four hotplug steps on
// a domain that is not running fails with hypervisor.ErrState and moves
// nothing; one that needs no hotplug step is a limit write and succeeds.
func TestHotplugRequiresRunning(t *testing.T) {
	size := resources.New(4, 8192, 0, 0)
	for _, tc := range []struct {
		name         string
		down, target resources.Vector // down, if set, applies while running
	}{
		{"unplug vCPUs", resources.Vector{}, size.With(resources.CPU, 3)},
		{"plug vCPUs", size.With(resources.CPU, 3), size},
		{"unplug memory", resources.Vector{}, size.With(resources.Memory, 8192-128)},
		{"plug memory", size.With(resources.Memory, 8192-128), size},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, g, err := defineWithGuest(hypervisor.DomainConfig{Name: "vm", Size: size}, true)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.down.IsZero() {
				if _, err := (Hybrid{}).Apply(d, g, tc.down); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Shutdown(); err != nil {
				t.Fatal(err)
			}
			before, on, mb := d.Allocation(), g.OnlineVCPUs(), g.PluggedMemoryMB()
			if _, err := (Hybrid{}).Apply(d, g, tc.target); !errors.Is(err, hypervisor.ErrState) {
				t.Errorf("hybrid on a shut-off domain: err = %v, want ErrState", err)
			}
			if d.Allocation() != before || g.OnlineVCPUs() != on || g.PluggedMemoryMB() != mb {
				t.Errorf("a refused hotplug moved the domain or its guest")
			}
		})
	}
	d, g, err := defineWithGuest(hypervisor.DomainConfig{Name: "vm", Size: size}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := (Hybrid{}).Apply(d, g, size.With(resources.CPU, 3.5)); err != nil || got != size.With(resources.CPU, 3.5) {
		t.Errorf("hybrid needing no hotplug on a defined domain: %v, %v", got, err)
	}
}

// TestSwapPressureAndCacheLoss: a transparent memory limit below the
// guest's RSS shows as swap pressure, and one between RSS and RSS plus
// cache as page-cache loss, both read at the domain's memory allocation.
func TestSwapPressureAndCacheLoss(t *testing.T) {
	d, g := newDomain(t, 4, 8192)
	g.SetWorkload(4000, 2000) // RSS 4256, cache 2000
	if got := g.SwapPressure(memOf(d)); got != 0 {
		t.Errorf("no limit: swap pressure = %v", got)
	}
	if _, err := (Transparent{}).Apply(d, g, d.MaxSize().With(resources.Memory, 2128)); err != nil { // half of RSS
		t.Fatal(err)
	}
	if got := g.SwapPressure(memOf(d)); got < 0.49 || got > 0.51 {
		t.Errorf("swap pressure = %v, want ~0.5", got)
	}
	if _, err := (Transparent{}).Apply(d, g, d.MaxSize().With(resources.Memory, 5256)); err != nil { // RSS + half cache
		t.Fatal(err)
	}
	if got := g.CacheLoss(memOf(d)); got < 0.49 || got > 0.51 {
		t.Errorf("cache loss = %v, want ~0.5", got)
	}
}

// TestCombinedTransparentAndExplicit: hotplug away 4 vCPUs, cap the
// remaining 4 at 2.5 cores; raising the cgroup limit above what the
// guest has online does not inflate the VM.
func TestCombinedTransparentAndExplicit(t *testing.T) {
	d, g := newDomain(t, 8, 16384)
	if _, err := (Hybrid{}).Apply(d, g, d.MaxSize().With(resources.CPU, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := (Transparent{}).Apply(d, g, d.MaxSize().With(resources.CPU, 2.5)); err != nil {
		t.Fatal(err)
	}
	if got := d.Allocation().Get(resources.CPU); got != 2.5 {
		t.Errorf("effective CPU = %v, want 2.5", got)
	}
	if _, err := (Transparent{}).Apply(d, g, d.MaxSize().With(resources.CPU, 6)); err != nil {
		t.Fatal(err)
	}
	if got := d.Allocation().Get(resources.CPU); got != 4 {
		t.Errorf("effective CPU = %v, want 4 (online)", got)
	}
}

// TestHybridNeedsItsGuest: hybrid deflation hotplugs through the guest,
// so a VM without one is refused and moves nothing.
func TestHybridNeedsItsGuest(t *testing.T) {
	d, _ := newDomain(t, 4, 8192)
	if _, err := (Hybrid{}).Apply(d, nil, d.MaxSize().Scale(0.5)); err == nil {
		t.Error("hybrid without a guest: nil error")
	}
	if d.Allocation() != d.MaxSize() {
		t.Errorf("a refused apply moved the allocation to %v", d.Allocation())
	}
}
