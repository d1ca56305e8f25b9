package mechanism

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

func newDomain(t *testing.T, cores, memMB float64) *hypervisor.Domain {
	t.Helper()
	h, err := hypervisor.NewHost(hypervisor.HostConfig{
		Name:     "node",
		Capacity: resources.New(64, 262144, 2000, 20000),
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.Define(hypervisor.DomainConfig{
		Name:       "vm",
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

func TestTransparentDeflate(t *testing.T) {
	d := newDomain(t, 8, 16384)
	got, err := Transparent{}.Apply(d, resources.New(4, 8192, 50, 500))
	if err != nil {
		t.Fatal(err)
	}
	want := resources.New(4, 8192, 50, 500)
	if got != want {
		t.Errorf("achieved = %v, want %v", got, want)
	}
	// Guest remains oblivious.
	if d.Guest().OnlineVCPUs() != 8 || d.Guest().PluggedMemoryMB() != 16384 {
		t.Error("transparent deflation must not touch the guest")
	}
	if d.DeflatedBy() != "transparent" {
		t.Errorf("label = %q", d.DeflatedBy())
	}
}

func TestTransparentFractional(t *testing.T) {
	d := newDomain(t, 8, 16384)
	got, err := Transparent{}.Apply(d, resources.New(2.5, 5000, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(resources.CPU) != 2.5 {
		t.Errorf("transparent CPU should be fine-grained: %v", got.Get(resources.CPU))
	}
}

func TestExplicitDeflateRoundsUp(t *testing.T) {
	d := newDomain(t, 8, 16384)
	d.Guest().SetWorkload(2000, 1000)
	got, err := Explicit{}.Apply(d, resources.New(2.5, 8192, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// 2.5 cores rounds up to 3 whole vCPUs.
	if got.Get(resources.CPU) != 3 {
		t.Errorf("explicit CPU = %v, want 3 (round up)", got.Get(resources.CPU))
	}
	if d.Guest().OnlineVCPUs() != 3 {
		t.Errorf("guest online = %d", d.Guest().OnlineVCPUs())
	}
	// Memory moves in 128 MB blocks: 16384 -> 8192 is block-aligned.
	if got.Get(resources.Memory) != 8192 {
		t.Errorf("explicit memory = %v", got.Get(resources.Memory))
	}
}

func TestExplicitRespectsRSS(t *testing.T) {
	d := newDomain(t, 8, 16384)
	d.Guest().SetWorkload(10000, 1000) // RSS 10256
	got, err := Explicit{}.Apply(d, resources.New(8, 4096, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Cannot unplug below RSS: achieved memory stays near RSS, well above
	// the 4096 target.
	if got.Get(resources.Memory) < 10256-128 {
		t.Errorf("explicit went below RSS: %v", got.Get(resources.Memory))
	}
	if d.Guest().SwappedMB() != 0 {
		t.Error("explicit deflation must never swap")
	}
}

func TestExplicitReinflate(t *testing.T) {
	d := newDomain(t, 8, 16384)
	d.Guest().SetWorkload(2000, 0)
	if _, err := (Explicit{}).Apply(d, resources.New(2, 4096, 0, 0)); err != nil {
		t.Fatal(err)
	}
	got, err := Explicit{}.Apply(d, d.MaxSize())
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(resources.CPU) != 8 || got.Get(resources.Memory) != 16384 {
		t.Errorf("reinflated = %v", got)
	}
}

func TestHybridFigure13(t *testing.T) {
	d := newDomain(t, 8, 16384)
	d.Guest().SetWorkload(6000, 2000) // RSS 6256

	got, err := Hybrid{}.Apply(d, resources.New(2.5, 4096, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// CPU: hotplug to ceil(2.5)=3 vCPUs, cgroup takes it to 2.5.
	if d.Guest().OnlineVCPUs() != 3 {
		t.Errorf("guest online vCPUs = %d, want 3", d.Guest().OnlineVCPUs())
	}
	if got.Get(resources.CPU) != 2.5 {
		t.Errorf("effective CPU = %v, want 2.5", got.Get(resources.CPU))
	}
	// Memory: hotplug stops at max(RSS, target) = 6256 (block-rounded),
	// cgroup limit carries allocation to 4096.
	if plugged := d.Guest().PluggedMemoryMB(); plugged < 6256-128 || plugged > 6256+256 {
		t.Errorf("plugged = %v, want ~RSS 6256", plugged)
	}
	if got.Get(resources.Memory) != 4096 {
		t.Errorf("effective memory = %v, want 4096", got.Get(resources.Memory))
	}
	// The portion below RSS is transparent -> swap pressure is non-zero
	// but bounded by the cgroup gap, not the hotplug gap.
	if d.SwapPressure() <= 0 {
		t.Error("hybrid below RSS should show swap pressure")
	}
	if d.DeflatedBy() != "hybrid" {
		t.Errorf("label = %q", d.DeflatedBy())
	}
}

func TestHybridAboveRSSNeverSwaps(t *testing.T) {
	d := newDomain(t, 8, 16384)
	d.Guest().SetWorkload(4000, 2000) // RSS 4256
	got, err := Hybrid{}.Apply(d, resources.New(4, 8192, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(resources.Memory) != 8192 {
		t.Errorf("effective memory = %v", got.Get(resources.Memory))
	}
	if d.SwapPressure() != 0 {
		t.Errorf("target above RSS should not swap: pressure=%v", d.SwapPressure())
	}
	// Guest actually released memory (graceful cache handling).
	if d.Guest().PluggedMemoryMB() >= 16384 {
		t.Error("hybrid should hot-unplug memory above the threshold")
	}
}

func TestHybridReinflate(t *testing.T) {
	d := newDomain(t, 8, 16384)
	d.Guest().SetWorkload(4000, 1000)
	if _, err := (Hybrid{}).Apply(d, resources.New(2, 6144, 50, 500)); err != nil {
		t.Fatal(err)
	}
	got, err := Hybrid{}.Apply(d, d.MaxSize())
	if err != nil {
		t.Fatal(err)
	}
	if got != d.MaxSize() {
		t.Errorf("reinflated = %v, want %v", got, d.MaxSize())
	}
}

func TestClampToMinAllocation(t *testing.T) {
	h, _ := hypervisor.NewHost(hypervisor.HostConfig{
		Name: "n", Capacity: resources.New(64, 262144, 2000, 20000),
	})
	d, err := h.Define(hypervisor.DomainConfig{
		Name: "vm", Size: resources.New(8, 16384, 100, 1000),
		Deflatable: true, Priority: 0.5,
		MinAllocation: resources.New(2, 4096, 10, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	got, err := Transparent{}.Apply(d, resources.New(0.5, 128, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := resources.New(2, 4096, 10, 100)
	if got != want {
		t.Errorf("clamped = %v, want %v", got, want)
	}
}

func TestTargetValidation(t *testing.T) {
	d := newDomain(t, 4, 8192)
	for _, m := range []Mechanism{Transparent{}, Explicit{}, Hybrid{}} {
		if _, err := m.Apply(d, resources.New(-1, 1024, 0, 0)); !errors.Is(err, ErrTarget) {
			t.Errorf("%s: negative target err = %v", m.Name(), err)
		}
	}
}

func TestTargetAboveSizeClamps(t *testing.T) {
	d := newDomain(t, 4, 8192)
	got, err := Transparent{}.Apply(d, resources.New(100, 1<<20, 1e6, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if got != d.MaxSize() {
		t.Errorf("oversized target should clamp to MaxSize: %v", got)
	}
}

func TestDeflateByFraction(t *testing.T) {
	d := newDomain(t, 8, 16384)
	got, err := DeflateByFraction(Transparent{}, d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(resources.CPU) != 4 || got.Get(resources.Memory) != 8192 {
		t.Errorf("half deflation = %v", got)
	}
	if _, err := DeflateByFraction(Transparent{}, d, 1.0); !errors.Is(err, ErrTarget) {
		t.Errorf("full deflation should be rejected: %v", err)
	}
	if _, err := DeflateByFraction(Transparent{}, d, -0.1); !errors.Is(err, ErrTarget) {
		t.Errorf("negative fraction should be rejected: %v", err)
	}
}

func TestTinyTargetKeepsVMAlive(t *testing.T) {
	d := newDomain(t, 8, 16384)
	for _, m := range []Mechanism{Transparent{}, Explicit{}, Hybrid{}} {
		got, err := m.Apply(d, resources.Vector{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if got.Get(resources.CPU) <= 0 || got.Get(resources.Memory) <= 0 {
			t.Errorf("%s: zero target must leave a floor, got %v", m.Name(), got)
		}
		// Reset for next mechanism.
		if _, err := m.Apply(d, d.MaxSize()); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: for any target fraction, every mechanism achieves an
// allocation between the floor and the nominal size, and explicit never
// goes below the target on CPU (round-up semantics).
func TestQuickMechanismBounds(t *testing.T) {
	mechs := []Mechanism{Transparent{}, Explicit{}, Hybrid{}}
	f := func(fracRaw uint8, mi uint8) bool {
		frac := float64(fracRaw%95) / 100
		m := mechs[int(mi)%len(mechs)]
		h, err := hypervisor.NewHost(hypervisor.HostConfig{
			Name: "n", Capacity: resources.New(64, 262144, 2000, 20000),
		})
		if err != nil {
			return false
		}
		d, err := h.Define(hypervisor.DomainConfig{
			Name: "vm", Size: resources.New(8, 16384, 100, 1000),
			Deflatable: true, Priority: 0.5,
		})
		if err != nil {
			return false
		}
		if err := d.Start(); err != nil {
			return false
		}
		d.Guest().SetWorkload(2000, 1000)
		target := d.MaxSize().Scale(1 - frac)
		got, err := m.Apply(d, target)
		if err != nil {
			return false
		}
		if !got.FitsIn(d.MaxSize()) {
			return false
		}
		if got.Get(resources.CPU) < 0.05-1e-9 || got.Get(resources.Memory) < 64-1e-9 {
			return false
		}
		if m.Name() == "explicit" {
			// Explicit CPU never over-deflates.
			if got.Get(resources.CPU) < math.Ceil(target.Get(resources.CPU)-1e-9)-1e-9 &&
				got.Get(resources.CPU) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// applySingleSetters is Apply as it was before the batched
// Domain.SetLimits: the same clamp and hotplug steps, then one
// single-controller setter per positive target dimension, the label,
// and a final allocation read. Kept as the oracle the batched form is
// held to.
func applySingleSetters(m Mechanism, d *hypervisor.Domain, target resources.Vector) (resources.Vector, error) {
	t, err := clampTarget(d, target)
	if err != nil {
		return resources.Vector{}, err
	}
	cpu, mem := t.Get(resources.CPU), t.Get(resources.Memory)
	switch m.Name() {
	case "transparent":
		err = errors.Join(d.SetCPUShares(cpu), d.SetMemoryLimit(mem))
	case "explicit":
		err = errors.Join(applyCPUHotplug(d, cpu), applyMemoryHotplug(d, mem))
	case "hybrid":
		err = errors.Join(applyCPUHotplug(d, cpu), d.SetCPUShares(cpu),
			applyMemoryHotplug(d, math.Max(d.Guest().RSSMB(), mem)), d.SetMemoryLimit(mem))
	}
	if err != nil {
		return resources.Vector{}, err
	}
	if v := t.Get(resources.DiskBW); v > 0 {
		if err := d.SetDiskLimit(v); err != nil {
			return resources.Vector{}, err
		}
	}
	if v := t.Get(resources.NetBW); v > 0 {
		if err := d.SetNetLimit(v); err != nil {
			return resources.Vector{}, err
		}
	}
	d.SetDeflatedBy(m.Name())
	return d.Effective(), nil
}

// TestApplyMatchesSingleSetters drives twin domains through the same
// random deflate / reinflate target sequence — zero disk and network
// components included, which Apply must leave unthrottled — one through
// each mechanism's Apply and one through the single-setter oracle, and
// requires the same achieved allocation, label, guest hotplug state and
// memory-limit penalties after every step.
func TestApplyMatchesSingleSetters(t *testing.T) {
	for _, m := range []Mechanism{Transparent{}, Explicit{}, Hybrid{}} {
		t.Run(m.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			batched, single := newDomain(t, 8, 16384), newDomain(t, 8, 16384)
			for _, d := range []*hypervisor.Domain{batched, single} {
				d.Guest().SetWorkload(3000, 2000)
			}
			for step := 0; step < 400; step++ {
				target := batched.MaxSize().Scale(0.02 + rng.Float64())
				if rng.Intn(2) == 0 {
					target = target.With(resources.DiskBW, 0)
				}
				if rng.Intn(2) == 0 {
					target = target.With(resources.NetBW, 0)
				}
				got, err := m.Apply(batched, target)
				want, werr := applySingleSetters(m, single, target)
				if err != nil || werr != nil {
					t.Fatalf("step %d target %v: Apply err %v, oracle err %v", step, target, err, werr)
				}
				if got != want || batched.Allocation() != single.Allocation() {
					t.Fatalf("step %d target %v: Apply achieved %v (allocation %v), single setters %v (allocation %v)",
						step, target, got, batched.Allocation(), want, single.Allocation())
				}
				if batched.DeflatedBy() != single.DeflatedBy() ||
					batched.SwapPressure() != single.SwapPressure() || batched.CacheLoss() != single.CacheLoss() ||
					batched.Guest().OnlineVCPUs() != single.Guest().OnlineVCPUs() ||
					batched.Guest().PluggedMemoryMB() != single.Guest().PluggedMemoryMB() {
					t.Fatalf("step %d target %v: domain state diverged from the single-setter path", step, target)
				}
			}
		})
	}
}
