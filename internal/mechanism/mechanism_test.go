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
	for _, m := range []Mechanism{Transparent{}, Hybrid{}} {
		if _, err := m.Apply(d, resources.New(-1, 1024, 0, 0)); !errors.Is(err, ErrTarget) {
			t.Errorf("%s: negative target err = %v", m.Name(), err)
		}
	}
}

// TestNaNTargetRejected: a target with a NaN component used to pass the
// clamp (NaN fails every comparison) and the limit write (which read it
// as "leave this controller as it is"): Transparent returned a nil error
// with the CPU untouched, and Hybrid, rounding NaN cores, hot-unplugged
// the guest to one vCPU. Both now refuse the target before any write.
func TestNaNTargetRejected(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		m      Mechanism
		target resources.Vector
	}{
		{Transparent{}, resources.New(nan, 8192, 50, 500)},
		{Hybrid{}, resources.New(nan, 8192, 50, 500)},
		{Transparent{}, resources.New(4, nan, 50, 500)},
		{Hybrid{}, resources.New(4, 8192, 50, nan)},
	} {
		d := newDomain(t, 8, 16384)
		before, online := d.Allocation(), d.Guest().OnlineVCPUs()
		if _, err := tc.m.Apply(d, tc.target); !errors.Is(err, ErrTarget) {
			t.Errorf("%s target %v: err = %v, want ErrTarget", tc.m.Name(), tc.target, err)
		}
		if got := d.Allocation(); got != before || d.Guest().OnlineVCPUs() != online {
			t.Errorf("%s target %v: a refused target moved the allocation %v -> %v, vCPUs %d -> %d",
				tc.m.Name(), tc.target, before, got, online, d.Guest().OnlineVCPUs())
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
	for _, m := range []Mechanism{Transparent{}, Hybrid{}} {
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
// allocation between the floor and the nominal size, and the hybrid's
// hotplug leg never takes the guest below the target's whole vCPUs
// (round-up semantics).
func TestQuickMechanismBounds(t *testing.T) {
	mechs := []Mechanism{Transparent{}, Hybrid{}}
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
		if m.Name() == "hybrid" {
			// Hotplug rounds the vCPU count up, never below one.
			want := math.Max(1, math.Ceil(got.Get(resources.CPU)-1e-9))
			if float64(d.Guest().OnlineVCPUs()) != want {
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
// single-controller write per positive target dimension and a final
// allocation read. Kept as the oracle the batched form is held to.
func applySingleSetters(m Mechanism, d *hypervisor.Domain, target resources.Vector) (resources.Vector, error) {
	t, err := clampTarget(d, target)
	if err != nil {
		return resources.Vector{}, err
	}
	cpu, mem := t.Get(resources.CPU), t.Get(resources.Memory)
	switch m.Name() {
	case "transparent":
		err = errors.Join(d.SetCPUShares(cpu), setOne(d, resources.Memory, mem))
	case "hybrid":
		err = errors.Join(applyCPUHotplug(d, cpu), d.SetCPUShares(cpu),
			applyMemoryHotplug(d, math.Max(d.Guest().RSSMB(), mem)), setOne(d, resources.Memory, mem))
	}
	if err != nil {
		return resources.Vector{}, err
	}
	for _, k := range []resources.Kind{resources.DiskBW, resources.NetBW} {
		if v := t.Get(k); v > 0 {
			if err := setOne(d, k, v); err != nil {
				return resources.Vector{}, err
			}
		}
	}
	return d.Allocation(), nil
}

// setOne engages the one cgroup controller k at v.
func setOne(d *hypervisor.Domain, k resources.Kind, v float64) error {
	_, err := d.SetLimits(resources.Vector{}.With(k, v))
	return err
}

// TestApplyMatchesSingleSetters drives twin domains through the same
// random deflate / reinflate target sequence — zero disk and network
// components included, which Apply must leave unthrottled — one through
// each mechanism's Apply and one through the single-setter oracle, and
// requires the same achieved allocation, guest hotplug state and
// memory-limit penalties after every step.
func TestApplyMatchesSingleSetters(t *testing.T) {
	for _, m := range []Mechanism{Transparent{}, Hybrid{}} {
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
				if batched.SwapPressure() != single.SwapPressure() || batched.CacheLoss() != single.CacheLoss() ||
					batched.Guest().OnlineVCPUs() != single.Guest().OnlineVCPUs() ||
					batched.Guest().PluggedMemoryMB() != single.Guest().PluggedMemoryMB() {
					t.Fatalf("step %d target %v: domain state diverged from the single-setter path", step, target)
				}
			}
		})
	}
}
