package mechanism

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmdeflate/internal/guestos"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

// newDomain defines and starts a deflatable domain on a host of its own
// and boots its guest beside it.
func newDomain(t testing.TB, cores, memMB float64) (*hypervisor.Domain, *guestos.GuestOS) {
	t.Helper()
	d, g, err := defineWithGuest(hypervisor.DomainConfig{
		Name:       "vm",
		Size:       resources.New(cores, memMB, 100, 1000),
		Deflatable: true,
		Priority:   0.5,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	return d, g
}

// defineWithGuest defines cfg on a fresh host, starts it if start, and
// boots its guest with ceil(size) vCPUs and all of its memory plugged.
func defineWithGuest(cfg hypervisor.DomainConfig, start bool) (*hypervisor.Domain, *guestos.GuestOS, error) {
	h, err := hypervisor.NewHost(hypervisor.HostConfig{
		Name:     "node",
		Capacity: resources.New(64, 262144, 2000, 20000),
	})
	if err != nil {
		return nil, nil, err
	}
	d, err := h.Define(cfg)
	if err != nil {
		return nil, nil, err
	}
	if start {
		if err := d.Start(); err != nil {
			return nil, nil, err
		}
	}
	g := new(guestos.GuestOS)
	err = g.Boot(guestos.Config{
		VCPUs:    int(math.Ceil(cfg.Size.Get(resources.CPU))),
		MemoryMB: cfg.Size.Get(resources.Memory),
	})
	return d, g, err
}

// memOf is the memory component of the domain's allocation: where the
// swap and cache-loss reads are taken.
func memOf(d *hypervisor.Domain) float64 { return d.Allocation().Get(resources.Memory) }

func TestTransparentDeflate(t *testing.T) {
	d, g := newDomain(t, 8, 16384)
	got, err := Transparent{}.Apply(d, g, resources.New(4, 8192, 50, 500))
	if err != nil {
		t.Fatal(err)
	}
	want := resources.New(4, 8192, 50, 500)
	if got != want {
		t.Errorf("achieved = %v, want %v", got, want)
	}
	// Guest remains oblivious.
	if g.OnlineVCPUs() != 8 || g.PluggedMemoryMB() != 16384 {
		t.Error("transparent deflation must not touch the guest")
	}
}

func TestTransparentFractional(t *testing.T) {
	d, g := newDomain(t, 8, 16384)
	got, err := Transparent{}.Apply(d, g, resources.New(2.5, 5000, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(resources.CPU) != 2.5 {
		t.Errorf("transparent CPU should be fine-grained: %v", got.Get(resources.CPU))
	}
}

func TestHybridFigure13(t *testing.T) {
	d, g := newDomain(t, 8, 16384)
	g.SetWorkload(6000, 2000) // RSS 6256

	got, err := Hybrid{}.Apply(d, g, resources.New(2.5, 4096, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// CPU: hotplug to ceil(2.5)=3 vCPUs, cgroup takes it to 2.5.
	if g.OnlineVCPUs() != 3 {
		t.Errorf("guest online vCPUs = %d, want 3", g.OnlineVCPUs())
	}
	if got.Get(resources.CPU) != 2.5 {
		t.Errorf("effective CPU = %v, want 2.5", got.Get(resources.CPU))
	}
	// Memory: hotplug stops at max(RSS, target) = 6256 (block-rounded),
	// cgroup limit carries allocation to 4096.
	if plugged := g.PluggedMemoryMB(); plugged < 6256-128 || plugged > 6256+256 {
		t.Errorf("plugged = %v, want ~RSS 6256", plugged)
	}
	if got.Get(resources.Memory) != 4096 {
		t.Errorf("effective memory = %v, want 4096", got.Get(resources.Memory))
	}
	// The portion below RSS is transparent -> swap pressure is non-zero
	// but bounded by the cgroup gap, not the hotplug gap.
	if g.SwapPressure(memOf(d)) <= 0 {
		t.Error("hybrid below RSS should show swap pressure")
	}
}

func TestHybridAboveRSSNeverSwaps(t *testing.T) {
	d, g := newDomain(t, 8, 16384)
	g.SetWorkload(4000, 2000) // RSS 4256
	got, err := Hybrid{}.Apply(d, g, resources.New(4, 8192, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(resources.Memory) != 8192 {
		t.Errorf("effective memory = %v", got.Get(resources.Memory))
	}
	if g.SwapPressure(memOf(d)) != 0 {
		t.Errorf("target above RSS should not swap: pressure=%v", g.SwapPressure(memOf(d)))
	}
	// Guest actually released memory (graceful cache handling).
	if g.PluggedMemoryMB() >= 16384 {
		t.Error("hybrid should hot-unplug memory above the threshold")
	}
}

func TestHybridReinflate(t *testing.T) {
	d, g := newDomain(t, 8, 16384)
	g.SetWorkload(4000, 1000)
	if _, err := (Hybrid{}).Apply(d, g, resources.New(2, 6144, 50, 500)); err != nil {
		t.Fatal(err)
	}
	got, err := Hybrid{}.Apply(d, g, d.MaxSize())
	if err != nil {
		t.Fatal(err)
	}
	if got != d.MaxSize() {
		t.Errorf("reinflated = %v, want %v", got, d.MaxSize())
	}
}

// TestClampToDefaultFloor: a target below the mechanism floor lands on
// hypervisor.DefaultFloor's CPU and memory, the floor of every VM, and
// keeps its own disk and network components, where the floor is zero.
func TestClampToDefaultFloor(t *testing.T) {
	d, g, err := defineWithGuest(hypervisor.DomainConfig{
		Name: "vm", Size: resources.New(8, 16384, 100, 1000),
		Deflatable: true, Priority: 0.5,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Transparent{}.Apply(d, g, resources.New(0.01, 16, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := hypervisor.DefaultFloor().Add(resources.New(0, 0, 1, 1))
	if got != want {
		t.Errorf("clamped = %v, want %v", got, want)
	}
}

func TestTargetValidation(t *testing.T) {
	d, g := newDomain(t, 4, 8192)
	for _, m := range []Mechanism{Transparent{}, Hybrid{}} {
		if _, err := m.Apply(d, g, resources.New(-1, 1024, 0, 0)); !errors.Is(err, ErrTarget) {
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
		d, g := newDomain(t, 8, 16384)
		before, online := d.Allocation(), g.OnlineVCPUs()
		if _, err := tc.m.Apply(d, g, tc.target); !errors.Is(err, ErrTarget) {
			t.Errorf("%s target %v: err = %v, want ErrTarget", tc.m.Name(), tc.target, err)
		}
		if got := d.Allocation(); got != before || g.OnlineVCPUs() != online {
			t.Errorf("%s target %v: a refused target moved the allocation %v -> %v, vCPUs %d -> %d",
				tc.m.Name(), tc.target, before, got, online, g.OnlineVCPUs())
		}
	}
}

func TestTargetAboveSizeClamps(t *testing.T) {
	d, g := newDomain(t, 4, 8192)
	got, err := Transparent{}.Apply(d, g, resources.New(100, 1<<20, 1e6, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if got != d.MaxSize() {
		t.Errorf("oversized target should clamp to MaxSize: %v", got)
	}
}

func TestDeflateByFraction(t *testing.T) {
	d, g := newDomain(t, 8, 16384)
	got, err := DeflateByFraction(Transparent{}, d, g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(resources.CPU) != 4 || got.Get(resources.Memory) != 8192 {
		t.Errorf("half deflation = %v", got)
	}
	if _, err := DeflateByFraction(Transparent{}, d, g, 1.0); !errors.Is(err, ErrTarget) {
		t.Errorf("full deflation should be rejected: %v", err)
	}
	if _, err := DeflateByFraction(Transparent{}, d, g, -0.1); !errors.Is(err, ErrTarget) {
		t.Errorf("negative fraction should be rejected: %v", err)
	}
}

func TestTinyTargetKeepsVMAlive(t *testing.T) {
	d, g := newDomain(t, 8, 16384)
	for _, m := range []Mechanism{Transparent{}, Hybrid{}} {
		got, err := m.Apply(d, g, resources.Vector{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if got.Get(resources.CPU) <= 0 || got.Get(resources.Memory) <= 0 {
			t.Errorf("%s: zero target must leave a floor, got %v", m.Name(), got)
		}
		// Reset for next mechanism.
		if _, err := m.Apply(d, g, d.MaxSize()); err != nil {
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
		d, g, err := defineWithGuest(hypervisor.DomainConfig{
			Name: "vm", Size: resources.New(8, 16384, 100, 1000),
			Deflatable: true, Priority: 0.5,
		}, true)
		if err != nil {
			return false
		}
		g.SetWorkload(2000, 1000)
		target := d.MaxSize().Scale(1 - frac)
		got, err := m.Apply(d, g, target)
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
			if float64(g.OnlineVCPUs()) != want {
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
// single-controller write per positive target dimension, CPU and memory
// capped by the guest as the steps left it, and a final allocation read.
// Kept as the oracle the batched form is held to.
func applySingleSetters(m Mechanism, d *hypervisor.Domain, g *guestos.GuestOS, target resources.Vector) (resources.Vector, error) {
	t, err := clampTarget(d, target)
	if err != nil {
		return resources.Vector{}, err
	}
	cpu, mem := t.Get(resources.CPU), t.Get(resources.Memory)
	setCPU := func() error { return d.SetCPUShares(math.Min(cpu, float64(g.OnlineVCPUs()))) }
	setMem := func() error { return setOne(d, resources.Memory, math.Min(mem, g.PluggedMemoryMB())) }
	switch m.Name() {
	case "transparent":
		err = errors.Join(setCPU(), setMem())
	case "hybrid":
		err = errors.Join(applyCPUHotplug(d, g, cpu), setCPU(),
			applyMemoryHotplug(d, g, math.Max(g.RSSMB(), mem)), setMem())
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
// memory penalties after every step.
func TestApplyMatchesSingleSetters(t *testing.T) {
	for _, m := range []Mechanism{Transparent{}, Hybrid{}} {
		t.Run(m.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			batched, bg := newDomain(t, 8, 16384)
			single, sg := newDomain(t, 8, 16384)
			bg.SetWorkload(3000, 2000)
			sg.SetWorkload(3000, 2000)
			for step := 0; step < 400; step++ {
				target := batched.MaxSize().Scale(0.02 + rng.Float64())
				if rng.Intn(2) == 0 {
					target = target.With(resources.DiskBW, 0)
				}
				if rng.Intn(2) == 0 {
					target = target.With(resources.NetBW, 0)
				}
				got, err := m.Apply(batched, bg, target)
				want, werr := applySingleSetters(m, single, sg, target)
				if err != nil || werr != nil {
					t.Fatalf("step %d target %v: Apply err %v, oracle err %v", step, target, err, werr)
				}
				if got != want || batched.Allocation() != single.Allocation() {
					t.Fatalf("step %d target %v: Apply achieved %v (allocation %v), single setters %v (allocation %v)",
						step, target, got, batched.Allocation(), want, single.Allocation())
				}
				bm, sm := memOf(batched), memOf(single)
				if bg.SwapPressure(bm) != sg.SwapPressure(sm) || bg.CacheLoss(bm) != sg.CacheLoss(sm) ||
					bg.OnlineVCPUs() != sg.OnlineVCPUs() || bg.PluggedMemoryMB() != sg.PluggedMemoryMB() {
					t.Fatalf("step %d target %v: domain state diverged from the single-setter path", step, target)
				}
			}
		})
	}
}
