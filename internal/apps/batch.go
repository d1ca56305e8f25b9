package apps

import (
	"fmt"
	"math"

	"vmdeflate/internal/guestos"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/resources"
)

// ResourceModel is a steady-state application whose normalised
// performance is a function of the resources its domain actually has
// and of the state of the guest g booted beside it.
// Performance(undeflated domain) = 1.
type ResourceModel interface {
	// Name identifies the application.
	Name() string
	// InstallWorkload sets the application's memory footprint (RSS and
	// page cache) inside the guest, so hotplug safety thresholds and swap
	// penalties reflect this app.
	InstallWorkload(d *hypervisor.Domain, g *guestos.GuestOS)
	// Performance returns normalised throughput on the domain's current
	// effective allocation.
	Performance(d *hypervisor.Domain, g *guestos.GuestOS) float64
}

// Kcompile models a parallel kernel build: mostly CPU-bound with limited
// build parallelism (slack when the VM has more cores than the build can
// use), an I/O phase bound by disk bandwidth, and a serial fraction.
type Kcompile struct{}

// Name implements ResourceModel.
func (Kcompile) Name() string { return "kcompile" }

// InstallWorkload implements ResourceModel: a build uses modest anonymous
// memory but a large page cache of sources and objects.
func (Kcompile) InstallWorkload(d *hypervisor.Domain, g *guestos.GuestOS) {
	mem := d.MaxSize().Get(resources.Memory)
	g.SetWorkload(0.20*mem, 0.40*mem)
}

// Performance implements ResourceModel.
func (k Kcompile) Performance(d *hypervisor.Domain, g *guestos.GuestOS) float64 {
	eff := d.Allocation()
	max := d.MaxSize()

	// Amdahl decomposition of an undeflated build.
	const (
		serialFrac   = 0.05
		parallelFrac = 0.80
		ioFrac       = 0.15
		// The build's -j parallelism only exploits 85% of the cores.
		usableCoreFrac = 0.85
	)
	usable := usableCoreFrac * max.Get(resources.CPU)
	cpuScale := math.Min(eff.Get(resources.CPU), usable) / usable
	ioScale := ioScaleOf(eff, max)

	t := serialFrac + parallelFrac/cpuScale + ioFrac/ioScale
	base := serialFrac + parallelFrac + ioFrac
	perf := base / t

	// Memory: losing page cache re-reads sources from disk; swapping the
	// build's working set is much worse.
	perf *= cachePenalty(g, eff, 0.3)
	perf *= swapPenalty(g, eff, 6)
	return clamp01(perf)
}

// Memcached models an in-memory cache with a Zipf-skewed working set:
// large slack (CPU and network are over-provisioned, the coldest keys
// are rarely touched), then gentle degradation as hot items no longer
// fit (Section 3.2.2, Figure 3).
type Memcached struct{}

// Name implements ResourceModel.
func (Memcached) Name() string { return "memcached" }

// InstallWorkload implements ResourceModel: almost all memory is the
// item store (anonymous), no meaningful page cache.
func (Memcached) InstallWorkload(d *hypervisor.Domain, g *guestos.GuestOS) {
	mem := d.MaxSize().Get(resources.Memory)
	g.SetWorkload(0.80*mem, 0.02*mem)
}

// Performance implements ResourceModel.
func (m Memcached) Performance(d *hypervisor.Domain, _ *guestos.GuestOS) float64 {
	eff := d.Allocation()
	max := d.MaxSize()

	// CPU and network need only ~30% / ~40% of the allocation.
	cpuPart := math.Min(1, eff.Get(resources.CPU)/(0.30*max.Get(resources.CPU)))
	netPart := 1.0
	if max.Get(resources.NetBW) > 0 {
		netPart = math.Min(1, eff.Get(resources.NetBW)/(0.40*max.Get(resources.NetBW)))
	}

	// Working set = 55% of memory; Zipf access skew means the fraction of
	// hits retained with a fraction f of the working set resident is
	// roughly f^0.3. Misses are served by the backing store at 8x cost.
	ws := 0.55 * max.Get(resources.Memory)
	avail := eff.Get(resources.Memory)
	hit := 1.0
	if avail < ws {
		hit = math.Pow(math.Max(avail, 0)/ws, 0.3)
	}
	memPart := hit + (1-hit)/8

	return clamp01(math.Min(cpuPart, netPart) * memPart)
}

// SpecJBB models the SpecJBB 2015 JVM benchmark: CPU-saturated (no
// slack), with garbage-collection overhead that explodes as heap
// headroom over the live set vanishes — producing the knee.
type SpecJBB struct{}

// Name implements ResourceModel.
func (SpecJBB) Name() string { return "specjbb" }

// InstallWorkload implements ResourceModel: the JVM commits a large heap
// (RSS ~58% of memory) with a small page cache.
func (SpecJBB) InstallWorkload(d *hypervisor.Domain, g *guestos.GuestOS) {
	mem := d.MaxSize().Get(resources.Memory)
	g.SetWorkload(0.55*mem, 0.05*mem)
}

// Performance implements ResourceModel.
func (s SpecJBB) Performance(d *hypervisor.Domain, g *guestos.GuestOS) float64 {
	eff := d.Allocation()
	max := d.MaxSize()

	// Fully CPU-bound: throughput scales with cores from the first
	// reclaimed core (no slack, Section 3.1).
	cpuPart := eff.Get(resources.CPU) / max.Get(resources.CPU)

	// GC overhead: heap is 70% of effective memory, live data is fixed at
	// 31.5% of nominal memory. Overhead ~ live/(heap-live).
	live := 0.315 * max.Get(resources.Memory)
	heap := 0.70 * eff.Get(resources.Memory)
	const gcCoeff = 0.10
	gc0 := gcCoeff * live / (0.70*max.Get(resources.Memory) - live)
	headroom := heap - live
	if headroom <= 0.01*live {
		headroom = 0.01 * live // thrashing floor
	}
	gc := gcCoeff * live / headroom
	memPart := (1 + gc0) / (1 + gc)

	perf := cpuPart * memPart * swapPenalty(g, eff, 8)
	return clamp01(perf)
}

// --- shared helpers ---

func ioScaleOf(eff, max resources.Vector) float64 {
	if max.Get(resources.DiskBW) <= 0 {
		return 1
	}
	s := eff.Get(resources.DiskBW) / max.Get(resources.DiskBW)
	if s <= 0 {
		return 1e-3
	}
	return s
}

// cachePenalty converts the page cache the guest loses at the
// allocation's memory into a throughput multiplier; weight is the
// full-cache-loss slowdown fraction.
func cachePenalty(g *guestos.GuestOS, alloc resources.Vector, weight float64) float64 {
	return 1 / (1 + weight*g.CacheLoss(alloc.Get(resources.Memory)))
}

// swapPenalty converts hypervisor swap pressure (transparent memory
// deflation below the guest's RSS) at the allocation's memory into a
// throughput multiplier; cost is the slowdown factor at full pressure.
func swapPenalty(g *guestos.GuestOS, alloc resources.Vector, cost float64) float64 {
	return 1 / (1 + cost*g.SwapPressure(alloc.Get(resources.Memory)))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// PerformanceAt is one point of an application's Figure 3 series: it
// boots a standard 8-core/32GB testbed VM, installs the application,
// deflates *all* of its resources by pct percent with the given mechanism
// and reads the model's performance, normalised to the undeflated VM's.
func PerformanceAt(model ResourceModel, mech mechanism.Mechanism, pct float64) (float64, error) {
	if err := checkPct(pct); err != nil {
		return 0, err
	}
	d, g, err := testbedVM("bench-vm", resources.New(8, 32768, 200, 2000))
	if err != nil {
		return 0, err
	}
	model.InstallWorkload(d, g)
	base := model.Performance(d, g)
	if pct > 0 {
		if _, err := mechanism.DeflateByFraction(mech, d, g, pct/100); err != nil {
			return 0, err
		}
	}
	if base <= 0 {
		return 0, fmt.Errorf("apps: %s has non-positive baseline performance", model.Name())
	}
	return model.Performance(d, g) / base, nil
}
