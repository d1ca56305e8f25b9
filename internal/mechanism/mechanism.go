// Package mechanism implements the paper's three VM deflation mechanisms
// (Section 4): transparent deflation through hypervisor multiplexing
// (cgroup limits), explicit deflation through guest-visible hotplug, and
// the hybrid mechanism of Figure 13 that hot-unplugs down to the guest's
// safety threshold and multiplexes the rest of the way.
//
// A mechanism turns a *target allocation vector* into hypervisor/guest
// actions and reports what allocation was actually achieved. Targets are
// absolute allocations (not deltas); deflating and reinflating are the
// same operation with different targets, which is how the paper's
// policies "run proportional deflation backwards" for reinflation.
package mechanism

import (
	"errors"
	"fmt"
	"math"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

// ErrTarget reports an unachievable or invalid target.
var ErrTarget = errors.New("mechanism: invalid deflation target")

// Mechanism applies absolute allocation targets to a domain.
type Mechanism interface {
	// Name identifies the mechanism ("transparent", "explicit", "hybrid").
	Name() string
	// Apply drives the domain's allocation toward target and returns the
	// allocation actually achieved. Implementations clamp the target into
	// [domain minimum, domain nominal size]; they never power off the VM.
	Apply(d *hypervisor.Domain, target resources.Vector) (resources.Vector, error)
}

// clampTarget bounds target into the domain's feasible range and keeps at
// least a sliver of CPU and memory so the VM never fully stalls
// (deflation, not preemption). It returns an error for negative targets.
func clampTarget(d *hypervisor.Domain, target resources.Vector) (resources.Vector, error) {
	if err := target.CheckNonNegative(); err != nil {
		return resources.Vector{}, fmt.Errorf("%w: %v", ErrTarget, err)
	}
	t := target.Clamp(d.MinAllocation(), d.MaxSize())
	// Per-dimension safety floor (hypervisor.DefaultFloor): even a
	// 0.05-CPU / 64 MB microservice container keeps running.
	floor := hypervisor.DefaultFloor()
	if cpu := floor.Get(resources.CPU); t.Get(resources.CPU) < cpu {
		t = t.With(resources.CPU, cpu)
	}
	if mem := floor.Get(resources.Memory); t.Get(resources.Memory) < mem {
		t = t.With(resources.Memory, mem)
	}
	return t.Min(d.MaxSize()), nil
}

// Transparent implements Section 4.2: all deflation happens through the
// hypervisor's cgroup knobs. The guest OS is unaware; it simply runs
// "slower". Fine-grained and unbounded below, but pays swap penalties
// when memory drops under the guest's resident set.
type Transparent struct{}

// Name implements Mechanism.
func (Transparent) Name() string { return "transparent" }

// Apply implements Mechanism.
func (Transparent) Apply(d *hypervisor.Domain, target resources.Vector) (resources.Vector, error) {
	t, err := clampTarget(d, target)
	if err != nil {
		return resources.Vector{}, err
	}
	return d.SetLimits(t, "transparent")
}

// Explicit implements Section 4.3: deflation via guest-visible hot
// unplug only. CPU moves in whole vCPUs and memory in guest blocks, both
// bounded by guest safety (>=1 vCPU, never below RSS), so the achieved
// allocation may be above the target — the caller must check. NIC and
// disk unplugging is unsafe (Section 4.3), so I/O dimensions fall back to
// the transparent throttles.
type Explicit struct{}

// Name implements Mechanism.
func (Explicit) Name() string { return "explicit" }

// Apply implements Mechanism.
func (Explicit) Apply(d *hypervisor.Domain, target resources.Vector) (resources.Vector, error) {
	t, err := clampTarget(d, target)
	if err != nil {
		return resources.Vector{}, err
	}
	if err := applyCPUHotplug(d, t.Get(resources.CPU)); err != nil {
		return resources.Vector{}, err
	}
	if err := applyMemoryHotplug(d, t.Get(resources.Memory)); err != nil {
		return resources.Vector{}, err
	}
	// I/O: transparent throttling (explicit unplug is unsafe). Zeroed CPU
	// and memory components leave those cgroup controllers alone.
	return d.SetLimits(t.With(resources.CPU, 0).With(resources.Memory, 0), "explicit")
}

// applyCPUHotplug moves the online vCPU count toward ceil(targetCores).
// Hotplug cannot remove fractional vCPUs ("it is not possible to unplug
// 1.5 vCPUs"), so the target is rounded up: explicit deflation never
// over-deflates.
func applyCPUHotplug(d *hypervisor.Domain, targetCores float64) error {
	want := int(math.Ceil(targetCores - 1e-9))
	if want < 1 {
		want = 1
	}
	online := d.Guest().OnlineVCPUs()
	switch {
	case online > want:
		if _, err := d.HotUnplugVCPUs(online - want); err != nil {
			return err
		}
	case online < want:
		if _, err := d.HotPlugVCPUs(want - online); err != nil {
			return err
		}
	}
	return nil
}

// applyMemoryHotplug moves plugged memory toward targetMB, respecting
// the guest's RSS safety threshold on the way down.
func applyMemoryHotplug(d *hypervisor.Domain, targetMB float64) error {
	plugged := d.Guest().PluggedMemoryMB()
	switch {
	case plugged > targetMB:
		if _, err := d.HotUnplugMemory(plugged - targetMB); err != nil {
			return err
		}
	case plugged < targetMB:
		if _, err := d.HotPlugMemory(targetMB - plugged); err != nil {
			return err
		}
	}
	return nil
}

// Hybrid implements Figure 13:
//
//	def deflate_hybrid(target):
//	    hotplug_val = max(get_hp_threshold(), round_up(target))
//	    deflate_hotplug(hotplug_val)
//	    deflate_multiplexing(target)
//
// Explicit hotplug reclaims what the guest can safely release (letting it
// drop caches and rebalance), then transparent multiplexing takes the
// allocation the rest of the way to the fine-grained target.
type Hybrid struct{}

// Name implements Mechanism.
func (Hybrid) Name() string { return "hybrid" }

// Apply implements Mechanism.
func (Hybrid) Apply(d *hypervisor.Domain, target resources.Vector) (resources.Vector, error) {
	t, err := clampTarget(d, target)
	if err != nil {
		return resources.Vector{}, err
	}

	// CPU: hotplug toward ceil(target); the cgroup trims the fraction.
	if err := applyCPUHotplug(d, t.Get(resources.CPU)); err != nil {
		return resources.Vector{}, err
	}

	// Memory: hotplug down to max(RSS threshold, target); the memory
	// cgroup covers any remaining distance (possibly into swap, but only
	// for the portion hotplug could not reach).
	hpThreshold := d.Guest().RSSMB()
	hotplugVal := math.Max(hpThreshold, t.Get(resources.Memory))
	if err := applyMemoryHotplug(d, hotplugVal); err != nil {
		return resources.Vector{}, err
	}

	// deflate_multiplexing: one batched cgroup write takes CPU and memory
	// the rest of the way and throttles I/O (transparent in all
	// mechanisms). Hotplug never reads a cgroup limit, so issuing the
	// limits after both hotplug steps changes nothing.
	return d.SetLimits(t, "hybrid")
}

// DeflateByFraction is a convenience that deflates every dimension of the
// domain's nominal size by frac (0 = undeflated, 0.5 = half) using m.
func DeflateByFraction(m Mechanism, d *hypervisor.Domain, frac float64) (resources.Vector, error) {
	if frac < 0 || frac >= 1 {
		return resources.Vector{}, fmt.Errorf("%w: fraction %g outside [0,1)", ErrTarget, frac)
	}
	return m.Apply(d, d.MaxSize().Scale(1-frac))
}
