// Package mechanism implements the paper's VM deflation mechanisms
// (Section 4): transparent deflation through hypervisor multiplexing
// (cgroup limits), and the hybrid mechanism of Figure 13 that
// hot-unplugs through the guest (explicit deflation) down to the guest's
// safety threshold and multiplexes the rest of the way.
//
// A mechanism turns a *target allocation vector* into hypervisor/guest
// actions and reports what allocation was actually achieved. Targets are
// absolute allocations (not deltas); deflating and reinflating are the
// same operation with different targets, which is how the paper's
// policies "run proportional deflation backwards" for reinflation.
// The guest OS is not part of the domain: Apply takes the guest booted
// beside it, or nil.
package mechanism

import (
	"errors"
	"fmt"
	"math"

	"vmdeflate/internal/guestos"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

// ErrTarget reports an unachievable or invalid target.
var ErrTarget = errors.New("mechanism: invalid deflation target")

// Mechanism applies absolute allocation targets to a domain.
type Mechanism interface {
	// Name identifies the mechanism ("transparent", "hybrid").
	Name() string
	// Apply drives the domain's allocation toward target and returns the
	// allocation actually achieved. g is the guest booted beside d, or
	// nil for a VM without one. Implementations clamp the target into
	// [domain minimum, domain nominal size]; they never power off the VM.
	Apply(d *hypervisor.Domain, g *guestos.GuestOS, target resources.Vector) (resources.Vector, error)
}

// clampTarget bounds target into the domain's feasible range with the
// hypervisor's one clamp (Domain.ClampTarget), and wraps its refusal of
// a negative or NaN target in ErrTarget.
func clampTarget(d *hypervisor.Domain, target resources.Vector) (resources.Vector, error) {
	t, err := d.ClampTarget(target)
	if err != nil {
		return resources.Vector{}, fmt.Errorf("%w: %v", ErrTarget, err)
	}
	return t, nil
}

// setLimits is both mechanisms' last step: one limit write (the
// hypervisor's only allocation write) of the clamped target t, with CPU
// and memory capped by the guest's online vCPUs and plugged memory. The
// allocation is then min(size, online, plugged, limits), so a later
// transparent write cannot inflate a VM past what its guest unplugged.
func setLimits(d *hypervisor.Domain, g *guestos.GuestOS, t resources.Vector) (resources.Vector, error) {
	if g != nil {
		t[resources.CPU] = math.Min(t[resources.CPU], float64(g.OnlineVCPUs()))
		t[resources.Memory] = math.Min(t[resources.Memory], g.PluggedMemoryMB())
	}
	return d.SetLimits(t)
}

// Transparent implements Section 4.2: all deflation happens through the
// hypervisor's cgroup knobs. The guest OS is unaware; it simply runs
// "slower". Fine-grained and unbounded below, but pays swap penalties
// when memory drops under the guest's resident set.
type Transparent struct{}

// Name implements Mechanism.
func (Transparent) Name() string { return "transparent" }

// Apply implements Mechanism.
func (Transparent) Apply(d *hypervisor.Domain, g *guestos.GuestOS, target resources.Vector) (resources.Vector, error) {
	t, err := clampTarget(d, target)
	if err != nil {
		return resources.Vector{}, err
	}
	return setLimits(d, g, t)
}

// hotplug runs one guest agent operation, which only a running domain
// accepts (ErrState otherwise).
func hotplug[T int | float64](d *hypervisor.Domain, g *guestos.GuestOS, n T, op func(*guestos.GuestOS, T) (T, error)) error {
	if d.State() != hypervisor.Running {
		return fmt.Errorf("%w: %s not running", hypervisor.ErrState, d.Name())
	}
	_, err := op(g, n)
	return err
}

// applyCPUHotplug moves the online vCPU count toward ceil(targetCores).
// Hotplug cannot remove fractional vCPUs ("it is not possible to unplug
// 1.5 vCPUs"), so the target is rounded up: explicit deflation never
// over-deflates.
func applyCPUHotplug(d *hypervisor.Domain, g *guestos.GuestOS, targetCores float64) error {
	want := int(math.Ceil(targetCores - 1e-9))
	if want < 1 {
		want = 1
	}
	switch online := g.OnlineVCPUs(); {
	case online > want:
		return hotplug(d, g, online-want, (*guestos.GuestOS).UnplugVCPUs)
	case online < want:
		return hotplug(d, g, want-online, (*guestos.GuestOS).PlugVCPUs)
	}
	return nil
}

// applyMemoryHotplug moves plugged memory toward targetMB, respecting
// the guest's RSS safety threshold on the way down.
func applyMemoryHotplug(d *hypervisor.Domain, g *guestos.GuestOS, targetMB float64) error {
	switch plugged := g.PluggedMemoryMB(); {
	case plugged > targetMB:
		return hotplug(d, g, plugged-targetMB, (*guestos.GuestOS).UnplugMemory)
	case plugged < targetMB:
		return hotplug(d, g, targetMB-plugged, (*guestos.GuestOS).PlugMemory)
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

// Apply implements Mechanism. It needs the domain's guest.
func (Hybrid) Apply(d *hypervisor.Domain, g *guestos.GuestOS, target resources.Vector) (resources.Vector, error) {
	t, err := clampTarget(d, target)
	if err != nil {
		return resources.Vector{}, err
	}
	if g == nil {
		return resources.Vector{}, fmt.Errorf("mechanism: hybrid deflation of %s without a guest", d.Name())
	}

	// CPU: hotplug toward ceil(target); the cgroup trims the fraction.
	if err := applyCPUHotplug(d, g, t.Get(resources.CPU)); err != nil {
		return resources.Vector{}, err
	}

	// Memory: hotplug down to max(RSS threshold, target); the memory
	// cgroup covers any remaining distance (possibly into swap, but only
	// for the portion hotplug could not reach).
	hpThreshold := g.RSSMB()
	hotplugVal := math.Max(hpThreshold, t.Get(resources.Memory))
	if err := applyMemoryHotplug(d, g, hotplugVal); err != nil {
		return resources.Vector{}, err
	}

	// deflate_multiplexing: one batched cgroup write takes CPU and memory
	// the rest of the way and throttles I/O (transparent in all
	// mechanisms).
	return setLimits(d, g, t)
}

// DeflateByFraction is a convenience that deflates every dimension of the
// domain's nominal size by frac (0 = undeflated, 0.5 = half) using m.
func DeflateByFraction(m Mechanism, d *hypervisor.Domain, g *guestos.GuestOS, frac float64) (resources.Vector, error) {
	if frac < 0 || frac >= 1 {
		return resources.Vector{}, fmt.Errorf("%w: fraction %g outside [0,1)", ErrTarget, frac)
	}
	return m.Apply(d, g, d.MaxSize().Scale(1-frac))
}
