// Package cgroups models the Linux control-group controllers the paper's
// transparent deflation mechanisms are built on (Sections 4.2 and 6): CPU
// bandwidth control (cpu.shares / CFS quota), memory limits
// (memory.limit_in_bytes), block-I/O throttling, and network bandwidth
// limits. Each KVM domain runs inside one cgroup; setting a limit below
// the domain's nominal allocation is exactly "transparent deflation".
package cgroups

import (
	"errors"
	"fmt"
	"sync"

	"vmdeflate/internal/resources"
)

// ErrInvalid reports a limit no controller accepts.
var ErrInvalid = errors.New("cgroups: invalid limit")

// Unlimited marks a controller with no limit set.
const Unlimited = -1.0

// Group is one cgroup holding a single VM. Limits use the same units as
// resources.Vector: cores, MB, MB/s, Mbit/s. A negative limit means
// unlimited (the controller is not engaged). The zero value is a group
// with no controller engaged, ready to use, so the owning domain embeds
// it by value.
type Group struct {
	mu     sync.Mutex
	limits resources.Vector
	set    [resources.NumKinds]bool

	// usage is the most recently reported consumption, for accounting.
	usage resources.Vector
}

// SetLimit engages the controller for kind k at the given value.
// A zero CPU or memory limit is rejected: freezing a VM entirely is
// preemption, not deflation.
func (g *Group) SetLimit(k resources.Kind, v float64) error {
	if v <= 0 {
		return fmt.Errorf("%w: %s=%g", ErrInvalid, k, v)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.limits[k] = v
	g.set[k] = true
	return nil
}

// SetLimits is the batched SetLimit a deflation mechanism issues per
// target: it engages every controller whose component of v is positive
// in one critical section. Zero components leave their controller as it
// is (the mechanisms' "no target on this dimension"); a negative
// component rejects the whole write, leaving every controller untouched.
func (g *Group) SetLimits(v resources.Vector) error {
	for i, x := range v {
		if x < 0 {
			return fmt.Errorf("%w: %s=%g", ErrInvalid, resources.Kind(i), x)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, x := range v {
		if x > 0 {
			g.limits[i] = x
			g.set[i] = true
		}
	}
	return nil
}

// ClearLimit disengages the controller for kind k.
func (g *Group) ClearLimit(k resources.Kind) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.limits[k] = 0
	g.set[k] = false
}

// Limit returns the limit for kind k and whether one is engaged.
func (g *Group) Limit(k resources.Kind) (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.limits[k], g.set[k]
}

// Limits returns the full limit vector with Unlimited for disengaged
// controllers.
func (g *Group) Limits() resources.Vector {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out resources.Vector
	for i := range out {
		if g.set[i] {
			out[i] = g.limits[i]
		} else {
			out[i] = Unlimited
		}
	}
	return out
}

// Effective caps nominal by every engaged limit: the resources actually
// available to the VM in the group.
func (g *Group) Effective(nominal resources.Vector) resources.Vector {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := nominal
	for i := range out {
		if g.set[i] && g.limits[i] < out[i] {
			out[i] = g.limits[i]
		}
	}
	return out
}

// ReportUsage records observed consumption for accounting.
func (g *Group) ReportUsage(u resources.Vector) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.usage = u
}

// Usage returns the last reported consumption.
func (g *Group) Usage() resources.Vector {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.usage
}

// Throttled reports, per resource, whether the last reported usage was
// clipped by an engaged limit (within 1%), i.e. the VM is actually
// feeling the deflation.
func (g *Group) Throttled() [resources.NumKinds]bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out [resources.NumKinds]bool
	for i := range out {
		out[i] = g.set[i] && g.usage[i] >= g.limits[i]*0.99
	}
	return out
}
