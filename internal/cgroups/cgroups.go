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

// Group is one cgroup holding a single VM. Limits use the same units as
// resources.Vector: cores, MB, MB/s, Mbit/s. A negative limit means
// unlimited (the controller is not engaged). The zero value is a group
// with no controller engaged, ready to use, so the owning domain embeds
// it by value.
type Group struct {
	mu     sync.Mutex
	limits resources.Vector
	set    [resources.NumKinds]bool
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

// Limit returns the limit for kind k and whether one is engaged.
func (g *Group) Limit(k resources.Kind) (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.limits[k], g.set[k]
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
