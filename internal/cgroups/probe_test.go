package cgroups

import "vmdeflate/internal/resources"

// The read probe the tests check a group with; the hypervisor reads one
// controller at a time (Limit, Effective).

// Unlimited marks a controller with no limit set.
const Unlimited = -1.0

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
