package hypervisor

import "vmdeflate/internal/resources"

// The memory setter and the aggregate shorthands the tests drive and
// read a host with. The mechanisms write limits only through the
// batched SetLimits, and the cluster layer reads Aggregates.

// Committed returns the sum of the nominal sizes of all defined domains:
// the numerator of the cluster overcommitment ratio (Section 1).
func (h *Host) Committed() resources.Vector {
	return h.Aggregates().Committed
}

// Allocated returns the sum of the current (possibly deflated)
// allocations of running domains: physical resources actually promised
// right now.
func (h *Host) Allocated() resources.Vector {
	return h.Aggregates().Allocated
}

// Available returns Capacity - Allocated, clamped at zero.
func (h *Host) Available() resources.Vector {
	return h.Capacity().Sub(h.Allocated()).ClampNonNegative()
}

// Overcommit returns Committed/Capacity - 1 as the dominant-share
// overcommitment fraction (0 = fully packed, 0.5 = 50% overcommitted).
func (h *Host) Overcommit() float64 {
	oc := h.Committed().DominantShare(h.Capacity())
	if oc < 1 {
		return 0
	}
	return oc - 1
}

// SetMemoryLimit caps the domain's physical memory at mb via the memory
// cgroup (mem.limit_in_bytes). If the limit is below the guest's resident
// set, the hypervisor swaps: the guest is unaware and performance
// suffers (see guestos.GuestOS.SwapPressure).
func (d *Domain) SetMemoryLimit(mb float64) error {
	return d.setLimit(resources.Memory, mb)
}
