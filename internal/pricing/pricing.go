// Package pricing implements the deflatable-VM pricing schemes of
// Section 5.2.2 and the revenue accounting behind Figure 22: fixed
// discounted (static) pricing, priority-based differentiated pricing,
// and variable allocation-based pricing that bills the resources
// actually allocated over time.
package pricing

import (
	"vmdeflate/internal/resources"
	"vmdeflate/internal/stats"
)

// Scheme computes the instantaneous billing rate of a deflatable VM.
// Rates are in on-demand-core-hours per hour: an on-demand VM of c cores
// bills at rate c. Rate must be a pure function of (size, priority,
// alloc): a meter whose VM's three inputs have not changed since its last
// Observe may Hold its rate instead of asking the scheme again, and the
// result must be the same bits.
type Scheme interface {
	// Name identifies the scheme ("static", "priority", "allocation").
	Name() string
	// Rate returns the billing rate for a VM with the given nominal
	// size, priority, and current allocation.
	Rate(size resources.Vector, priority float64, alloc resources.Vector) float64
}

// billingCores extracts the billing unit (CPU cores, the standard cloud
// billing dimension).
func billingCores(v resources.Vector) float64 { return v.Get(resources.CPU) }

// Static bills a fixed fraction of the on-demand price regardless of
// deflation — "a cloud provider may choose to offer deflatable VMs at
// fixed discounted prices". The paper's evaluation uses 0.2x, matching
// current transient offerings (Section 7.4.3).
type Static struct {
	// Discount is the fraction of the on-demand price (0.2 in the paper).
	Discount float64
}

// Name implements Scheme.
func (Static) Name() string { return "static" }

// Rate implements Scheme.
func (s Static) Rate(size resources.Vector, _ float64, _ resources.Vector) float64 {
	return s.Discount * billingCores(size)
}

// Priority bills proportionally to the VM's priority level: "we set
// their price equal to the priority — i.e., priority-level 0.5 has price
// 0.5x the on-demand price" (Section 7.4.3).
type Priority struct{}

// Name implements Scheme.
func (Priority) Name() string { return "priority" }

// Rate implements Scheme.
func (Priority) Rate(size resources.Vector, priority float64, _ resources.Vector) float64 {
	if priority < 0 {
		priority = 0
	}
	return priority * billingCores(size)
}

// Allocation bills the actual allocation over time, linearly: "VMs pay
// half price when at 50% allocation". The undeflated rate matches
// Static's discounted price so the two schemes coincide when there is no
// deflation.
type Allocation struct {
	// Discount is the fraction of the on-demand price at full allocation.
	Discount float64
}

// Name implements Scheme.
func (Allocation) Name() string { return "allocation" }

// Rate implements Scheme.
func (a Allocation) Rate(size resources.Vector, _ float64, alloc resources.Vector) float64 {
	return a.Discount * billingCores(alloc)
}

// Meter integrates one VM's revenue over time. Observe the rate at every
// change point; Close at departure.
type Meter struct {
	tw     stats.TimeWeighted
	closed bool
	total  float64
}

// Observe records that the VM bills at rate from time t onward.
func (m *Meter) Observe(t, rate float64) {
	if m.closed {
		return
	}
	m.tw.Observe(t, rate)
}

// Hold records that the VM still bills at time t at the rate it last
// observed: Observe(t, last rate), integrated in the same order.
func (m *Meter) Hold(t float64) {
	m.Observe(t, m.tw.Last())
}

// Close finalises the meter at departure time t and returns accumulated
// revenue (rate integrated over time).
func (m *Meter) Close(t float64) float64 {
	if !m.closed {
		m.tw.Finish(t)
		m.total = m.tw.Area()
		m.closed = true
	}
	return m.total
}
