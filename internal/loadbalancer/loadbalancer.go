// Package loadbalancer implements the HAProxy-style load balancing of
// Section 7.3: smooth weighted round robin (the algorithm HAProxy and
// nginx use) and the paper's deflation-aware variant that re-weights
// backends by their current effective capacity so deflated replicas
// receive proportionally fewer requests.
package loadbalancer

import (
	"errors"
	"math"
)

// Backend is one server behind the balancer.
type Backend struct {
	// Name identifies the backend.
	Name string
	// Weight is the static configured weight (vanilla WRR).
	Weight int

	// current is smooth-WRR state.
	current int
	// capacity is the dynamic effective capacity reported by the
	// deflation system (deflation-aware re-weighting).
	capacity float64
	// effWeight is the capacity-derived weight a DeflationAware balancer
	// maintains. It is kept separate from the static Weight so the
	// configured proportion survives deflate/reinflate round trips;
	// effValid gates which of the two smooth WRR reads.
	effWeight int
	effValid  bool
}

// weight returns the backend's smooth-WRR weight: the capacity-derived
// effective weight when a DeflationAware balancer maintains one, else
// the static configured weight.
func (b *Backend) weight() int {
	if b.effValid {
		return b.effWeight
	}
	return b.Weight
}

// ErrNoBackends is returned when the balancer has no usable backend.
var ErrNoBackends = errors.New("loadbalancer: no backends")

// Balancer picks a backend per request.
type Balancer interface {
	// Name identifies the algorithm.
	Name() string
	// Pick selects a backend for the next request.
	Pick() (*Backend, error)
}

// WeightedRoundRobin implements smooth weighted round robin: each pick
// adds every backend's weight to its current counter and selects the
// largest, subtracting the weight total. This interleaves picks
// proportionally to weight without bursts.
type WeightedRoundRobin struct {
	backends []*Backend
}

// NewWeightedRoundRobin creates a vanilla HAProxy-style WRR balancer.
func NewWeightedRoundRobin(backends []*Backend) *WeightedRoundRobin {
	return &WeightedRoundRobin{backends: backends}
}

// Name implements Balancer.
func (*WeightedRoundRobin) Name() string { return "weighted-round-robin" }

// Pick implements Balancer. Ties on the smooth-WRR counter break by
// name, so the pick sequence is a strict total order independent of the
// backend slice's construction order.
func (w *WeightedRoundRobin) Pick() (*Backend, error) {
	var best *Backend
	total := 0
	for _, b := range w.backends {
		wt := b.weight()
		if wt <= 0 {
			continue
		}
		total += wt
		b.current += wt
		if best == nil || b.current > best.current ||
			(b.current == best.current && b.Name < best.Name) {
			best = b
		}
	}
	if best == nil {
		return nil, ErrNoBackends
	}
	best.current -= total
	return best, nil
}

// DeflationAware wraps smooth WRR with dynamic weights derived from each
// backend's reported effective capacity — the paper's modified HAProxy
// ("dynamically changing the weights assigned to the different servers
// based on the current deflation level", Section 6). Weights are the
// capacity in 1/100ths of a core so fractional deflation levels remain
// distinguishable.
type DeflationAware struct {
	wrr *WeightedRoundRobin
}

// NewDeflationAware creates a deflation-aware balancer. Capacities
// default to weight until ReportCapacity is called.
func NewDeflationAware(backends []*Backend) *DeflationAware {
	da := &DeflationAware{wrr: NewWeightedRoundRobin(backends)}
	for _, b := range backends {
		if b.capacity == 0 {
			b.capacity = float64(b.Weight)
		}
	}
	da.reweigh()
	return da
}

// Name implements Balancer.
func (*DeflationAware) Name() string { return "deflation-aware" }

// ReportCapacity records a backend's new effective capacity (cores) after
// a deflation or reinflation event and recomputes weights.
func (da *DeflationAware) ReportCapacity(b *Backend, cores float64) {
	b.capacity = cores
	da.reweigh()
}

func (da *DeflationAware) reweigh() {
	for _, b := range da.wrr.backends {
		w := int(math.Round(b.capacity * 100))
		if b.capacity > 0 && w == 0 {
			w = 1
		}
		// The derived weight lives beside the static Weight, never over
		// it: after a deflate/reinflate round trip the configured
		// proportion is still intact for anything reading Weight.
		b.effWeight = w
		b.effValid = true
	}
}

// Pick implements Balancer.
func (da *DeflationAware) Pick() (*Backend, error) { return da.wrr.Pick() }
