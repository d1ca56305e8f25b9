package workload

// MeanCost is the analytic mean the tests hold the sampled page-cost
// mix to.

// MeanCost returns the analytic mean CPU demand of the mix.
func (p *PageMix) MeanCost() float64 {
	return p.HitRatio*p.HitCost + (1-p.HitRatio)*p.MissCost
}
