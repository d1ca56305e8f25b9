// Package workload provides the open-loop request generators used by the
// web experiments of Section 7: a Poisson arrival source (the Wikipedia
// workload generator "randomly selects from the top 500 largest pages")
// and a wrk2-style constant-throughput source (used for the
// DeathStarBench social network).
package workload

import (
	"math/rand"

	"vmdeflate/internal/sim"
)

// Handler receives one generated request at virtual time now; seq is the
// request's sequence number.
type Handler func(now float64, seq int)

// Source drives requests into a handler until stopped.
type Source struct {
	eng     *sim.Engine
	rate    float64
	poisson bool
	rng     *rand.Rand
	handler Handler
	seq     int
	stopped bool
}

// NewPoissonSource creates an open-loop Poisson source with the given
// mean rate (requests/second). The source draws from its own seeded RNG
// so request timing is independent of other simulation randomness.
func NewPoissonSource(eng *sim.Engine, rate float64, seed int64, h Handler) *Source {
	return &Source{eng: eng, rate: rate, poisson: true, rng: rand.New(rand.NewSource(seed)), handler: h}
}

// NewConstantSource creates a wrk2-style constant-throughput source: one
// request exactly every 1/rate seconds.
func NewConstantSource(eng *sim.Engine, rate float64, h Handler) *Source {
	return &Source{eng: eng, rate: rate, handler: h}
}

// Start schedules the first arrival.
func (s *Source) Start() {
	if s.rate <= 0 {
		return
	}
	s.eng.After(s.nextGap(), s.tick)
}

// Stop halts the source after the current arrival.
func (s *Source) Stop() { s.stopped = true }

func (s *Source) nextGap() float64 {
	if s.poisson {
		return s.rng.ExpFloat64() / s.rate
	}
	return 1 / s.rate
}

func (s *Source) tick(now float64) {
	if s.stopped {
		return
	}
	seq := s.seq
	s.seq++
	s.handler(now, seq)
	s.eng.After(s.nextGap(), s.tick)
}

// PageMix models the Wikipedia page-size distribution of Section 7.1.1:
// requests select among the 500 largest pages (0.5-2.2 MB). Page size
// scales the CPU cost of rendering.
type PageMix struct {
	rng *rand.Rand
	// HitRatio is the fraction of requests served from memcached (cheap);
	// misses render through MediaWiki+MySQL (expensive).
	HitRatio float64
	// HitCost and MissCost are mean CPU seconds for each path.
	HitCost, MissCost float64
}

// NewPageMix creates the default calibrated mix: 88% cache hits at 3 ms
// and 12% misses at 56 ms of CPU (mean ~9.4 ms/request, matching the
// paper's setup where a 30-core VM saturates near 70-80% CPU deflation
// at 800 req/s — Figures 16-17).
func NewPageMix(seed int64) *PageMix {
	return &PageMix{
		rng:      rand.New(rand.NewSource(seed)),
		HitRatio: 0.88,
		HitCost:  0.003,
		MissCost: 0.056,
	}
}

// Draw returns one request's CPU demand in core-seconds. Costs are
// lognormal-ish around the path mean, scaled by a page-size factor in
// [0.5/1.35, 2.2/1.35] (the 0.5-2.2 MB page range).
func (p *PageMix) Draw() float64 {
	var mean float64
	if p.rng.Float64() < p.HitRatio {
		mean = p.HitCost
	} else {
		mean = p.MissCost
	}
	sizeFactor := (0.5 + p.rng.Float64()*1.7) / 1.35
	jitter := 0.7 + 0.6*p.rng.Float64()
	return mean * sizeFactor * jitter
}
