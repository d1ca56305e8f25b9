// Package apps contains the application models used by the paper's
// testbed evaluation (Section 7): three batch/steady-state applications
// (SpecJBB 2015, memcached, kernel-compile) whose resource-driven
// performance models reproduce Figures 3 and 14, and two interactive web
// applications — a Wikipedia-like multi-tier service and a
// DeathStarBench-like social-network microservice application — that run
// on processor-sharing queueing stations and reproduce Figures 16-19.
//
// All models consume a hypervisor.Domain's *effective* resource vector,
// so every experiment exercises the real deflation mechanisms rather
// than shortcutting to an analytic formula. The models of Figures 3 and
// 14 also read the guest booted beside their domain (testbedVM).
package apps

import (
	"fmt"
	"math"
	"sort"

	"vmdeflate/internal/stats"
)

// checkPct refuses a deflation percentage outside [0, 100), NaN
// included: NaN fails every comparison, so only the negated range test
// catches it.
func checkPct(pct float64) error {
	if !(pct >= 0 && pct < 100) {
		return fmt.Errorf("apps: deflation %g%% out of range", pct)
	}
	return nil
}

// Metrics collects per-request outcomes from an interactive experiment.
type Metrics struct {
	// ResponseTimes holds the sojourn time of every *served* request.
	ResponseTimes []float64
	// Served and Dropped count request outcomes; Dropped are timeouts.
	Served, Dropped int
}

// Record adds a served request.
func (m *Metrics) Record(rt float64) {
	m.ResponseTimes = append(m.ResponseTimes, rt)
	m.Served++
}

// Drop adds a timed-out request.
func (m *Metrics) Drop() { m.Dropped++ }

// ServedFraction returns the fraction of requests that completed within
// the timeout (Figure 17's metric).
func (m *Metrics) ServedFraction() float64 {
	total := m.Served + m.Dropped
	if total == 0 {
		return math.NaN()
	}
	return float64(m.Served) / float64(total)
}

// Summary returns (mean, median, p90, p99) response times.
func (m *Metrics) Summary() (mean, median, p90, p99 float64) {
	s := make([]float64, len(m.ResponseTimes))
	copy(s, m.ResponseTimes)
	sort.Float64s(s)
	return stats.Mean(s), stats.PercentileSorted(s, 50),
		stats.PercentileSorted(s, 90), stats.PercentileSorted(s, 99)
}
