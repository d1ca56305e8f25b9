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
// than shortcutting to an analytic formula. Every experiment runs on a
// testbed VM (testbedVM): a domain on a host of its own with its guest
// booted beside it.
package apps

import (
	"fmt"
	"math"
	"slices"

	"vmdeflate/internal/guestos"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/sim"
	"vmdeflate/internal/stats"
	"vmdeflate/internal/workload"
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

// Config parameterises one interactive experiment (Figures 16-19).
type Config struct {
	// Duration is the length of the open-loop load in seconds; its
	// first warmupFrac warms the queues and is not measured.
	Duration float64
	// Seed drives all randomness.
	Seed int64
}

// warmupFrac is the first fraction of every interactive run, which
// warms the queues and is not measured.
const warmupFrac = 0.15

// check refuses a run length that is not finite and positive (a zero
// one measures nothing, +Inf never stops the source) and a deflation
// percentage outside [0, 100).
func (c Config) check(pct float64) error {
	if !(c.Duration > 0 && c.Duration < math.Inf(1)) {
		return fmt.Errorf("apps: duration %g s is not finite and positive", c.Duration)
	}
	return checkPct(pct)
}

// Point is one deflation level of an interactive experiment.
type Point struct {
	DeflationPct float64
	// Cores is the deflated VM's effective CPU.
	Cores                  float64
	Mean, Median, P90, P99 float64
	// ServedFraction is the fraction of measured requests that completed
	// within the timeout (Figure 17's metric).
	ServedFraction float64
}

// Metrics collects per-request outcomes from an interactive experiment.
// A nil *Metrics records nothing: warm-up requests carry one.
type Metrics struct {
	// ResponseTimes holds the sojourn time of every *served* request.
	ResponseTimes []float64
	// Dropped counts the requests that timed out.
	Dropped int
}

// Record adds a served request.
func (m *Metrics) Record(rt float64) {
	if m != nil {
		m.ResponseTimes = append(m.ResponseTimes, rt)
	}
}

// Drop adds a timed-out request.
func (m *Metrics) Drop() {
	if m != nil {
		m.Dropped++
	}
}

// point summarises m at pct percent deflation of a VM left with cores.
func (m *Metrics) point(pct, cores float64) Point {
	s := slices.Sorted(slices.Values(m.ResponseTimes))
	return Point{
		DeflationPct: pct, Cores: cores,
		Mean: stats.Mean(s), Median: stats.PercentileSorted(s, 50),
		P90: stats.PercentileSorted(s, 90), P99: stats.PercentileSorted(s, 99),
		ServedFraction: float64(len(s)) / float64(len(s)+m.Dropped),
	}
}

// Sweep runs one experiment per deflation level, in order.
func Sweep[T any](pcts []float64, run func(pct float64) (T, error)) ([]T, error) {
	out := make([]T, 0, len(pcts))
	for _, pct := range pcts {
		p, err := run(pct)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// testbedVM defines and starts a testbed VM of the given size on a host
// of its own, and boots its guest beside it with ceil(size) vCPUs and
// all of its memory plugged, which caps no limit write.
func testbedVM(name string, size resources.Vector) (*hypervisor.Domain, *guestos.GuestOS, error) {
	h, err := hypervisor.NewHost(hypervisor.HostConfig{
		Name:     "testbed",
		Capacity: resources.New(64, 262144, 2000, 20000),
	})
	if err != nil {
		return nil, nil, err
	}
	d, err := h.Define(hypervisor.DomainConfig{Name: name, Size: size, Deflatable: true, Priority: 0.5})
	if err != nil {
		return nil, nil, err
	}
	if err := d.Start(); err != nil {
		return nil, nil, err
	}
	g := new(guestos.GuestOS)
	err = g.Boot(guestos.Config{VCPUs: int(math.Ceil(size.Get(resources.CPU))), MemoryMB: size.Get(resources.Memory)})
	return d, g, err
}

// deflatedCores boots a testbed VM of the given size, deflates its CPU
// by pct percent with the transparent mechanism and returns the cores
// it is left with.
func deflatedCores(name string, size resources.Vector, pct float64) (float64, error) {
	d, g, err := testbedVM(name, size)
	if err != nil {
		return 0, err
	}
	target := size.With(resources.CPU, size.Get(resources.CPU)*(1-pct/100))
	if _, err := (mechanism.Transparent{}).Apply(d, g, target); err != nil {
		return 0, err
	}
	return d.Allocation().Get(resources.CPU), nil
}

// measure drives open-loop load from the source newSource builds on eng
// into serve for cfg.Duration seconds. Requests in the first warmupFrac
// reach serve with a nil *Metrics; the rest are measured. The run goes
// on timeout+1 s past the last arrival, so every measured request
// completes or times out.
func measure(eng *sim.Engine, cfg Config, timeout float64, newSource func(workload.Handler) *workload.Source, serve func(now float64, m *Metrics)) *Metrics {
	var m Metrics
	warmupEnd := cfg.Duration * warmupFrac
	src := newSource(func(now float64, _ int) {
		if now < warmupEnd {
			serve(now, nil)
			return
		}
		serve(now, &m)
	})
	src.Start()
	eng.At(cfg.Duration, func(float64) { src.Stop() })
	eng.RunUntil(cfg.Duration + timeout + 1)
	return &m
}
