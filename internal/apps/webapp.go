package apps

import (
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/queueing"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/sim"
	"vmdeflate/internal/workload"
)

// WebApp models the replicated German-Wikipedia stack of Section 7.1.1
// (MediaWiki + MySQL + Apache + memcached in one VM): an open-loop
// request stream served by a processor-sharing CPU. Requests carry a
// CPU demand drawn from the page mix; a fixed latency term covers
// network, database waits, and render pipeline outside the CPU; requests
// exceeding the timeout are dropped ("no longer interesting to the
// users", Section 7.2).
type WebApp struct {
	eng     *sim.Engine
	station *queueing.PSStation
	mix     *workload.PageMix

	metrics Metrics
}

const (
	// webFixedLatency is the CPU-independent response-time component.
	webFixedLatency = 0.25
	// webTimeout drops requests that exceed it (15 s in the paper).
	webTimeout = 15
)

// NewWebApp creates a Wikipedia-like application on a station with the
// given effective CPU capacity (cores).
func NewWebApp(eng *sim.Engine, capacityCores float64, seed int64) *WebApp {
	return &WebApp{
		eng:     eng,
		station: queueing.NewPSStation(eng, capacityCores),
		mix:     workload.NewPageMix(seed),
	}
}

// Metrics returns the collected request metrics.
func (w *WebApp) Metrics() *Metrics { return &w.metrics }

// HandleRequest admits one request at virtual time now.
func (w *WebApp) HandleRequest(now float64, _ int) {
	work := w.mix.Draw()
	start := now
	var job *queueing.Job
	var timeoutH sim.Handle
	job = w.station.Submit(work, func(done float64) {
		timeoutH.Cancel()
		w.metrics.Record(done - start + webFixedLatency)
	})
	h, err := w.eng.After(webTimeout, func(float64) {
		if w.station.Cancel(job) {
			w.metrics.Drop()
		}
	})
	if err == nil {
		timeoutH = h
	}
}

// WikipediaConfig parameterises the Figure 16/17 experiment. The VM
// and its load are Section 7.2's: wikiCores, wikiMemoryMB and
// wikiRatePerSec.
type WikipediaConfig struct {
	// Duration is the measured interval in seconds.
	Duration float64
	// Seed drives all randomness.
	Seed int64
}

const (
	// wikiCores is the VM's nominal CPU allocation (30 in the paper).
	wikiCores = 30
	// wikiMemoryMB is the VM's memory (16 GB in the paper).
	wikiMemoryMB = 16384
	// wikiRatePerSec is the offered load (800 req/s in the paper).
	wikiRatePerSec = 800
	// warmupFrac is the first fraction of every interactive run, which
	// warms the queues and is not measured.
	warmupFrac = 0.15
)

// DefaultWikipediaConfig mirrors Section 7.2's setup with a simulation
// length that keeps percentile estimates stable.
func DefaultWikipediaConfig() WikipediaConfig {
	return WikipediaConfig{Duration: 120, Seed: 1}
}

// WikipediaPoint is one deflation level of the Figure 16/17 sweep.
type WikipediaPoint struct {
	DeflationPct   float64
	Cores          float64 // effective cores after deflation
	Mean           float64
	Median         float64
	P90            float64
	P99            float64
	ServedFraction float64
}

// RunWikipedia measures the Wikipedia application at one CPU deflation
// level, exercising the real transparent mechanism on a real domain to
// derive the effective capacity (Figures 16 and 17).
func RunWikipedia(cfg WikipediaConfig, deflPct float64) (WikipediaPoint, error) {
	if err := checkPct(deflPct); err != nil {
		return WikipediaPoint{}, err
	}
	host, err := hypervisor.NewHost(hypervisor.HostConfig{
		Name:     "wiki-host",
		Capacity: resources.New(48, 131072, 1000, 10000),
	})
	if err != nil {
		return WikipediaPoint{}, err
	}
	d, err := host.Define(hypervisor.DomainConfig{
		Name:       "wiki-vm",
		Size:       resources.New(wikiCores, wikiMemoryMB, 200, 2000),
		Deflatable: true,
		Priority:   0.5,
	})
	if err != nil {
		return WikipediaPoint{}, err
	}
	if err := d.Start(); err != nil {
		return WikipediaPoint{}, err
	}
	if deflPct > 0 {
		target := d.MaxSize().With(resources.CPU, wikiCores*(1-deflPct/100))
		if _, err := (mechanism.Transparent{}).Apply(d, nil, target); err != nil {
			return WikipediaPoint{}, err
		}
	}
	cores := d.Allocation().Get(resources.CPU)

	eng := sim.NewEngine()
	app := NewWebApp(eng, cores, cfg.Seed+1)

	warmupEnd := cfg.Duration * warmupFrac
	src := workload.NewPoissonSource(eng, wikiRatePerSec, cfg.Seed+2, func(now float64, seq int) {
		if now < warmupEnd {
			// Warm the queue without recording.
			app.warmRequest(now)
			return
		}
		app.HandleRequest(now, seq)
	})
	src.Start()
	eng.At(cfg.Duration, func(float64) { src.Stop() })
	eng.RunUntil(cfg.Duration + webTimeout + 1)

	m := app.Metrics()
	mean, median, p90, p99 := m.Summary()
	return WikipediaPoint{
		DeflationPct:   deflPct,
		Cores:          cores,
		Mean:           mean,
		Median:         median,
		P90:            p90,
		P99:            p99,
		ServedFraction: m.ServedFraction(),
	}, nil
}

// warmRequest submits load without recording metrics.
func (w *WebApp) warmRequest(now float64) {
	work := w.mix.Draw()
	var job *queueing.Job
	job = w.station.Submit(work, nil)
	w.eng.After(webTimeout, func(float64) { w.station.Cancel(job) })
}

// WikipediaSweep runs RunWikipedia across the paper's deflation levels
// (0-97%, Figure 16's x-axis).
func WikipediaSweep(cfg WikipediaConfig, deflPcts []float64) ([]WikipediaPoint, error) {
	out := make([]WikipediaPoint, 0, len(deflPcts))
	for _, pct := range deflPcts {
		p, err := RunWikipedia(cfg, pct)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
