package apps

import (
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

// serve admits one request at virtual time now and records its outcome
// into m: a response time on completion, a drop on timeout. A warm-up
// request carries a nil m.
func (w *WebApp) serve(now float64, m *Metrics) {
	var job *queueing.Job
	var timeoutH sim.Handle
	job = w.station.Submit(w.mix.Draw(), func(done float64) {
		timeoutH.Cancel()
		m.Record(done - now + webFixedLatency)
	})
	if h, err := w.eng.After(webTimeout, func(float64) {
		if w.station.Cancel(job) {
			m.Drop()
		}
	}); err == nil {
		timeoutH = h
	}
}

// The Figure 16/17 VM and its load are Section 7.2's.
const (
	// wikiCores is the VM's nominal CPU allocation (30 in the paper).
	wikiCores = 30
	// wikiMemoryMB is the VM's memory (16 GB in the paper).
	wikiMemoryMB = 16384
	// wikiRatePerSec is the offered load (800 req/s in the paper).
	wikiRatePerSec = 800
)

// DefaultWikipediaConfig mirrors Section 7.2's setup with a simulation
// length that keeps percentile estimates stable.
func DefaultWikipediaConfig() Config {
	return Config{Duration: 120, Seed: 1}
}

// RunWikipedia measures the Wikipedia application at one CPU deflation
// level, exercising the real transparent mechanism on a real domain to
// derive the effective capacity (Figures 16 and 17).
func RunWikipedia(cfg Config, deflPct float64) (Point, error) {
	if err := cfg.check(deflPct); err != nil {
		return Point{}, err
	}
	cores, err := deflatedCores("wiki-vm", resources.New(wikiCores, wikiMemoryMB, 200, 2000), deflPct)
	if err != nil {
		return Point{}, err
	}
	eng := sim.NewEngine()
	app := NewWebApp(eng, cores, cfg.Seed+1)
	m := measure(eng, cfg, webTimeout, func(h workload.Handler) *workload.Source {
		return workload.NewPoissonSource(eng, wikiRatePerSec, cfg.Seed+2, h)
	}, app.serve)
	return m.point(deflPct, cores), nil
}
