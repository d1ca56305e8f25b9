package apps

import (
	"fmt"

	"vmdeflate/internal/loadbalancer"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/sim"
	"vmdeflate/internal/workload"
)

// The Figure 19 experiment: three Wikipedia replicas behind a load
// balancer; two replicas run on deflatable VMs and are deflated equally,
// the third is not deflated (Section 7.3).
const (
	// lbCoresPerReplica is each replica VM's CPU (10 in the paper).
	lbCoresPerReplica = 10
	// lbRatePerSec is the total offered load (200 req/s in the paper).
	lbRatePerSec = 200
	// lbMeanCPUCost is the mean per-request CPU demand in core-seconds.
	// The Figure 19 replica stack is heavier per request than the big
	// Figure 16 VM (smaller instances, full render path).
	lbMeanCPUCost = 0.045
)

// DefaultLBConfig mirrors Section 7.3's setup.
func DefaultLBConfig() Config {
	return Config{Duration: 120, Seed: 1}
}

// RunLBExperiment measures response times through the balancer at one
// deflation level; the point's Cores are a deflated replica's.
// deflationAware selects the paper's modified HAProxy; false is vanilla
// WRR with static equal weights.
func RunLBExperiment(cfg Config, deflPct float64, deflationAware bool) (Point, error) {
	if err := cfg.check(deflPct); err != nil {
		return Point{}, err
	}
	eng := sim.NewEngine()
	cores := make([]float64, 3)
	backends := make([]*loadbalancer.Backend, 3)
	replicas := map[*loadbalancer.Backend]*WebApp{}
	for i := range backends {
		pct := deflPct
		if i == 2 {
			pct = 0
		}
		name := fmt.Sprintf("wiki-replica-%d", i)
		c, err := deflatedCores(name, resources.New(lbCoresPerReplica, 10240, 100, 1000), pct)
		if err != nil {
			return Point{}, err
		}
		app := NewWebApp(eng, c, cfg.Seed+int64(i)+1)
		// Heavier per-request cost for the replica stack.
		app.mix.HitCost = lbMeanCPUCost * 0.3
		app.mix.MissCost = lbMeanCPUCost * 6.13
		cores[i], backends[i] = c, &loadbalancer.Backend{Name: name, Weight: 100}
		replicas[backends[i]] = app
	}

	var lb loadbalancer.Balancer
	if deflationAware {
		da := loadbalancer.NewDeflationAware(backends)
		for i, b := range backends {
			da.ReportCapacity(b, cores[i])
		}
		lb = da
	} else {
		lb = loadbalancer.NewWeightedRoundRobin(backends)
	}

	m := measure(eng, cfg, webTimeout, func(h workload.Handler) *workload.Source {
		return workload.NewPoissonSource(eng, lbRatePerSec, cfg.Seed+10, h)
	}, func(now float64, m *Metrics) {
		if b, err := lb.Pick(); err == nil {
			replicas[b].serve(now, m)
		}
	})
	return m.point(deflPct, cores[0]), nil
}
