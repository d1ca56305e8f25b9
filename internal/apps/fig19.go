package apps

import (
	"fmt"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/loadbalancer"
	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/sim"
	"vmdeflate/internal/workload"
)

// LBConfig parameterises the Figure 19 experiment: three Wikipedia
// replicas behind a load balancer; two replicas run on deflatable VMs
// and are deflated equally, the third is non-deflatable (Section 7.3).
type LBConfig struct {
	// Duration is the measured interval in seconds.
	Duration float64
	// Seed drives all randomness.
	Seed int64
}

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
func DefaultLBConfig() LBConfig {
	return LBConfig{Duration: 120, Seed: 1}
}

// LBPoint is one deflation level of the Figure 19 sweep, for one
// balancing policy.
type LBPoint struct {
	DeflationPct float64
	Mean         float64
	P90          float64
	ServedFrac   float64
}

// RunLBExperiment measures mean and 90th-percentile response time with
// the given balancer construction at one deflation level. deflationAware
// selects the paper's modified HAProxy; false is vanilla WRR with static
// equal weights.
func RunLBExperiment(cfg LBConfig, deflPct float64, deflationAware bool) (LBPoint, error) {
	if err := checkPct(deflPct); err != nil {
		return LBPoint{}, err
	}

	// Three replica VMs on one host; replicas 0 and 1 are deflatable.
	host, err := hypervisor.NewHost(hypervisor.HostConfig{
		Name:     "lb-host",
		Capacity: resources.New(48, 131072, 1000, 10000),
	})
	if err != nil {
		return LBPoint{}, err
	}
	domains := make([]*hypervisor.Domain, 3)
	for i := range domains {
		d, err := host.Define(hypervisor.DomainConfig{
			Name:       fmt.Sprintf("wiki-replica-%d", i),
			Size:       resources.New(lbCoresPerReplica, 10240, 100, 1000),
			Deflatable: i < 2,
			Priority:   0.5,
		})
		if err != nil {
			return LBPoint{}, err
		}
		if err := d.Start(); err != nil {
			return LBPoint{}, err
		}
		domains[i] = d
	}
	if deflPct > 0 {
		for i := 0; i < 2; i++ {
			target := domains[i].MaxSize().
				With(resources.CPU, lbCoresPerReplica*(1-deflPct/100))
			if _, err := (mechanism.Transparent{}).Apply(domains[i], nil, target); err != nil {
				return LBPoint{}, err
			}
		}
	}

	eng := sim.NewEngine()
	apps := make([]*WebApp, 3)
	backends := make([]*loadbalancer.Backend, 3)
	for i := range apps {
		apps[i] = NewWebApp(eng, domains[i].Allocation().Get(resources.CPU), cfg.Seed+int64(i)+1)
		// Heavier per-request cost for the replica stack.
		apps[i].mix.HitCost = lbMeanCPUCost * 0.3
		apps[i].mix.MissCost = lbMeanCPUCost * 6.13
		backends[i] = &loadbalancer.Backend{Name: domains[i].Name(), Weight: 100}
	}

	var lb loadbalancer.Balancer
	if deflationAware {
		da := loadbalancer.NewDeflationAware(backends)
		for i, b := range backends {
			da.ReportCapacity(b, domains[i].Allocation().Get(resources.CPU))
		}
		lb = da
	} else {
		lb = loadbalancer.NewWeightedRoundRobin(backends)
	}

	byName := map[string]*WebApp{}
	for i, b := range backends {
		byName[b.Name] = apps[i]
	}
	var agg Metrics
	warmupEnd := cfg.Duration * warmupFrac
	src := workload.NewPoissonSource(eng, lbRatePerSec, cfg.Seed+10, func(now float64, _ int) {
		b, err := lb.Pick()
		if err != nil {
			return
		}
		app := byName[b.Name]
		if now < warmupEnd {
			app.warmRequest(now)
			return
		}
		serveVia(app, now, &agg)
	})
	src.Start()
	eng.At(cfg.Duration, func(float64) { src.Stop() })
	eng.RunUntil(cfg.Duration + webTimeout + 1)

	mean, _, p90, _ := agg.Summary()
	return LBPoint{
		DeflationPct: deflPct,
		Mean:         mean,
		P90:          p90,
		ServedFrac:   agg.ServedFraction(),
	}, nil
}

// serveVia routes one measured request into app, recording into agg on
// completion or timeout.
func serveVia(app *WebApp, now float64, agg *Metrics) {
	work := app.mix.Draw()
	start := now
	var timeoutH sim.Handle
	j := app.station.Submit(work, func(done float64) {
		timeoutH.Cancel()
		agg.Record(done - start + webFixedLatency)
	})
	if h, err := app.eng.After(webTimeout, func(float64) {
		if app.station.Cancel(j) {
			agg.Drop()
		}
	}); err == nil {
		timeoutH = h
	}
}

// LBSweep runs both balancers across deflation levels (Figure 19's
// x-axis: 0-80%).
func LBSweep(cfg LBConfig, deflPcts []float64) (aware, vanilla []LBPoint, err error) {
	for _, pct := range deflPcts {
		a, err := RunLBExperiment(cfg, pct, true)
		if err != nil {
			return nil, nil, err
		}
		v, err := RunLBExperiment(cfg, pct, false)
		if err != nil {
			return nil, nil, err
		}
		aware = append(aware, a)
		vanilla = append(vanilla, v)
	}
	return aware, vanilla, nil
}
