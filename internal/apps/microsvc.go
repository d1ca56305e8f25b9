package apps

import (
	"fmt"
	"math/rand"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/queueing"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/sim"
	"vmdeflate/internal/workload"
)

// SocialNetwork models the DeathStarBench social-network application of
// Section 7.1.1 (Figure 15): 30 microservices in three logical tiers —
// 3 frontend, 15 logic, and 12 backend (4 memcached + 8 databases). A
// request passes a frontend service, fans out to several logic services
// in parallel, then performs parallel backend lookups; its response time
// is the critical path through the tiers. Each microservice runs in a
// container (max 2 cores, min 0.05) modelled as a processor-sharing
// station whose capacity comes from a real cgroup-limited domain.
//
// Section 7.2 deflates 22 of the 30 services (everything except the 8
// databases); RunSocialNetwork reproduces that exactly.
type SocialNetwork struct {
	eng *sim.Engine
	rng *rand.Rand

	frontend []*queueing.PSStation
	logic    []*queueing.PSStation
	cache    []*queueing.PSStation
	db       []*queueing.PSStation

	// Per-tier mean CPU cost (seconds) per visit.
	FrontendCost, LogicCost, CacheCost, DBCost float64
	// LogicFanout parallel logic calls and CacheLookups+DBLookups
	// parallel backend calls per request.
	LogicFanout, CacheLookups, DBLookups int
	// HopLatency is fixed network latency per tier crossing.
	HopLatency float64
	// Timeout drops requests exceeding it.
	Timeout float64

	metrics Metrics
}

// SocialNetConfig parameterises the Figure 18 experiment.
type SocialNetConfig struct {
	// RatePerSec is the offered load (500 req/s in the paper).
	RatePerSec float64
	// Duration is the measured interval (seconds).
	Duration float64
	// WarmupFrac discards the first fraction of the run.
	WarmupFrac float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultSocialNetConfig mirrors Section 7.2: 500 req/s with wrk2-style
// constant throughput.
func DefaultSocialNetConfig() SocialNetConfig {
	return SocialNetConfig{RatePerSec: 500, Duration: 60, WarmupFrac: 0.15, Seed: 1}
}

// SocialNetPoint is one deflation level of the Figure 18 sweep.
type SocialNetPoint struct {
	DeflationPct   float64
	Median         float64
	P90            float64
	P99            float64
	ServedFraction float64
}

// request tracks one in-flight request across tiers for timeout
// cancellation.
type snRequest struct {
	app      *SocialNetwork
	start    float64
	pending  []*pendingJob
	timedOut bool
	timeoutH sim.Handle
	remain   int
	next     func(now float64)
}

type pendingJob struct {
	st  *queueing.PSStation
	job *queueing.Job
}

// NewSocialNetwork builds the 30-service application with per-tier
// capacities (cores per container instance).
func NewSocialNetwork(eng *sim.Engine, seed int64, feCap, logicCap, cacheCap, dbCap float64) *SocialNetwork {
	// Per-visit CPU costs are calibrated so that at the paper's 500 req/s
	// the deflatable tiers run near 38% utilisation undeflated, cross
	// ~95% at 60% deflation and saturate (rho > 1) at 65% — producing the
	// flat-then-abrupt shape of Figure 18.
	sn := &SocialNetwork{
		eng:          eng,
		rng:          rand.New(rand.NewSource(seed)),
		FrontendCost: 0.0045,
		LogicCost:    0.0057,
		CacheCost:    0.0012,
		DBCost:       0.004,
		LogicFanout:  4,
		CacheLookups: 2,
		DBLookups:    1,
		HopLatency:   0.002,
		Timeout:      60,
	}
	for i := 0; i < 3; i++ {
		sn.frontend = append(sn.frontend, queueing.NewPSStation(eng, feCap))
	}
	for i := 0; i < 15; i++ {
		sn.logic = append(sn.logic, queueing.NewPSStation(eng, logicCap))
	}
	for i := 0; i < 4; i++ {
		sn.cache = append(sn.cache, queueing.NewPSStation(eng, cacheCap))
	}
	for i := 0; i < 8; i++ {
		sn.db = append(sn.db, queueing.NewPSStation(eng, dbCap))
	}
	return sn
}

// Services returns the total number of microservices (30).
func (sn *SocialNetwork) Services() int {
	return len(sn.frontend) + len(sn.logic) + len(sn.cache) + len(sn.db)
}

// Metrics returns collected request metrics.
func (sn *SocialNetwork) Metrics() *Metrics { return &sn.metrics }

func (sn *SocialNetwork) cost(mean float64) float64 {
	return mean * (0.5 + sn.rng.Float64())
}

func (sn *SocialNetwork) pick(tier []*queueing.PSStation) *queueing.PSStation {
	return tier[sn.rng.Intn(len(tier))]
}

// HandleRequest admits one request; record=false during warmup.
func (sn *SocialNetwork) HandleRequest(now float64, record bool) {
	r := &snRequest{app: sn, start: now}
	if h, err := sn.eng.After(sn.Timeout, func(float64) { r.abort(record) }); err == nil {
		r.timeoutH = h
	}

	// Tier 3 -> completion.
	finish := func(done float64) {
		r.timeoutH.Cancel()
		if record {
			sn.metrics.Record(done - r.start + 3*sn.HopLatency)
		}
	}
	// Tier 2 -> tier 3 (backend fan-out).
	backends := func(now2 float64) {
		n := sn.CacheLookups + sn.DBLookups
		r.fanOut(now2, n, finish, func(i int) (*queueing.PSStation, float64) {
			if i < sn.CacheLookups {
				return sn.pick(sn.cache), sn.cost(sn.CacheCost)
			}
			return sn.pick(sn.db), sn.cost(sn.DBCost)
		})
	}
	// Tier 1 -> tier 2 (logic fan-out).
	logic := func(now1 float64) {
		r.fanOut(now1, sn.LogicFanout, backends, func(int) (*queueing.PSStation, float64) {
			return sn.pick(sn.logic), sn.cost(sn.LogicCost)
		})
	}
	// Tier 0: one frontend visit.
	r.fanOut(now, 1, logic, func(int) (*queueing.PSStation, float64) {
		return sn.pick(sn.frontend), sn.cost(sn.FrontendCost)
	})
}

// fanOut submits n parallel sub-jobs and calls next when all complete.
func (r *snRequest) fanOut(now float64, n int, next func(float64), pick func(i int) (*queueing.PSStation, float64)) {
	if r.timedOut {
		return
	}
	r.remain = n
	r.next = next
	r.pending = r.pending[:0]
	for i := 0; i < n; i++ {
		st, work := pick(i)
		var pj *pendingJob
		job := st.Submit(work, func(done float64) {
			if r.timedOut {
				return
			}
			pj.job = nil
			r.remain--
			if r.remain == 0 {
				r.next(done)
			}
		})
		pj = &pendingJob{st: st, job: job}
		r.pending = append(r.pending, pj)
	}
}

// abort cancels all outstanding sub-jobs on timeout.
func (r *snRequest) abort(record bool) {
	if r.timedOut {
		return
	}
	r.timedOut = true
	for _, pj := range r.pending {
		if pj.job != nil {
			pj.st.Cancel(pj.job)
		}
	}
	if record {
		r.app.metrics.Drop()
	}
}

// RunSocialNetwork measures the social network at one deflation level:
// 22 of 30 microservice containers (everything except the databases) are
// deflated by deflPct using the real transparent mechanism on
// cgroup-limited container domains (Figure 18).
func RunSocialNetwork(cfg SocialNetConfig, deflPct float64) (SocialNetPoint, error) {
	if deflPct < 0 || deflPct >= 100 {
		return SocialNetPoint{}, fmt.Errorf("apps: deflation %g%% out of range", deflPct)
	}
	// Containers: 2 cores max, 0.05 min, 800 MB each (Section 7.2).
	host, err := hypervisor.NewHost(hypervisor.HostConfig{
		Name:     "swarm-node",
		Capacity: resources.New(64, 262144, 2000, 20000),
	})
	if err != nil {
		return SocialNetPoint{}, err
	}
	container, err := host.Define(hypervisor.DomainConfig{
		Name:          "usvc-container",
		Size:          resources.New(2, 800, 0, 0),
		Deflatable:    true,
		Priority:      0.5,
		MinAllocation: resources.New(0.05, 64, 0, 0),
	})
	if err != nil {
		return SocialNetPoint{}, err
	}
	if err := container.Start(); err != nil {
		return SocialNetPoint{}, err
	}
	if deflPct > 0 {
		target := container.MaxSize().With(resources.CPU, 2*(1-deflPct/100))
		if _, err := (mechanism.Transparent{}).Apply(container, target); err != nil {
			return SocialNetPoint{}, err
		}
	}
	deflatedCap := container.Effective().Get(resources.CPU)

	eng := sim.NewEngine(cfg.Seed)
	sn := NewSocialNetwork(eng, cfg.Seed+1, deflatedCap, deflatedCap, deflatedCap, 2)

	warmupEnd := cfg.Duration * cfg.WarmupFrac
	src := workload.NewConstantSource(eng, cfg.RatePerSec, func(now float64, _ int) {
		sn.HandleRequest(now, now >= warmupEnd)
	})
	src.Start()
	eng.At(cfg.Duration, func(float64) { src.Stop() })
	eng.RunUntil(cfg.Duration + sn.Timeout + 1)

	m := sn.Metrics()
	_, median, p90, p99 := m.Summary()
	return SocialNetPoint{
		DeflationPct:   deflPct,
		Median:         median,
		P90:            p90,
		P99:            p99,
		ServedFraction: m.ServedFraction(),
	}, nil
}

// SocialNetworkSweep runs RunSocialNetwork at the paper's levels
// (0, 30, 50, 60, 65 in Figure 18).
func SocialNetworkSweep(cfg SocialNetConfig, deflPcts []float64) ([]SocialNetPoint, error) {
	out := make([]SocialNetPoint, 0, len(deflPcts))
	for _, pct := range deflPcts {
		p, err := RunSocialNetwork(cfg, pct)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
