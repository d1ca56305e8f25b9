package apps

import (
	"math/rand"

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
}

// Per-visit CPU costs are calibrated so that at the paper's 500 req/s
// the deflatable tiers run near 38% utilisation undeflated, cross ~95%
// at 60% deflation and saturate (rho > 1) at 65% — producing the
// flat-then-abrupt shape of Figure 18.
const (
	// Per-tier mean CPU cost (seconds) per visit.
	snFrontendCost = 0.0045
	snLogicCost    = 0.0057
	snCacheCost    = 0.0012
	snDBCost       = 0.004
	// snLogicFanout parallel logic calls and snCacheLookups+snDBLookups
	// parallel backend calls per request.
	snLogicFanout  = 4
	snCacheLookups = 2
	snDBLookups    = 1
	// snHopLatency is fixed network latency per tier crossing.
	snHopLatency = 0.002
	// snTimeout drops requests exceeding it.
	snTimeout = 60
	// snRatePerSec is the offered load (500 req/s in the paper).
	snRatePerSec = 500
)

// DefaultSocialNetConfig mirrors Section 7.2: 500 req/s with wrk2-style
// constant throughput.
func DefaultSocialNetConfig() Config {
	return Config{Duration: 60, Seed: 1}
}

// snRequest tracks one in-flight request across tiers for timeout
// cancellation.
type snRequest struct {
	m        *Metrics
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
	sn := &SocialNetwork{eng: eng, rng: rand.New(rand.NewSource(seed))}
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

func (sn *SocialNetwork) cost(mean float64) float64 {
	return mean * (0.5 + sn.rng.Float64())
}

func (sn *SocialNetwork) pick(tier []*queueing.PSStation) *queueing.PSStation {
	return tier[sn.rng.Intn(len(tier))]
}

// HandleRequest admits one request at virtual time now and records its
// outcome into m; a warm-up request carries a nil m.
func (sn *SocialNetwork) HandleRequest(now float64, m *Metrics) {
	r := &snRequest{m: m, start: now}
	if h, err := sn.eng.After(snTimeout, func(float64) { r.abort() }); err == nil {
		r.timeoutH = h
	}

	// Tier 3 -> completion.
	finish := func(done float64) {
		r.timeoutH.Cancel()
		m.Record(done - r.start + 3*snHopLatency)
	}
	// Tier 2 -> tier 3 (backend fan-out).
	backends := func(now2 float64) {
		r.fanOut(now2, snCacheLookups+snDBLookups, finish, func(i int) (*queueing.PSStation, float64) {
			if i < snCacheLookups {
				return sn.pick(sn.cache), sn.cost(snCacheCost)
			}
			return sn.pick(sn.db), sn.cost(snDBCost)
		})
	}
	// Tier 1 -> tier 2 (logic fan-out).
	logic := func(now1 float64) {
		r.fanOut(now1, snLogicFanout, backends, func(int) (*queueing.PSStation, float64) {
			return sn.pick(sn.logic), sn.cost(snLogicCost)
		})
	}
	// Tier 0: one frontend visit.
	r.fanOut(now, 1, logic, func(int) (*queueing.PSStation, float64) {
		return sn.pick(sn.frontend), sn.cost(snFrontendCost)
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
func (r *snRequest) abort() {
	if r.timedOut {
		return
	}
	r.timedOut = true
	for _, pj := range r.pending {
		if pj.job != nil {
			pj.st.Cancel(pj.job)
		}
	}
	r.m.Drop()
}

// RunSocialNetwork measures the social network at one deflation level:
// 22 of 30 microservice containers (everything except the databases) are
// deflated by deflPct using the real transparent mechanism on a
// cgroup-limited container domain (Figure 18): 2 cores max, 0.05 min
// (hypervisor.DefaultFloor), 800 MB each (Section 7.2).
func RunSocialNetwork(cfg Config, deflPct float64) (Point, error) {
	if err := cfg.check(deflPct); err != nil {
		return Point{}, err
	}
	cores, err := deflatedCores("usvc-container", resources.New(2, 800, 0, 0), deflPct)
	if err != nil {
		return Point{}, err
	}
	eng := sim.NewEngine()
	sn := NewSocialNetwork(eng, cfg.Seed+1, cores, cores, cores, 2)
	m := measure(eng, cfg, snTimeout, func(h workload.Handler) *workload.Source {
		return workload.NewConstantSource(eng, snRatePerSec, h)
	}, sn.HandleRequest)
	return m.point(deflPct, cores), nil
}
