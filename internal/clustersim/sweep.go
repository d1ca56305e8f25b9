package clustersim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"vmdeflate/internal/notify"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// SweepPoint is one overcommitment level's outcome for one strategy:
// its run's Result at the grid coordinate, with Figure 21's loss in
// percent.
type SweepPoint struct {
	OvercommitPct     float64
	ThroughputLossPct float64
	Result
}

// SweepResult holds a full overcommitment sweep for one strategy.
type SweepResult struct {
	Strategy string
	Points   []SweepPoint
}

// Strategy names used by the Figure 20/21 sweeps.
const (
	StrategyProportional  = "proportional"
	StrategyPriority      = "priority"
	StrategyDeterministic = "deterministic"
	StrategyLatency       = "latency"
	StrategyPartitioned   = "priority+partitioned"
	StrategyPreemption    = "preemption"
)

// Strategies lists all sweep strategies in canonical order.
var Strategies = []string{
	StrategyProportional,
	StrategyPriority,
	StrategyDeterministic,
	StrategyLatency,
	StrategyPartitioned,
	StrategyPreemption,
}

// validateGrid rejects an empty grid and unknown strategy names up
// front: before this check an unrecognised name fell through
// strategyConfig and silently simulated proportional deflation.
func validateGrid(strategies []string, overcommitPcts []float64) error {
	if len(strategies) == 0 || len(overcommitPcts) == 0 {
		return fmt.Errorf("clustersim: empty sweep grid")
	}
	for _, s := range strategies {
		ok := false
		for _, known := range Strategies {
			if s == known {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("clustersim: unknown strategy %q (want %s)", s, strings.Join(Strategies, ", "))
		}
	}
	return nil
}

// strategyConfig builds the Config for one validated strategy name. The
// four single-policy strategies are named after their policy.
func strategyConfig(tr *trace.AzureTrace, strategy string, baseline int, oc float64) Config {
	cfg := Config{
		Trace:           tr,
		Overcommit:      oc,
		BaselineServers: baseline,
	}
	switch strategy {
	case StrategyPartitioned:
		cfg.Policy = policy.Priority{}
		cfg.Partitioned = true
	case StrategyPreemption:
		cfg.Mode = ModePreemption
	default:
		// validateGrid admitted the name, so ByName cannot fail.
		cfg.Policy, _ = policy.ByName(strategy)
	}
	return cfg
}

// Options tunes how a sweep executes. The zero value runs on all cores
// with everything derived from the trace.
type Options struct {
	// Workers bounds worker-pool concurrency: 0 means GOMAXPROCS, 1
	// forces a strictly sequential sweep. Because every grid point runs
	// in its own share-nothing Engine and results land in
	// position-indexed slots, the worker count never changes the
	// output — only the wall clock.
	Workers int
	// BaselineServers pins the no-overcommitment cluster size; when 0
	// it is computed once from the trace so that every grid point sees
	// an identically sized cluster.
	BaselineServers int
	// Notify, when set, is attached to every run's cluster manager. The
	// bus fans out concurrently from all workers; subscribers must be
	// thread-safe.
	Notify *notify.Bus
	// ShockConfig, when set, is passed through to every run's
	// Config.ShockConfig: each grid point replays the capacity-shock
	// schedule generated for its own cluster size, so the deflation
	// strategies and the preemption baseline face identical transiency.
	ShockConfig *trace.ShockConfig
	// SLO, when set, turns on SLO metering for every deflation-mode grid
	// point and is additionally synced into any latency-aware policy's
	// curve and threshold, so the policy plans against exactly the model
	// the metrics judge it by. The "latency" strategy is meaningful only
	// with this set (without it every VM's load reads zero).
	SLO *SLOConfig
}

func (o Options) workers(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runJobs executes job(0..n-1) on a pool of workers. Each job must
// write only to its own result slot; with that discipline the schedule
// cannot influence the output.
func runJobs(n, workers int, job func(i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// applySLO attaches the sweep's SLO config to one grid point's Config
// and keeps a latency-aware policy's planning model in lockstep with
// the metering model.
func applySLO(cfg *Config, slo *SLOConfig) {
	if slo == nil {
		return
	}
	cfg.SLO = slo
	if la, ok := cfg.Policy.(policy.LatencyAware); ok {
		la.Curve = slo.Curve
		la.MaxSlowdown = slo.MaxSlowdown
		cfg.Policy = la
	}
}

// sweepPoint projects one run's Result onto its grid point.
func sweepPoint(pct float64, res *Result) SweepPoint {
	return SweepPoint{OvercommitPct: pct, ThroughputLossPct: res.ThroughputLoss * 100, Result: *res}
}

// firstError returns the lowest-indexed non-nil error, so the reported
// failure is independent of worker scheduling.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SweepGrid runs every strategy × overcommitment point of the grid on a
// worker pool and returns one SweepResult per strategy, in input order.
// The baseline cluster size is computed once from the trace so all
// points see identical clusters, each point runs in its own Engine, and
// results are written into position-indexed slots — so the output is
// bit-for-bit identical whether Workers is 1 or GOMAXPROCS.
func SweepGrid(tr *trace.AzureTrace, strategies []string, overcommitPcts []float64, opts Options) ([]*SweepResult, error) {
	return sweepGrid(tr, nil, strategies, overcommitPcts, opts)
}

// SweepGridStream is SweepGrid over a streaming trace: every grid point
// runs with Config.Stream set, so the sweep never materialises the
// trace — each concurrent engine synthesises its own arrivals from the
// shared read-only stream. Results are bit-for-bit those of SweepGrid
// over s.Materialize() (the streamed differential suite's guarantee),
// the preemption baseline's points included.
func SweepGridStream(s *trace.Stream, strategies []string, overcommitPcts []float64, opts Options) ([]*SweepResult, error) {
	return sweepGrid(nil, s, strategies, overcommitPcts, opts)
}

func sweepGrid(tr *trace.AzureTrace, s *trace.Stream, strategies []string, overcommitPcts []float64, opts Options) ([]*SweepResult, error) {
	if err := validateGrid(strategies, overcommitPcts); err != nil {
		return nil, err
	}
	rep := replicate{tr: tr, s: s, baseline: opts.BaselineServers}
	if rep.baseline <= 0 {
		var err error
		if rep.baseline, _, err = sizeFleet(newRowSource(tr, s), DefaultServerCapacity()); err != nil {
			return nil, err
		}
	}
	out, err := runGrid([]replicate{rep}, strategies, overcommitPcts, opts)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// replicate is one trace a grid runs over: eager or streamed, with the
// baseline fleet size every point on it shares. label prefixes its
// points' errors.
type replicate struct {
	tr       *trace.AzureTrace
	s        *trace.Stream
	baseline int
	label    string
}

// runGrid is the one grid-point runner behind SweepGrid, SweepGridStream
// and ReplicatedSweep: it runs every replicate × strategy ×
// overcommitment point on the worker pool, each in its own Engine with
// its result in a position-indexed slot, and returns the points indexed
// [replicate][strategy].
func runGrid(reps []replicate, strategies []string, overcommitPcts []float64, opts Options) ([][]*SweepResult, error) {
	nOC := len(overcommitPcts)
	perRep := len(strategies) * nOC
	jobs := len(reps) * perRep
	points := make([]SweepPoint, jobs)
	errs := make([]error, jobs)
	runJobs(jobs, opts.workers(jobs), func(i int) {
		rep, rest := &reps[i/perRep], i%perRep
		strategy, pct := strategies[rest/nOC], overcommitPcts[rest%nOC]
		cfg := strategyConfig(rep.tr, strategy, rep.baseline, pct/100)
		cfg.Stream = rep.s
		cfg.Notify = opts.Notify
		cfg.ShockConfig = opts.ShockConfig
		applySLO(&cfg, opts.SLO)
		res, err := Run(cfg)
		if err != nil {
			errs[i] = fmt.Errorf("clustersim: %s%s @ %g%% OC: %w", rep.label, strategy, pct, err)
			return
		}
		points[i] = sweepPoint(pct, res)
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	out := make([][]*SweepResult, len(reps))
	for r := range reps {
		out[r] = make([]*SweepResult, len(strategies))
		for si, strategy := range strategies {
			// Full slice expression: capping capacity keeps a caller's
			// append from bleeding into the next strategy's points.
			lo := r*perRep + si*nOC
			out[r][si] = &SweepResult{Strategy: strategy, Points: points[lo : lo+nOC : lo+nOC]}
		}
	}
	return out, nil
}

// ReplicatedSweep fans a strategy × overcommitment grid out over
// independently generated traces, one per seed: each replicate's trace
// is synthesised inside the worker with its own seeded RNG (gen must be
// a pure function of the seed, e.g. a trace.Scenario generator), its
// baseline cluster size is derived from its own trace, and then all
// replicate × strategy × overcommitment points run on the pool. The
// result is indexed [replicate][strategy] and is bit-for-bit
// reproducible for a given seed list regardless of worker count.
func ReplicatedSweep(gen func(seed int64) *trace.AzureTrace, seeds []int64, strategies []string, overcommitPcts []float64, opts Options) ([][]*SweepResult, error) {
	if gen == nil || len(seeds) == 0 {
		return nil, fmt.Errorf("clustersim: replicated sweep needs a generator and seeds")
	}
	if err := validateGrid(strategies, overcommitPcts); err != nil {
		return nil, err
	}

	// Phase 1 (parallel over replicates): per-run RNG trace generation
	// plus the expensive baseline bound, both deterministic per seed.
	reps := make([]replicate, len(seeds))
	errs := make([]error, len(seeds))
	runJobs(len(seeds), opts.workers(len(seeds)), func(r int) {
		tr := gen(seeds[r])
		base, err := BaselineServerCount(tr, DefaultServerCapacity())
		if err != nil {
			errs[r] = fmt.Errorf("clustersim: replicate seed %d: %w", seeds[r], err)
			return
		}
		reps[r] = replicate{tr: tr, baseline: base, label: fmt.Sprintf("seed %d ", seeds[r])}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	// Phase 2 (parallel over everything): the full point grid.
	return runGrid(reps, strategies, overcommitPcts, opts)
}

// AverageSweeps reduces per-replicate sweeps (as returned by
// ReplicatedSweep) to their pointwise mean, for plotting a scenario's
// expected curve with seed noise averaged out. The mean point carries
// the failure probability, throughput loss, revenue, fleet, shock and
// SLO figures a sweep plots; counts are rounded to the nearest
// integer, and the rest of its Result is zero.
func AverageSweeps(reps [][]*SweepResult) []*SweepResult {
	if len(reps) == 0 {
		return nil
	}
	n := float64(len(reps))
	out := make([]*SweepResult, len(reps[0]))
	for si, first := range reps[0] {
		avg := &SweepResult{Strategy: first.Strategy, Points: make([]SweepPoint, len(first.Points))}
		for pi, p := range first.Points {
			acc := SweepPoint{OvercommitPct: p.OvercommitPct, Result: Result{Revenue: map[string]float64{}}}
			var servers, admitted, revocations, evacuations, kills float64
			for _, rep := range reps {
				q := rep[si].Points[pi]
				acc.FailureProbability += q.FailureProbability / n
				acc.ThroughputLossPct += q.ThroughputLossPct / n
				acc.DisplacedDowntime += q.DisplacedDowntime / n
				acc.OnDemandRevenue += q.OnDemandRevenue / n
				acc.FleetCost += q.FleetCost / n
				acc.SLOViolationSeconds += q.SLOViolationSeconds / n
				acc.SLOViolationRate += q.SLOViolationRate / n
				acc.SLOLatencyP99 += q.SLOLatencyP99 / n
				servers += float64(q.Servers) / n
				admitted += float64(q.Admitted) / n
				revocations += float64(q.Revocations) / n
				evacuations += float64(q.Evacuations) / n
				kills += float64(q.ShockKills) / n
				for name, v := range q.Revenue {
					acc.Revenue[name] += v / n
				}
			}
			acc.Servers = int(servers + 0.5)
			acc.Admitted = int(admitted + 0.5)
			acc.Revocations = int(revocations + 0.5)
			acc.Evacuations = int(evacuations + 0.5)
			acc.ShockKills = int(kills + 0.5)
			avg.Points[pi] = acc
		}
		out[si] = avg
	}
	return out
}

// RevenueIncrease converts a sweep's revenue series into Figure 22's
// "increase in revenue %": revenue from deflatable VMs *per server*
// relative to the same scheme at the sweep's first point (nominally 0%
// overcommitment). Per-server normalisation is the paper's framing —
// "priority-based pricing increases the revenue per server by 2x" —
// since overcommitting means serving the same low-priority demand on
// fewer machines.
func RevenueIncrease(sr *SweepResult, scheme string) []float64 {
	if len(sr.Points) == 0 {
		return nil
	}
	first := sr.Points[0]
	if first.Servers == 0 {
		return make([]float64, len(sr.Points))
	}
	base := first.Revenue[scheme] / float64(first.Servers)
	out := make([]float64, len(sr.Points))
	for i, p := range sr.Points {
		if base > 0 && p.Servers > 0 {
			out[i] = (p.Revenue[scheme]/float64(p.Servers)/base - 1) * 100
		}
	}
	return out
}
