// Package clustersim is the trace-driven discrete-event cluster
// simulator of Section 7.1.2 (the paper's ~2,000-line Python framework),
// re-implemented as a proper simulation engine on top of the full
// substrate.
//
// # Architecture
//
// The package is layered as four cooperating pieces:
//
//   - rows.go — the row source: everything a run reads about a VM,
//     addressed by trace row, through one of two adapters (an eager
//     AzureTrace or a trace.Stream), plus the geometry built from it —
//     rows sorted by start and by end — whose merge walk drives fleet
//     sizing (sizing.go) and the pool planner. Nothing outside the
//     adapter choice asks which kind of trace a run has.
//   - events.go — the event core: typed sample/departure/shock/arrival
//     events in a stable (time, kind, trace-row) total order. Arrivals
//     stay latent in the trace — one intake (streamQueue) delivers them
//     from the geometry's arrival-order column as the run reaches them
//     — departures are scheduled lazily when a VM is admitted and sample
//     events reschedule themselves, so the binary heap under the intake
//     (eventHeap) holds what is live, never the whole trace's event
//     list.
//   - engine.go — the Engine: one self-contained run. It owns every
//     piece of mutable state (cluster manager, metering table, queue,
//     metric accumulators), which makes independent runs share-nothing
//     and therefore safe to execute concurrently. Its one event loop
//     serves both modes: it batches same-instant events and hands each
//     batch to the mode, deflation through the manager or the
//     preemption baseline (preemption.go), which places by tightest fit
//     over sizing.go's fleet order and kills instead of deflating. The
//     trace row is its only VM handle: events carry it, evacuation
//     outcomes return it, and one int32 per row maps it to the VM's row
//     of a dense by-value table that holds the running deflatable VMs
//     (on-demand VMs are metered for nothing and get no row). Placements
//     flow through the manager's incremental capacity index
//     (internal/cluster/capindex), and runs of same-timestamp
//     departures are coalesced into one batched removal so each
//     affected server reinflates once per instant instead of once per
//     departing VM.
//   - sweep.go — the sweep layer: a worker pool that fans strategy ×
//     overcommitment grid points (and independently seeded scenario
//     replicates) out across GOMAXPROCS cores, producing bit-for-bit
//     the same results as a sequential sweep because each point runs in
//     its own Engine and all randomness is seeded per run.
//
// # One goroutine per run
//
// The sweep's worker pool is the only parallelism: a run itself is
// sequential. Arrivals are placed one at a time in trace order, each
// against the state every earlier decision left, departures reinflate
// their servers one after another, and the sample pass meters the
// table row by row. Results do not depend on the order swap-removes
// have left the table in, because no floating-point accumulation
// crosses rows: per-VM results are computed in isolation and merged in
// a canonical order (demand/loss integrals per VM, then summed in
// departure (time, trace-row) order), and the SLO counters are
// integers. The indexed placer equals the reference placement bit for
// bit, proven by the differential suite.
//
// VM records from an Azure-like trace (or one of the synthetic
// scenario generators in internal/trace: diurnal, bursty/flash-crowd,
// heavy-tail) arrive and depart on their trace timestamps, are placed
// by the cluster manager (cosine-fitness placement, Section 5.2),
// deflated by the configured server-level policy through the
// transparent mechanism, and reinflate as capacity frees. The simulator
// measures the three cluster-level outcomes of Section 7.4:
//
//   - failure probability (Figure 20): for deflation policies, the
//     probability that a reclamation attempt cannot free enough
//     resources; for the preemption baseline, the probability that a
//     low-priority VM is preempted;
//   - throughput loss (Figure 21): demand above the deflated allocation
//     integrated over time (the Figure 4 area), relative to total demand;
//   - revenue from deflatable VMs (Figure 22) under the three pricing
//     schemes of Section 5.2.2.
//
// Per the paper, interactive VMs are deflatable and batch/unknown VMs
// are on-demand, which makes roughly half the VMs deflatable; priorities
// come from the 95th-percentile CPU utilisation quantised to four
// levels.
package clustersim

import (
	"fmt"
	"math"

	"vmdeflate/internal/cluster"
	"vmdeflate/internal/notify"
	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/pricing"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// SLOConfig enables request-latency SLO metering. At every 5-minute
// sample the engine maps each deflatable VM's offered load (from its
// utilisation trace) and current allocation to a request-slowdown ratio
// through the closed-form processor-sharing model
// (perfmodel.PSSlowdownRatio) composed with the application's
// deflation-response curve — the model the latency-aware policy plans
// against — and accumulates violation time, a slowdown histogram and
// per-priority violation seconds into the Result. Only a sweep keeps the
// two in step: SweepGrid and its stream and replicated forms copy Curve
// and MaxSlowdown into a policy.LatencyAware (applySLO). A single Run
// does not, so a LatencyAware in Config.Policy plans with its own fields
// whatever this config meters: bench's slo-bursty workload plans at
// policy.DefaultMaxSlowdown (3x) against a 2x meter. The engine also
// publishes each VM's sampled load to its domain
// (Domain.SetOfferedLoad: a plain field write that dirties no server), which
// is what makes the latency-aware policy load-sensitive; without an
// SLOConfig loads stay zero and runs are bit-for-bit identical to
// pre-SLO builds.
type SLOConfig struct {
	// Curve maps deflation to retained performance for the effective
	// service rate. The zero value means the worst-case linear curve.
	Curve perfmodel.Curve
	// MaxSlowdown is the violation threshold: a sample violates the SLO
	// when its modelled sojourn-time ratio versus the undeflated VM
	// exceeds this. Values below 1 select policy.DefaultMaxSlowdown;
	// NaN and ±Inf are errors.
	MaxSlowdown float64
}

// Mode selects the resource-reclamation strategy under test.
type Mode int

const (
	// ModeDeflation reclaims resources with the configured policy.
	ModeDeflation Mode = iota
	// ModePreemption is the baseline: no deflation; low-priority VMs are
	// killed to make room under pressure (today's transient servers).
	ModePreemption
)

// Config parameterises one simulation run.
type Config struct {
	// Trace supplies VM arrivals, sizes, classes and utilisation. The
	// trace is treated as immutable: concurrent engines may share one,
	// and with it the P95 column the first run derives from it (a run
	// that finds VMs added or dropped since then returns an error).
	// Exactly one of Trace and Stream must be set.
	Trace *trace.AzureTrace
	// Stream supplies the same trace lazily: per-VM parameters are
	// generated when the run asks about a row, P95s are synthesized at
	// admission and utilisation samples through per-VM cursors, so
	// resident memory is O(live VMs) plus a setup-time geometry of a
	// few words per VM, instead of O(trace). Trace and Stream are the
	// two adapters of one row source: sizing, the pool planner, the
	// arrival queue and admission read both the same way, so results
	// are bit-for-bit identical to running the materialised form of the
	// same stream through Trace (guarded by the adapter-agreement test
	// and the streamed differential suite), in either mode. A Stream is
	// immutable: concurrent engines may share one.
	Stream *trace.Stream
	// Mode selects deflation or the preemption baseline; any other value
	// is an error. Both run on the engine's one event loop, with the same
	// queue, batching and shock bookkeeping; only what a batch does
	// differs.
	Mode Mode
	// Policy configures deflation (ignored for preemption). Deflation
	// targets are applied by the transparent mechanism, the one Section
	// 7.4's cluster evaluation runs.
	Policy policy.Policy
	// Partitioned enables priority-partitioned pools (Section 5.2.1).
	Partitioned bool
	// Overcommit is the target cluster overcommitment fraction: the
	// cluster is sized to BaselineServers/(1+Overcommit).
	Overcommit float64
	// BaselineServers overrides the no-overcommitment cluster size; when
	// zero it is derived from the trace's peak committed demand. A
	// negative size is an error.
	BaselineServers int
	// Notify, when set, receives an event for every allocation change
	// the cluster manager makes during the run. The bus is safe to
	// share between concurrently running engines.
	Notify *notify.Bus
	// Shocks is an explicit capacity-shock schedule: revocations and
	// restorations of specific servers by provisioning index. Shocks
	// addressing servers beyond the run's provisioned count are ignored,
	// so one schedule can be replayed against clusters of different
	// sizes. In deflation mode a revoked server's VMs are deflation-first
	// evacuated through the batch placement engine; in preemption mode
	// they die — today's transient servers.
	Shocks []trace.CapacityShock
	// ShockConfig, when set and Shocks is nil, generates the schedule
	// for the run's own server count (trace.GenerateShocks) — the form
	// sweeps use, since every grid point provisions a different cluster
	// size. A zero Duration defaults to the trace horizon.
	ShockConfig *trace.ShockConfig
	// SLO, when set, meters request-latency SLO violations every sample
	// (deflation mode only) and feeds each VM's offered load to its
	// domain so latency-aware policies can read it. Nil disables both:
	// non-SLO runs carry zero loads and unchanged results.
	SLO *SLOConfig
}

// DefaultServerCapacity is the paper's server: 48 CPUs, 128 GB RAM.
// Every run provisions it; the sizing entry points take a capacity
// argument.
func DefaultServerCapacity() resources.Vector {
	return resources.CPUMem(48, 131072)
}

// The constants of Section 7.4's cluster evaluation, which every run
// uses.
const (
	// priorityLevels quantises p95-derived priorities: one level per
	// cluster priority pool.
	priorityLevels = cluster.PriorityLevels
	// evacuationDowntime is the modelled downtime in seconds charged to
	// each successfully evacuated VM (Result.DisplacedDowntime): it is
	// accounting only and does not feed back into placement.
	evacuationDowntime = 30.0
)

// pricingSchemes are the three schemes of Section 5.2.2 every run
// meters, in Revenue's and the meter column's order.
var pricingSchemes = []pricing.Scheme{
	pricing.Static{Discount: 0.2},
	pricing.Priority{},
	pricing.Allocation{Discount: 0.2},
}

func (c *Config) applyDefaults() error {
	switch {
	case c.Stream != nil && c.Trace != nil:
		return fmt.Errorf("clustersim: set Trace or Stream, not both")
	case c.Stream != nil:
		if c.Stream.Len() == 0 {
			return fmt.Errorf("clustersim: empty trace")
		}
	case c.Trace == nil || len(c.Trace.VMs) == 0:
		return fmt.Errorf("clustersim: empty trace")
	}
	if c.Mode != ModeDeflation && c.Mode != ModePreemption {
		return fmt.Errorf("clustersim: Config.Mode %d is neither ModeDeflation nor ModePreemption", c.Mode)
	}
	if c.BaselineServers < 0 {
		return fmt.Errorf("clustersim: Config.BaselineServers %d is negative (0 derives it from the trace)", c.BaselineServers)
	}
	if c.Policy == nil {
		c.Policy = policy.Proportional{}
	}
	if la, ok := c.Policy.(policy.LatencyAware); ok {
		if !finite(la.MaxSlowdown) {
			return fmt.Errorf("clustersim: latency-aware policy max slowdown %v is not finite", la.MaxSlowdown)
		}
		if la.Curve != (perfmodel.Curve{}) {
			if err := la.Curve.Validate(); err != nil {
				return fmt.Errorf("clustersim: latency-aware policy curve: %w", err)
			}
		}
	}
	if !finiteNonNegative(c.Overcommit) {
		return fmt.Errorf("clustersim: overcommit %v is not a finite non-negative fraction", c.Overcommit)
	}
	if c.SLO != nil {
		// Copy before defaulting so a caller-shared SLOConfig (sweeps
		// reuse one across grid points) is never mutated.
		slo := *c.SLO
		if slo.Curve == (perfmodel.Curve{}) {
			slo.Curve = perfmodel.WorstCaseLinear
		} else if err := slo.Curve.Validate(); err != nil {
			return fmt.Errorf("clustersim: SLO curve: %w", err)
		}
		if !finite(slo.MaxSlowdown) {
			return fmt.Errorf("clustersim: SLO max slowdown %v is not finite", slo.MaxSlowdown)
		}
		if slo.MaxSlowdown < 1 {
			slo.MaxSlowdown = policy.DefaultMaxSlowdown
		}
		c.SLO = &slo
	}
	if sc := c.ShockConfig; sc != nil {
		// Zero keeps meaning "the generator's default"; anything else the
		// generator would silently swap for its default is an error here.
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"rate per day", sc.RatePerDay},
			{"outage mean", sc.OutageMean},
			{"max out fraction", sc.MaxOutFraction},
			{"duration", sc.Duration},
		} {
			if !finiteNonNegative(f.v) {
				return fmt.Errorf("clustersim: shock config %s %v, want finite and non-negative", f.name, f.v)
			}
		}
		if sc.MaxOutFraction > 1 {
			return fmt.Errorf("clustersim: shock config max out fraction %v is above 1", sc.MaxOutFraction)
		}
		if sc.RackSize < 0 {
			return fmt.Errorf("clustersim: shock config rack size %d is negative", sc.RackSize)
		}
		if sc.Kind != "" {
			if _, err := trace.ParseShockScenario(string(sc.Kind)); err != nil {
				return fmt.Errorf("clustersim: shock config: %w", err)
			}
		}
	}
	for i, sh := range c.Shocks {
		if !finiteNonNegative(sh.At) {
			return fmt.Errorf("clustersim: shock %d at %v, want a finite non-negative time", i, sh.At)
		}
		switch sh.Kind {
		case trace.ShockRevoke, trace.ShockRestore:
		default:
			return fmt.Errorf("clustersim: shock %d has unknown kind %v", i, sh.Kind)
		}
	}
	return nil
}

// finiteNonNegative reports whether v is a finite number >= 0. NaN
// fails every comparison, so a bare `v < 0` check lets it through.
func finiteNonNegative(v float64) bool {
	return v >= 0 && !math.IsInf(v, 1)
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Result summarises one run.
type Result struct {
	// Servers actually provisioned.
	Servers int
	// Arrivals is the number of VM start events processed.
	Arrivals int
	// Admitted counts VMs that were placed.
	Admitted int
	// Rejected counts admission failures (deflation mode) or rejected
	// low-priority launches (preemption mode).
	Rejected int
	// ReclamationAttempts counts placements that required reclaiming
	// resources (deflation) or preempting (preemption).
	ReclamationAttempts int
	// ReclamationFailures counts attempts that could not free enough.
	ReclamationFailures int
	// Pressure-scan accounting (deflation mode), folded from the
	// manager's Placement records of arrivals and evacuee relocations
	// alike. PressuredArrivals counts placements that went through the
	// under-pressure scan (identical in every placement mode).
	// PressureScored counts servers whose exact fitness was computed
	// across those scans and PressurePruned counts indexed servers the
	// bound-pruned descent excluded without scoring — by the fitness
	// bound, the feasibility pre-filter, or an earlier candidate
	// succeeding. The cluster package's test-side placement oracles scan
	// linearly — they score every pool server and prune none — so
	// differential suites comparing against them zero Scored/Pruned
	// before reflect.DeepEqual.
	PressuredArrivals int
	PressureScored    int
	PressurePruned    int
	// Preemptions counts killed low-priority VMs (preemption mode).
	Preemptions int
	// DeflatableAdmitted counts admitted low-priority VMs.
	DeflatableAdmitted int
	// FailureProbability is the Figure 20 metric (see package comment).
	FailureProbability float64
	// ThroughputLoss is the Figure 21 metric: lost demand / total demand
	// across deflatable VMs.
	ThroughputLoss float64
	// Revenue maps pricing-scheme name to total revenue from deflatable
	// VMs (on-demand-core-hours).
	Revenue map[string]float64

	// Capacity-shock outcomes. Revocations/Restorations count processed
	// shock events; Evacuations counts displaced VMs successfully
	// relocated (deflation mode only); ShockKills counts displaced VMs
	// that died — relocation failed (deflation) or the server was simply
	// taken away (preemption). DisplacedDowntime is the summed modelled
	// downtime (seconds) across evacuated VMs. Resizes is always 0: no
	// shock resizes a server. It is kept so that existing readers (the
	// bench package's result digest) still build.
	Revocations       int
	Restorations      int
	Resizes           int
	Evacuations       int
	ShockKills        int
	DisplacedDowntime float64

	// FleetCost is the provider's spend (deflation mode): the fleet's
	// in-service core-hours, with revoked intervals not billed.
	FleetCost float64

	// Pricing accounting (deflation mode). OnDemandRevenue is what the
	// run's deflatable VMs would have billed as on-demand instances
	// (core-hours at rate 1); CostSavings maps each pricing scheme to
	// the paper's customer cost-savings fraction,
	// 1 - Revenue[scheme]/OnDemandRevenue. RevenueByPriority splits the
	// "priority" scheme's revenue by quantised priority level.
	OnDemandRevenue   float64
	CostSavings       map[string]float64
	RevenueByPriority map[int]float64

	// SLO accounting (deflation mode, only when Config.SLO is set; all
	// zero/nil otherwise). SLOViolationSeconds is the total VM-time spent
	// above the slowdown threshold; SLOSampleSeconds is the total metered
	// VM-time (deflatable VMs only), so SLOViolationRate =
	// SLOViolationSeconds/SLOSampleSeconds. SLOLatencyP99 is the
	// histogram-derived 99th-percentile slowdown proxy (bucket upper
	// edge, resolution 0.05, saturating at the top bucket).
	// SLOViolationsByPriority splits violation seconds by quantised
	// priority level, with every level present.
	SLOViolationSeconds     float64
	SLOSampleSeconds        float64
	SLOViolationRate        float64
	SLOLatencyP99           float64
	SLOViolationsByPriority map[int]float64
}

func vmSize(vm *trace.VMRecord) resources.Vector {
	return resources.CPUMem(float64(vm.Cores), vm.MemoryMB)
}

// Run executes one simulation: it is shorthand for NewEngine followed
// by Engine.Run.
func Run(cfg Config) (*Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// poolPlan assigns servers to priority pools proportionally to the
// trace's committed demand per pool ("the size of the different pools
// can be based on the typical workload mix", Section 5.2.1). Each VM's
// pool is fixed once from its class and P95, then the geometry walk
// accounts its cores on arrival and departure.
func poolPlan(cfg *Config, src *rowSource, nServers int) []int {
	out := make([]int, nServers)
	if !cfg.Partitioned {
		return out // all zeros; ignored when partitioning is off
	}
	const levels = priorityLevels
	lvlOf := make([]int32, src.len())
	for row := range lvlOf {
		lvl := levels - 1 // on-demand pool
		if src.class(row) == trace.Interactive {
			p95, _ := src.util(row)
			p := policy.PriorityFromP95(p95, levels)
			lvl = min(max(int(p*float64(levels))-1, 0), levels-1)
		}
		lvlOf[row] = int32(lvl)
	}
	// Size pools by *peak concurrent* demand per level, not total
	// VM-hours: pools sized on averages run out of room at their own
	// peaks and deflate even when the cluster as a whole has slack.
	demand := make([]float64, levels)
	current := make([]float64, levels)
	g := src.geometry()
	g.walk(func(row int32, arrival bool) bool {
		lvl := lvlOf[row]
		if arrival {
			current[lvl] += g.cores[row]
			if current[lvl] > demand[lvl] {
				demand[lvl] = current[lvl]
			}
		} else {
			current[lvl] -= g.cores[row]
		}
		return true
	})
	return allocatePools(out, demand, nServers, levels)
}

// allocatePools fills out with per-server pool assignments sized
// proportionally to the per-level peak demand: largest-remainder
// allocation with at least one server per non-empty pool.
func allocatePools(out []int, demand []float64, nServers, levels int) []int {
	var total float64
	for _, d := range demand {
		total += d
	}
	if total == 0 {
		return out
	}
	counts := make([]int, levels)
	assigned := 0
	for l := 0; l < levels; l++ {
		counts[l] = int(float64(nServers) * demand[l] / total)
		if demand[l] > 0 && counts[l] == 0 {
			counts[l] = 1
		}
		assigned += counts[l]
	}
	for assigned > nServers {
		// Trim from the largest pool.
		maxL := 0
		for l := 1; l < levels; l++ {
			if counts[l] > counts[maxL] {
				maxL = l
			}
		}
		if counts[maxL] <= 1 {
			break
		}
		counts[maxL]--
		assigned--
	}
	for assigned < nServers {
		// Grow the pool with the largest demand per server.
		bestL, bestV := 0, -1.0
		for l := 0; l < levels; l++ {
			v := demand[l] / float64(counts[l]+1)
			if v > bestV {
				bestL, bestV = l, v
			}
		}
		counts[bestL]++
		assigned++
	}
	i := 0
	for l := 0; l < levels; l++ {
		for k := 0; k < counts[l] && i < nServers; k++ {
			out[i] = l
			i++
		}
	}
	return out
}
