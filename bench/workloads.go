package main

import (
	"fmt"

	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/notify"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// horizon is every workload's trace length: three days, as in the
// paper's cluster experiments.
const horizon = 3 * 86400.0

// sizing says how a workload fixes its no-overcommitment fleet size.
type sizing int

const (
	// sizeInEngine leaves Config.BaselineServers zero, so NewEngine runs
	// the full bin-packing replay itself — what a library user gets.
	sizeInEngine sizing = iota
	// sizeBaseline calls BaselineServerCount and pins the result, the
	// sweep pattern: every grid point sees the same fleet.
	sizeBaseline
	// sizePeak pins the cheap aggregate-demand bound.
	sizePeak
)

// workload is one named set of inputs. The table below is the only
// place sizes live; the tier-1 test shrinks vms through this field.
type workload struct {
	name string
	why  string

	scenario   string
	vms        int
	stream     bool
	sizing     sizing
	overcommit float64
	policy     policy.Policy
	shocks     bool // rack-correlated revocations, seeded like the trace
	slo        bool // SLO metering at MaxSlowdown 2
	sweep      bool // SweepGrid over sweepStrategies x sweepOvercommit
}

var sweepOvercommit = []float64{0, 10, 20, 30, 40, 50, 60, 70}

// sweepHeadline is the grid point the sweep's sim.* statistics read:
// proportional deflation at 50 % overcommitment (Figure 21's headline).
const (
	sweepHeadlineStrategy = 0
	sweepHeadlinePoint    = 5
)

var workloads = []*workload{
	{
		name:     "steady-sized",
		why:      "default library run on a churn-heavy trace: place/remove and fleet sizing dominate, sampling is small",
		scenario: "heavytail", vms: 100000, sizing: sizeInEngine,
		overcommit: 0.5, policy: policy.Proportional{},
	},
	{
		name:     "sweep-grid",
		why:      "the paper's Figs 20-22 sweep and the only multi-core workload: 40 engine runs, preemption baseline included, where P95 re-sorting and the sample pass weigh as much as placement",
		scenario: "azure", vms: 5000, sizing: sizeBaseline, sweep: true,
	},
	{
		name:     "pressure-shocks",
		why:      "streamed trace at 75 % overcommit under rack revocations: pressure descent, policy passes and rack-sized evacuation batches",
		scenario: "heavytail", vms: 100000, stream: true, sizing: sizePeak,
		overcommit: 0.75, policy: policy.Priority{}, shocks: true,
	},
	{
		name:     "slo-bursty",
		why:      "SLO-metered latency-aware run on a large fleet: surplus lookups, per-sample load writes and PS-model math, largest heap",
		scenario: "bursty", vms: 50000, sizing: sizePeak,
		overcommit: 0.5, policy: policy.LatencyAware{}, slo: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// prepared is a workload set up for one seed: inputs built, fleet sized,
// engine constructed. Everything up to here is setup_s.
type prepared struct {
	w        *workload
	seed     int64
	tr       *trace.AzureTrace
	st       *trace.Stream
	baseline int                // pinned no-overcommitment size; 0 when the engine sizes itself
	engine   *clustersim.Engine // nil for the sweep
	bus      *notify.Bus
}

// outcome is what one run produced: the digest that proves it correct
// and the simulated statistics the metrics are normalised by.
type outcome struct {
	digest    string
	arrivals  int
	lossPct   float64
	failedPct float64
	res       *clustersim.Result // nil for the sweep
}

func (w *workload) shockConfig(seed int64) *trace.ShockConfig {
	if !w.shocks {
		return nil
	}
	return &trace.ShockConfig{Kind: trace.ShockRack, RatePerDay: 2, OutageMean: 7200, Seed: seed}
}

// prepare builds the workload's inputs from seed and stands the engine
// up. tr may be nil (timed repeats); when set, each public call gets a
// span and fleet sizing is always called explicitly so it can have one.
// bus may be nil.
func prepare(w *workload, seed int64, tr *tracer, bus *notify.Bus) (*prepared, error) {
	p := &prepared{w: w, seed: seed, bus: bus}
	capacity := clustersim.DefaultServerCapacity()

	sp := tr.begin(spTraceBuild)
	var err error
	if w.stream {
		p.st, err = trace.NewNamedStream(w.scenario, w.vms, horizon, seed)
	} else {
		p.tr, err = trace.GenerateNamed(w.scenario, w.vms, horizon, seed)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	switch {
	case w.sizing == sizePeak:
		sp = tr.begin(spPeakBound)
		if w.stream {
			p.baseline, err = clustersim.PeakServerLowerBoundStream(p.st, capacity)
		} else {
			p.baseline, err = clustersim.PeakServerLowerBound(p.tr, capacity)
		}
		tr.end(sp)
	case w.sizing == sizeBaseline || tr != nil:
		sp = tr.begin(spSizing)
		p.baseline, err = clustersim.BaselineServerCount(p.tr, capacity)
		tr.end(sp)
	}
	if err != nil {
		return nil, err
	}
	if w.sweep {
		return p, nil
	}

	cfg := clustersim.Config{
		Trace:           p.tr,
		Stream:          p.st,
		Overcommit:      w.overcommit,
		BaselineServers: p.baseline,
		Policy:          w.policy,
		ShockConfig:     w.shockConfig(seed),
		Notify:          bus,
	}
	if w.slo {
		cfg.SLO = &clustersim.SLOConfig{MaxSlowdown: 2}
	}
	sp = tr.begin(spNewEngine)
	p.engine, err = clustersim.NewEngine(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// run executes the prepared workload once. A prepared value is
// single-use, like the Engine inside it.
func (p *prepared) run() (*outcome, error) {
	if p.w.sweep {
		return p.runSweep()
	}
	res, err := p.engine.Run()
	if err != nil {
		return nil, err
	}
	return &outcome{
		digest:    digestResult(res),
		arrivals:  res.Arrivals,
		lossPct:   res.ThroughputLoss * 100,
		failedPct: failedPct(res.Arrivals, res.Admitted, res.ShockKills),
		res:       res,
	}, nil
}

func (p *prepared) runSweep() (*outcome, error) {
	strategies := make([]string, len(sweepStrategies))
	for i, s := range sweepStrategies {
		strategies[i] = s.strategy
	}
	out, err := clustersim.SweepGrid(p.tr, strategies, sweepOvercommit,
		clustersim.Options{BaselineServers: p.baseline, Notify: p.bus})
	if err != nil {
		return nil, err
	}
	head := out[sweepHeadlineStrategy].Points[sweepHeadlinePoint]
	n := len(p.tr.VMs)
	return &outcome{
		digest:    digestSweep(out),
		arrivals:  n * len(strategies) * len(sweepOvercommit),
		lossPct:   head.ThroughputLossPct,
		failedPct: failedPct(n, head.Admitted, head.ShockKills),
	}, nil
}

// failedPct is the share of VMs the simulated cluster failed: refused at
// admission or killed by a capacity shock.
func failedPct(arrivals, admitted, shockKills int) float64 {
	if arrivals == 0 {
		return 0
	}
	return float64(arrivals-admitted+shockKills) / float64(arrivals) * 100
}
