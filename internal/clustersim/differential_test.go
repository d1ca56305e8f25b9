package clustersim

import (
	"fmt"
	"reflect"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// normalizeScanMeters returns a copy of r with the two pressure-scan
// meters that legitimately differ across placement modes zeroed:
// the full-scan modes (ReferencePlacement, FullPressureScan) score
// every pool server and prune none, while the bound-pruned descent
// scores only what the bounds cannot exclude. Every other field —
// including PressuredArrivals, which is mode-invariant — must still
// match bit-for-bit, so cross-mode comparisons go through this helper
// and same-mode comparisons (event queue, streaming) stay raw.
func normalizeScanMeters(r *Result) *Result {
	c := *r
	c.PressureScored = 0
	c.PressurePruned = 0
	return &c
}

// oracleModes are the retained oracles a differential suite runs each
// configuration under: the brute-force reference placement, the linear
// pressure scan and the binary-heap event queue. The two placement
// oracles meter the pressure scan differently (scan says so); the heap
// queue must match raw.
var oracleModes = []struct {
	name string
	set  func(*Config)
	scan bool
}{
	{"reference", func(c *Config) { c.ReferencePlacement = true }, true},
	{"fullscan", func(c *Config) { c.FullPressureScan = true }, true},
	{"heapqueue", func(c *Config) { c.useHeapQueue = true }, false},
}

// runOracleModes runs base under every oracle mode, each as a subtest
// named prefix+mode, and holds each run to want — the default indexed,
// pruned, calendar-queue run of base.
func runOracleModes(t *testing.T, prefix string, base Config, want *Result) {
	t.Helper()
	for _, m := range oracleModes {
		t.Run(prefix+m.name, func(t *testing.T) {
			cfg := base
			m.set(&cfg)
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, w := got, want
			if m.scan {
				g, w = normalizeScanMeters(got), normalizeScanMeters(want)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s run diverged from the default engine:\ngot  %+v\nwant %+v", m.name, *got, *want)
			}
		})
	}
}

// TestIndexedEngineMatchesReference is the end-to-end differential
// guarantee of the capacity-index refactor: full simulation runs through
// the indexed manager must produce Results — every admission count,
// failure probability, throughput-loss integral and revenue float — that
// are bit-for-bit identical to the retained brute-force reference path,
// across all synthetic scenarios, multiple seeds and overcommitment
// levels.
func TestIndexedEngineMatchesReference(t *testing.T) {
	scenarios := []trace.Scenario{
		trace.ScenarioDiurnal, trace.ScenarioBursty, trace.ScenarioHeavyTail,
	}
	for _, kind := range scenarios {
		for _, seed := range []int64{1, 2} {
			for _, oc := range []float64{0.3, 0.6} {
				name := fmt.Sprintf("%v/seed=%d/oc=%v", kind, seed, oc)
				t.Run(name, func(t *testing.T) {
					tr, err := trace.GenerateScenario(trace.ScenarioConfig{
						Kind: kind, NumVMs: 400, Duration: 86400, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					cfg := Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: oc}
					idx, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.ReferencePlacement = true
					ref, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(normalizeScanMeters(idx), normalizeScanMeters(ref)) {
						t.Fatalf("indexed run diverged from reference:\nindexed   %+v\nreference %+v", *idx, *ref)
					}
				})
			}
		}
	}
}

// TestIndexedEngineMatchesReferenceAcrossPolicies runs the same
// differential under the priority and deterministic policies, whose
// per-server passes deflate differently from proportional and so leave
// the indexed lookup different surplus to find, with the retained full
// pressure scan as a third engine.
func TestIndexedEngineMatchesReferenceAcrossPolicies(t *testing.T) {
	scenarios := []trace.Scenario{
		trace.ScenarioDiurnal, trace.ScenarioBursty, trace.ScenarioHeavyTail,
	}
	for _, pol := range []policy.Policy{policy.Priority{}, policy.Deterministic{}} {
		for _, kind := range scenarios {
			for _, seed := range []int64{1, 2} {
				for _, oc := range []float64{0.3, 0.6} {
					name := fmt.Sprintf("%s/%v/seed=%d/oc=%v", pol.Name(), kind, seed, oc)
					t.Run(name, func(t *testing.T) {
						tr, err := trace.GenerateScenario(trace.ScenarioConfig{
							Kind: kind, NumVMs: 400, Duration: 86400, Seed: seed,
						})
						if err != nil {
							t.Fatal(err)
						}
						cfg := Config{Trace: tr, Policy: pol, Overcommit: oc}
						idx, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						fullCfg := cfg
						fullCfg.FullPressureScan = true
						full, err := Run(fullCfg)
						if err != nil {
							t.Fatal(err)
						}
						cfg.ReferencePlacement = true
						ref, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(normalizeScanMeters(idx), normalizeScanMeters(ref)) {
							t.Fatalf("indexed run diverged from reference:\nindexed   %+v\nreference %+v", *idx, *ref)
						}
						if !reflect.DeepEqual(normalizeScanMeters(full), normalizeScanMeters(ref)) {
							t.Fatalf("full-scan run diverged from reference:\nfull      %+v\nreference %+v", *full, *ref)
						}
					})
				}
			}
		}
	}
}

// TestEngineMatchesOraclesAcrossScenarios is the determinism guarantee
// at the overcommitment the benchmarks run: under the priority policy at
// 50 %, every scenario and seed must produce a Result — every admission
// count, failure probability, throughput-loss integral and revenue
// float — bit-for-bit identical under each retained oracle.
func TestEngineMatchesOraclesAcrossScenarios(t *testing.T) {
	scenarios := []trace.Scenario{
		trace.ScenarioDiurnal, trace.ScenarioBursty, trace.ScenarioHeavyTail,
	}
	for _, kind := range scenarios {
		for _, seed := range []int64{1, 2} {
			tr, err := trace.GenerateScenario(trace.ScenarioConfig{
				Kind: kind, NumVMs: 400, Duration: 86400, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			base := Config{Trace: tr, Policy: policy.Priority{}, Overcommit: 0.5}
			want, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			runOracleModes(t, fmt.Sprintf("%v/seed=%d/", kind, seed), base, want)
		}
	}
}

// TestPartitionedEngineMatchesOracles covers priority-partitioned pools
// under the deterministic policy — the combination where per-server
// passes differ most between servers — and under the priority policy.
func TestPartitionedEngineMatchesOracles(t *testing.T) {
	tr := testTrace(400)
	for _, pol := range []policy.Policy{policy.Deterministic{}, policy.Priority{}} {
		base := Config{Trace: tr, Policy: pol, Partitioned: true, Overcommit: 0.5}
		want, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		runOracleModes(t, pol.Name()+"/", base, want)
	}
}

// TestIndexedEngineMatchesReferencePartitioned covers the
// priority-partitioned pools, where the index is split per pool.
func TestIndexedEngineMatchesReferencePartitioned(t *testing.T) {
	tr := testTrace(400)
	cfg := Config{Trace: tr, Policy: policy.Priority{}, Partitioned: true, Overcommit: 0.5}
	idx, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ReferencePlacement = true
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeScanMeters(idx), normalizeScanMeters(ref)) {
		t.Fatalf("partitioned indexed run diverged:\nindexed   %+v\nreference %+v", *idx, *ref)
	}
}

// TestPressurePruningDifferential is the acceptance guarantee of the
// pressure-index tentpole: the bound-pruned under-pressure descent must
// produce Results bit-for-bit identical to the retained full linear
// scan (FullPressureScan) and to the brute-force reference path, across
// every synthetic scenario plus deterministic-policy, shocked and
// risk/portfolio workloads, and on the binary-heap event queue in BOTH
// scan modes. The workloads must actually exercise the machinery —
// pressured arrivals AND a nonzero prune count — or the suite is
// vacuous.
func TestPressurePruningDifferential(t *testing.T) {
	workloads := []struct {
		name string
		cfg  func() Config
	}{
		{"diurnal", func() Config {
			return Config{Trace: testTrace(400), Policy: policy.Priority{}, Overcommit: 0.5}
		}},
		{"diurnal-deterministic", func() Config {
			return Config{Trace: testTrace(400), Policy: policy.Deterministic{}, Overcommit: 0.5}
		}},
		{"bursty", func() Config {
			tr, err := trace.GenerateScenario(trace.ScenarioConfig{
				Kind: trace.ScenarioBursty, NumVMs: 400, Duration: 86400, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			return Config{Trace: tr, Policy: policy.Proportional{}, Overcommit: 0.6}
		}},
		{"heavytail-pooled", func() Config {
			// Seed 8: heavy-tail clusters are tiny (3-5 servers), and this
			// seed is one where the per-pool bound indexes actually prune.
			tr, err := trace.GenerateScenario(trace.ScenarioConfig{
				Kind: trace.ScenarioHeavyTail, NumVMs: 400, Duration: 86400, Seed: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			return Config{Trace: tr, Policy: policy.Priority{}, Partitioned: true, Overcommit: 0.5}
		}},
		{"shocked", func() Config {
			sc := testShockConfig(7)
			sc.Kind = trace.ShockPoisson
			return Config{Trace: testTrace(400), Policy: policy.Priority{}, Overcommit: 0.5, ShockConfig: sc}
		}},
		{"risk-portfolio", func() Config {
			return riskConfig(testTrace(400))
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := w.cfg()
			pruned, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			if pruned.PressuredArrivals == 0 {
				t.Fatal("no pressured arrivals — the differential is vacuous")
			}
			if pruned.PressurePruned == 0 {
				t.Fatal("bound pruning never fired — the differential is vacuous")
			}
			fullCfg := base
			fullCfg.FullPressureScan = true
			full, err := Run(fullCfg)
			if err != nil {
				t.Fatal(err)
			}
			refCfg := base
			refCfg.ReferencePlacement = true
			ref, err := Run(refCfg)
			if err != nil {
				t.Fatal(err)
			}
			if full.PressurePruned != 0 {
				t.Fatalf("full scan pruned %d servers, want 0", full.PressurePruned)
			}
			if full.PressureScored <= pruned.PressureScored {
				t.Fatalf("full scan scored %d <= pruned descent's %d — pruning saved nothing",
					full.PressureScored, pruned.PressureScored)
			}
			if !reflect.DeepEqual(normalizeScanMeters(pruned), normalizeScanMeters(full)) {
				t.Fatalf("pruned run diverged from full scan:\npruned %+v\nfull   %+v", *pruned, *full)
			}
			if !reflect.DeepEqual(normalizeScanMeters(full), normalizeScanMeters(ref)) {
				t.Fatalf("full scan diverged from reference:\nfull %+v\nref  %+v", *full, *ref)
			}
			// Raw comparisons: each scan mode's meters are invariant
			// under the event queue.
			for _, scan := range []struct {
				name string
				full bool
				want *Result
			}{{"pruned", false, pruned}, {"fullscan", true, full}} {
				t.Run(scan.name+"/heapqueue", func(t *testing.T) {
					cfg := base
					cfg.FullPressureScan = scan.full
					cfg.useHeapQueue = true
					got, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, scan.want) {
						t.Fatalf("heap-queue run diverged from the calendar queue:\ngot  %+v\nwant %+v", *got, *scan.want)
					}
				})
			}
		})
	}
}

// TestIndexedSweepMatchesReferenceAtAnyWorkerCount closes the loop with
// the sweep layer: a parallel indexed sweep must equal a sequential
// reference sweep — the index must not introduce any worker-count or
// scheduling sensitivity.
func TestIndexedSweepMatchesReferenceAtAnyWorkerCount(t *testing.T) {
	tr := testTrace(250)
	strategies := []string{StrategyProportional, StrategyPriority}
	ocs := []float64{0, 40}

	runSweep := func(workers int, reference bool) []*SweepResult {
		t.Helper()
		baseline, err := BaselineServerCount(tr, DefaultServerCapacity())
		if err != nil {
			t.Fatal(err)
		}
		nOC := len(ocs)
		points := make([]SweepPoint, len(strategies)*nOC)
		errs := make([]error, len(points))
		runJobs(len(points), Options{Workers: workers}.workers(len(points)), func(i int) {
			cfg := strategyConfig(tr, strategies[i/nOC], baseline, ocs[i%nOC]/100)
			cfg.ReferencePlacement = reference
			res, err := Run(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			points[i] = SweepPoint{
				OvercommitPct:      ocs[i%nOC],
				FailureProbability: res.FailureProbability,
				ThroughputLossPct:  res.ThroughputLoss * 100,
				Revenue:            res.Revenue,
				Servers:            res.Servers,
			}
		})
		if err := firstError(errs); err != nil {
			t.Fatal(err)
		}
		out := make([]*SweepResult, len(strategies))
		for si, s := range strategies {
			out[si] = &SweepResult{Strategy: s, Points: points[si*nOC : (si+1)*nOC : (si+1)*nOC]}
		}
		return out
	}

	indexedPar := runSweep(8, false)
	referenceSeq := runSweep(1, true)
	if !reflect.DeepEqual(indexedPar, referenceSeq) {
		t.Fatalf("parallel indexed sweep diverged from sequential reference sweep:\n%+v\n%+v",
			dump(indexedPar), dump(referenceSeq))
	}
}
