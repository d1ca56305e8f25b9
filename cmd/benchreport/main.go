// Command benchreport regenerates every table and figure of the paper's
// evaluation end-to-end — the feasibility analysis (Figures 5-12), the
// application experiments (Figures 3, 14, 16-19), and the cluster-scale
// simulation (Figures 20-22) — printing EXPERIMENTS.md-style output.
//
// Usage:
//
//	benchreport            # everything (a few minutes)
//	benchreport -quick     # smaller traces / shorter runs
//	benchreport -scale 50000                 # cloud-scale single-run smoke
//	benchreport -scale 50000 -scaleout BENCH_scale.json
//	benchreport -scale 1000000               # the 1M-VM point
//	benchreport -scale 50000 -scenario bursty           # a different workload shape
//	benchreport -scale 50000 -shocks poisson -scaleout BENCH_revocation.json
//	                                # revocation churn: transient servers revoked and
//	                                # restored mid-run, VMs evacuated by deflation
//	                                # (the `make bench-revocation` artifact)
//	benchreport -scale 10000000 -stream -scaleout BENCH_scale_10m.json
//	                                # the 10M-VM point: streamed trace, O(live VMs)
//	                                # resident memory (the `make bench-scale-10m`
//	                                # artifact; gates peak heap >= 3.5x below what
//	                                # the eager generator would allocate)
//	benchreport -matrix 100000 -matrixout BENCH_matrix.json
//	                                # multi-core matrix: aggregate throughput of
//	                                # GOMAXPROCS concurrent share-nothing runs
//	benchreport -risk 4000 -riskout BENCH_risk.json
//	                                # revocation-risk frontier: portfolio server
//	                                # mixes run risk-blind vs risk-aware (hazard-
//	                                # banded placement + forecast-headroom
//	                                # admission) under rack shocks; gates that
//	                                # risk-aware strictly cuts displaced downtime
//	                                # and violation-seconds per mix at near-equal
//	                                # admitted revenue, cuts shock kills
//	                                # fleet-wide, and that fleet cost falls as
//	                                # the spot share grows (the `make bench-risk`
//	                                # artifact)
//
// The -scale mode runs one deflation-mode simulation at the given VM
// count through the capacity-indexed manager and writes a
// small JSON report (wall time, arrivals/s, admission counts, peak heap,
// per-phase wall times) for CI to archive, so the perf trajectory is
// tracked PR-over-PR. With -stream the trace is never
// materialised: VM parameters generate at arrival and utilisation
// synthesizes through per-VM cursors, the identical-results guarantee
// being pinned by the streamed differential suite.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/trace"
)

// scaleReport is the BENCH_scale.json / BENCH_revocation.json /
// BENCH_scale_10m.json schema. The shock fields are zero when the run
// has no shock schedule; the stream fields only appear with -stream.
type scaleReport struct {
	VMs           int                `json:"vms"`
	Scenario      string             `json:"scenario"`
	Shocks        string             `json:"shocks,omitempty"`
	Servers       int                `json:"servers"`
	Overcommit    float64            `json:"overcommit"`
	GoMaxProcs    int                `json:"gomaxprocs"`
	WallSeconds   float64            `json:"wall_seconds"`
	TraceSeconds  float64            `json:"trace_gen_seconds"`
	Admitted      int                `json:"admitted"`
	Rejected      int                `json:"rejected"`
	ArrivalsPerS  float64            `json:"arrivals_per_sec"`
	PeakHeapBytes uint64             `json:"peak_heap_bytes"`
	PhaseSeconds  map[string]float64 `json:"phase_seconds,omitempty"`
	// Pressure-scan accounting: how many arrivals fell through the
	// surplus pass into the under-pressure descent, how many servers
	// that descent actually scored, and how many the bound index let it
	// skip.
	PressuredArrivals int     `json:"pressured_arrivals"`
	PressureScored    int     `json:"pressure_scored"`
	PressurePruned    int     `json:"pressure_pruned"`
	Revocations       int     `json:"revocations,omitempty"`
	Evacuations       int     `json:"evacuations,omitempty"`
	ShockKills        int     `json:"shock_kills,omitempty"`
	EvacPerS          float64 `json:"evacuations_per_sec,omitempty"`
	// Stream accounting, two denominators. EagerBytesEst is what this
	// repo's eager generator actually allocates — per-*lifetime*
	// utilisation slices (~2.2 GB at 10M VMs). HorizonBytesEst is the
	// horizon-resident premise (every VM's utilisation held for the
	// whole simulated span, ~70 GB at 10M) that a naive trace
	// materialisation would need. The gate compares the peak heap
	// against the *smaller, honest* eager number.
	Streamed        bool    `json:"streamed,omitempty"`
	EagerBytesEst   uint64  `json:"eager_trace_bytes_estimate,omitempty"`
	EagerToPeak     float64 `json:"eager_to_peak_heap_ratio,omitempty"`
	HorizonBytesEst uint64  `json:"horizon_trace_bytes_estimate,omitempty"`
	HorizonToPeak   float64 `json:"horizon_to_peak_heap_ratio,omitempty"`
}

// The streamed-memory gate. It arms only at >= streamGateMinVMs: below
// that, fixed overheads (runtime, server state) dominate the peak and
// the ratio is not meaningful. The ratio is measured against the
// honest denominator — what the eager generator actually allocates
// (per-lifetime utilisation slices) — not the ~30x larger
// horizon-resident premise. At 10M VMs the streamed peak is dominated
// by per-live-VM cluster state (~147k concurrently-live VMs x ~2 KB of
// domain/cgroup/guest/tracking structs), which streaming cannot shrink;
// 3.5x is the measured-honest bound until the live-VM structs are
// compacted (see ROADMAP). debug.SetMemoryLimit pins the collector to
// the gate's budget so GC scheduling cannot overshoot past it.
const (
	streamGateMinVMs = 5000000
	streamGateRatio  = 3.5
)

// heapWatcher samples runtime.ReadMemStats on a background goroutine
// and tracks the peak live heap. ReadMemStats stops the world for
// microseconds; at a 100ms cadence the overhead is noise.
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var ms runtime.MemStats
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > w.peak {
				w.peak = ms.HeapAlloc
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// Stop takes a final sample and returns the peak observed HeapAlloc.
func (w *heapWatcher) Stop() uint64 {
	close(w.stop)
	<-w.done
	return w.peak
}

// phaseSeconds converts engine phase timings to the JSON map form.
// surplus and pressure are sub-phases of commit (they are included in,
// not additional to, the commit figure): surplus is the
// capacity-indexed first-fit pass, pressure the bound-pruned
// under-pressure descent.
func phaseSeconds(pt clustersim.PhaseTimings) map[string]float64 {
	return map[string]float64{
		"commit":    pt.Commit.Seconds(),
		"surplus":   pt.Surplus.Seconds(),
		"pressure":  pt.Pressure.Seconds(),
		"sample":    pt.Sample.Seconds(),
		"reinflate": pt.Reinflate.Seconds(),
	}
}

// runScale executes the cloud-scale single-run smoke: one trace of n
// VMs of the named scenario, cluster sized by the cheap peak-demand
// bound, one indexed deflation run, report written as JSON.
func runScale(n int, scenario, shocks string, seed int64, outPath string, streamed bool) {
	mode := "eager"
	if streamed {
		mode = "streamed"
	}
	fmt.Printf("== scale smoke: %d-VM single deflation run (%s trace, shocks: %s)\n",
		n, mode, shocks)
	var timings clustersim.PhaseTimings
	cfg := clustersim.Config{
		Overcommit: 0.5,
		Timings:    &timings,
	}
	t0 := time.Now()
	var eagerEst, horizonEst uint64
	if streamed {
		s, err := trace.NewNamedStream(scenario, n, 3*86400, seed)
		if err != nil {
			log.Fatal(err)
		}
		eagerEst = s.EagerBytesEstimate()
		// Horizon-resident premise: every VM's utilisation sampled across
		// the full simulated span (to MaxEnd, the last departure).
		horizonEst = uint64(n) * (120 + 8*uint64(math.Ceil(s.MaxEnd()/trace.SampleInterval)))
		base, err := clustersim.PeakServerLowerBoundStream(s, clustersim.DefaultServerCapacity())
		if err != nil {
			log.Fatal(err)
		}
		cfg.Stream, cfg.BaselineServers = s, base
	} else {
		tr, err := trace.GenerateNamed(scenario, n, 3*86400, seed)
		if err != nil {
			log.Fatal(err)
		}
		base, err := clustersim.PeakServerLowerBound(tr, clustersim.DefaultServerCapacity())
		if err != nil {
			log.Fatal(err)
		}
		cfg.Trace, cfg.BaselineServers = tr, base
	}
	genDur := time.Since(t0)
	if streamed {
		// Streamed scale runs are memory-bound by design: the live set
		// is O(live VMs), but the collector's default 100% headroom
		// doubles the peak over it. Halving the headroom trades a
		// little GC CPU for a much tighter footprint — the right
		// default for a run whose whole point is resident memory.
		defer debug.SetGCPercent(debug.SetGCPercent(50))
		if n >= streamGateMinVMs {
			// Pin the collector to the gate's budget: with a hard limit the
			// pacer cannot let the heap drift past eager/ratio even when
			// GOGC headroom would allow it.
			defer debug.SetMemoryLimit(debug.SetMemoryLimit(int64(float64(eagerEst) / streamGateRatio)))
		}
		// Drop the sizing pass's transient geometry before the run so the
		// peak heap reflects what streaming actually keeps resident.
		runtime.GC()
	}
	// The watcher starts after trace construction and baseline sizing on
	// purpose: the eager path would otherwise carry the whole
	// materialised trace into its peak, and the streamed path its
	// transient sizing geometry — the report measures what the
	// *simulation* keeps resident. (The eager trace is still live
	// through the run, so it shows up in the eager peak regardless.)
	hw := watchHeap()
	shockKind, err := trace.ParseShockScenario(shocks)
	if err != nil {
		log.Fatal(err)
	}
	if shockKind != trace.ShockNone {
		cfg.ShockConfig = &trace.ShockConfig{Kind: shockKind, RatePerDay: 2, OutageMean: 2 * 3600, Seed: seed}
	}
	t1 := time.Now()
	res, err := clustersim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(t1)
	rep := scaleReport{
		VMs:           n,
		Scenario:      scenario,
		Servers:       res.Servers,
		Overcommit:    0.5,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		WallSeconds:   wall.Seconds(),
		TraceSeconds:  genDur.Seconds(),
		Admitted:      res.Admitted,
		Rejected:      res.Rejected,
		ArrivalsPerS:  float64(res.Arrivals) / wall.Seconds(),
		PeakHeapBytes: hw.Stop(),
		PhaseSeconds:  phaseSeconds(timings),

		PressuredArrivals: res.PressuredArrivals,
		PressureScored:    res.PressureScored,
		PressurePruned:    res.PressurePruned,
	}
	if streamed {
		rep.Streamed = true
		rep.EagerBytesEst = eagerEst
		rep.EagerToPeak = float64(eagerEst) / float64(rep.PeakHeapBytes)
		rep.HorizonBytesEst = horizonEst
		rep.HorizonToPeak = float64(horizonEst) / float64(rep.PeakHeapBytes)
	}
	if shockKind != trace.ShockNone {
		rep.Shocks = shocks
		rep.Revocations = res.Revocations
		rep.Evacuations = res.Evacuations
		rep.ShockKills = res.ShockKills
		rep.EvacPerS = float64(res.Evacuations) / wall.Seconds()
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s", out)
	fmt.Printf("scale smoke: %d VMs on %d servers in %s, peak heap %.0f MB (report: %s)\n",
		n, res.Servers, wall.Round(time.Millisecond), float64(rep.PeakHeapBytes)/1e6, outPath)
	if streamed && n >= streamGateMinVMs && rep.EagerToPeak < streamGateRatio {
		log.Fatalf("streamed peak heap %.0f MB is only %.1fx below the eager trace estimate %.0f MB (want >= %.1fx)",
			float64(rep.PeakHeapBytes)/1e6, rep.EagerToPeak, float64(eagerEst)/1e6, streamGateRatio)
	}
}

// matrixPoint is one grid point of BENCH_matrix.json: `gomaxprocs`
// independent share-nothing simulations run concurrently (the sweep
// pattern), measuring machine throughput — the axis that must scale
// with cores, since a run itself is one goroutine.
type matrixPoint struct {
	GoMaxProcs    int     `json:"gomaxprocs"`
	WallSeconds   float64 `json:"wall_seconds"`
	ArrivalsPerS  float64 `json:"arrivals_per_sec"`
	Speedup       float64 `json:"speedup_vs_1core"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
}

// matrixReport is the BENCH_matrix.json schema.
type matrixReport struct {
	VMs         int           `json:"vms"`
	Scenario    string        `json:"scenario"`
	NumCPU      int           `json:"num_cpu"`
	Streamed    bool          `json:"streamed"`
	WallSeconds float64       `json:"wall_seconds"`
	Points      []matrixPoint `json:"points"`
}

// runMatrix measures the multi-core scaling matrix: for each GOMAXPROCS
// g in {1, 2, 4, ... NumCPU}, g concurrent runs over one shared Stream —
// traces are pure functions of (config, index), so the shared read-only
// stream is what makes g concurrent runs cheap. Exits non-zero if
// aggregate throughput fails to scale on a >= 4 core machine.
func runMatrix(n int, scenario string, seed int64, outPath string) {
	ncpu := runtime.NumCPU()
	fmt.Printf("== multi-core matrix: %d-VM %s runs at GOMAXPROCS 1..%d\n", n, scenario, ncpu)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	s, err := trace.NewNamedStream(scenario, n, 3*86400, seed)
	if err != nil {
		log.Fatal(err)
	}
	base, err := clustersim.PeakServerLowerBoundStream(s, clustersim.DefaultServerCapacity())
	if err != nil {
		log.Fatal(err)
	}
	gmps := []int{1}
	for g := 2; g <= ncpu; g *= 2 {
		gmps = append(gmps, g)
	}
	if last := gmps[len(gmps)-1]; last != ncpu {
		gmps = append(gmps, ncpu)
	}
	rep := matrixReport{VMs: n, Scenario: scenario, NumCPU: ncpu, Streamed: true}
	t0 := time.Now()
	var base1 float64 // 1-core arrivals/s baseline
	for _, g := range gmps {
		runtime.GOMAXPROCS(g)
		hw := watchHeap()
		t1 := time.Now()
		errCh := make(chan error, g)
		arrivals := 0
		resCh := make(chan int, g)
		for w := 0; w < g; w++ {
			go func() {
				r, err := clustersim.Run(clustersim.Config{
					Stream: s, Overcommit: 0.5, BaselineServers: base,
				})
				if err != nil {
					errCh <- err
					return
				}
				resCh <- r.Arrivals
			}()
		}
		for w := 0; w < g; w++ {
			select {
			case err := <-errCh:
				log.Fatal(err)
			case a := <-resCh:
				arrivals += a
			}
		}
		wall := time.Since(t1)
		pt := matrixPoint{
			GoMaxProcs:    g,
			WallSeconds:   wall.Seconds(),
			ArrivalsPerS:  float64(arrivals) / wall.Seconds(),
			PeakHeapBytes: hw.Stop(),
		}
		if base1 == 0 {
			base1 = pt.ArrivalsPerS
		}
		pt.Speedup = pt.ArrivalsPerS / base1
		rep.Points = append(rep.Points, pt)
		fmt.Printf("gmp=%2d %8.0f arrivals/s  speedup %.2fx  (%d concurrent runs)\n",
			g, pt.ArrivalsPerS, pt.Speedup, g)
	}
	rep.WallSeconds = time.Since(t0).Seconds()
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matrix: %d points in %s (report: %s)\n",
		len(rep.Points), time.Duration(rep.WallSeconds*float64(time.Second)).Round(time.Millisecond), outPath)
	// The scaling gate: on a multi-core machine, aggregate throughput
	// must improve with cores.
	if ncpu >= 4 {
		best := 1.0
		for _, p := range rep.Points {
			if p.GoMaxProcs >= 4 && p.Speedup > best {
				best = p.Speedup
			}
		}
		if best <= 1 {
			log.Fatalf("aggregate throughput does not scale: best speedup %.2fx at >= 4 cores (want > 1)", best)
		}
	}
}

// sloFrontierPoint compares proportional and latency-aware deflation at
// one (overcommitment, shock-regime) grid point of BENCH_slo.json.
type sloFrontierPoint struct {
	OvercommitPct  float64 `json:"overcommit_pct"`
	Shocks         string  `json:"shocks"`
	Servers        int     `json:"servers"`
	PropAdmitted   int     `json:"proportional_admitted"`
	LatAdmitted    int     `json:"latency_admitted"`
	PropViolSec    float64 `json:"proportional_violation_seconds"`
	LatViolSec     float64 `json:"latency_violation_seconds"`
	PropViolRate   float64 `json:"proportional_violation_rate"`
	LatViolRate    float64 `json:"latency_violation_rate"`
	PropP99        float64 `json:"proportional_p99_slowdown"`
	LatP99         float64 `json:"latency_p99_slowdown"`
	EqualAdmitted  bool    `json:"equal_admitted"`
	LatDominates   bool    `json:"latency_dominates"`
	PropEvacuation int     `json:"proportional_evacuations,omitempty"`
	LatEvacuation  int     `json:"latency_evacuations,omitempty"`
}

// sloReport is the BENCH_slo.json schema.
type sloReport struct {
	VMs             int                `json:"vms"`
	Scenario        string             `json:"scenario"`
	MaxSlowdown     float64            `json:"max_slowdown"`
	GoMaxProcs      int                `json:"gomaxprocs"`
	PeakHeapBytes   uint64             `json:"peak_heap_bytes"`
	WallSeconds     float64            `json:"wall_seconds"`
	DominatedPoints int                `json:"dominated_points"`
	TotalPoints     int                `json:"total_points"`
	ShockNetLatSec  float64            `json:"shock_net_latency_violation_seconds"`
	ShockNetPropSec float64            `json:"shock_net_proportional_violation_seconds"`
	Points          []sloFrontierPoint `json:"points"`
}

// runSLO executes the SLO-frontier smoke: proportional vs latency-aware
// deflation on one bursty trace, SLO-metered with the closed-form PS
// model, across overcommitment points both calm and under Poisson
// revocation shocks. The process exits non-zero unless latency-aware
// dominates — no fewer admissions and strictly fewer violation-seconds —
// at every calm grid point, and, under shocks, at a majority of points
// plus on the summed violation-seconds. (Shock transients are deep-
// deficit events where every policy is driven near the deflation
// floors, so individual shocked points carry placement noise; the calm
// frontier is where the policies actually plan, and is gated strictly.)
func runSLO(n int, scenario string, seed int64, outPath string) {
	fmt.Printf("== SLO frontier smoke: %d-VM %s trace, proportional vs latency-aware\n", n, scenario)
	hw := watchHeap()
	t0 := time.Now()
	tr, err := trace.GenerateNamed(scenario, n, 3*86400, seed)
	if err != nil {
		log.Fatal(err)
	}
	base, err := clustersim.PeakServerLowerBound(tr, clustersim.DefaultServerCapacity())
	if err != nil {
		log.Fatal(err)
	}
	strategies := []string{clustersim.StrategyProportional, clustersim.StrategyLatency}
	ocs := []float64{30, 50, 60}
	rep := sloReport{VMs: n, Scenario: scenario, MaxSlowdown: 2, GoMaxProcs: runtime.GOMAXPROCS(0)}
	var calmMissed, shockDominated, shockTotal int
	for _, shocks := range []string{"none", "poisson"} {
		opts := clustersim.Options{
			BaselineServers: base,
			SLO:             &clustersim.SLOConfig{MaxSlowdown: rep.MaxSlowdown},
		}
		if shocks != "none" {
			opts.ShockConfig = &trace.ShockConfig{
				Kind: trace.ShockPoisson, RatePerDay: 1, OutageMean: 2 * 3600, Seed: seed,
			}
		}
		results, err := clustersim.SweepGrid(tr, strategies, ocs, opts)
		if err != nil {
			log.Fatal(err)
		}
		prop, lat := results[0], results[1]
		for i := range ocs {
			p, l := prop.Points[i], lat.Points[i]
			pt := sloFrontierPoint{
				OvercommitPct:  ocs[i],
				Shocks:         shocks,
				Servers:        l.Servers,
				PropAdmitted:   p.Admitted,
				LatAdmitted:    l.Admitted,
				PropViolSec:    p.SLOViolationSeconds,
				LatViolSec:     l.SLOViolationSeconds,
				PropViolRate:   p.SLOViolationRate,
				LatViolRate:    l.SLOViolationRate,
				PropP99:        p.SLOLatencyP99,
				LatP99:         l.SLOLatencyP99,
				EqualAdmitted:  p.Admitted == l.Admitted,
				LatDominates:   l.Admitted >= p.Admitted && l.SLOViolationSeconds < p.SLOViolationSeconds,
				PropEvacuation: p.Evacuations,
				LatEvacuation:  l.Evacuations,
			}
			if pt.LatDominates {
				rep.DominatedPoints++
			}
			rep.TotalPoints++
			if shocks == "none" {
				if !pt.LatDominates {
					calmMissed++
				}
			} else {
				shockTotal++
				if pt.LatDominates {
					shockDominated++
				}
				rep.ShockNetLatSec += pt.LatViolSec
				rep.ShockNetPropSec += pt.PropViolSec
			}
			rep.Points = append(rep.Points, pt)
			fmt.Printf("oc=%2.0f%% shocks=%-7s admitted %d/%d  viol-sec %.0f/%.0f  p99 %.2f/%.2f  dominates=%v\n",
				ocs[i], shocks, l.Admitted, p.Admitted, pt.LatViolSec, pt.PropViolSec,
				pt.LatP99, pt.PropP99, pt.LatDominates)
		}
	}
	rep.WallSeconds = time.Since(t0).Seconds()
	rep.PeakHeapBytes = hw.Stop()
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SLO frontier: %d/%d points dominated (shocked net viol-sec %.0f vs %.0f) in %s (report: %s)\n",
		rep.DominatedPoints, rep.TotalPoints, rep.ShockNetLatSec, rep.ShockNetPropSec,
		time.Duration(rep.WallSeconds*float64(time.Second)).Round(time.Millisecond), outPath)
	if calmMissed > 0 {
		log.Fatalf("latency-aware fails to dominate proportional on %d calm grid points", calmMissed)
	}
	if 2*shockDominated < shockTotal || rep.ShockNetLatSec >= rep.ShockNetPropSec {
		log.Fatalf("latency-aware fails to dominate proportional under shocks: %d/%d points, net viol-sec %.0f vs %.0f",
			shockDominated, shockTotal, rep.ShockNetLatSec, rep.ShockNetPropSec)
	}
}

// riskFrontierPoint compares risk-blind and risk-aware placement at one
// (portfolio mix, overcommitment) grid point of BENCH_risk.json. The
// fleet cost is reported once: the shock schedule and the fleet are
// pure functions of (config, mix), so blind and aware runs bill
// identically by construction.
type riskFrontierPoint struct {
	Mix            string  `json:"mix"`
	SpotFraction   float64 `json:"spot_fraction"`
	OvercommitPct  float64 `json:"overcommit_pct"`
	Servers        int     `json:"servers"`
	FleetCost      float64 `json:"fleet_cost_core_hours"`
	BlindKills     int     `json:"blind_shock_kills"`
	AwareKills     int     `json:"aware_shock_kills"`
	BlindDowntime  float64 `json:"blind_displaced_downtime_sec"`
	AwareDowntime  float64 `json:"aware_displaced_downtime_sec"`
	BlindViolSec   float64 `json:"blind_slo_violation_seconds"`
	AwareViolSec   float64 `json:"aware_slo_violation_seconds"`
	BlindRevenue   float64 `json:"blind_on_demand_revenue"`
	AwareRevenue   float64 `json:"aware_on_demand_revenue"`
	RevenueShare   float64 `json:"aware_revenue_share"`
	RiskRejections int     `json:"aware_risk_rejections"`
}

// riskReport is the BENCH_risk.json schema.
type riskReport struct {
	VMs           int                 `json:"vms"`
	Scenario      string              `json:"scenario"`
	Shocks        string              `json:"shocks"`
	HeadroomScale float64             `json:"headroom_scale"`
	GoMaxProcs    int                 `json:"gomaxprocs"`
	PeakHeapBytes uint64              `json:"peak_heap_bytes"`
	WallSeconds   float64             `json:"wall_seconds"`
	Points        []riskFrontierPoint `json:"points"`
}

// The risk-frontier gate's equal-revenue bar: per mix (summed over the
// overcommitment points) the risk-aware run must retain at least this
// share of the risk-blind run's admitted on-demand-equivalent revenue
// while strictly winning on displaced downtime and SLO
// violation-seconds. Measured at the smoke's scale (4000 heavy-tail
// VMs, rack shocks, headroom 0.5): shares run ~0.87 (spot-heavy) to
// ~0.95 (spot-light).
const riskRevenueShareMin = 0.8

// riskHeadroomScale is the forecast-to-reserve multiplier the smoke
// runs with — deliberately below 1: the analytic outage fraction is an
// upper bound (it ignores the MaxOutFraction cap), and on rack shocks
// a full-bound reserve trades far more admissions than the kills it
// prevents are worth at this scale.
const riskHeadroomScale = 0.5

// The gate's dominance structure mirrors what is statistically robust
// at smoke scale. Displaced downtime and violation-seconds must fall
// strictly on EVERY mix: they integrate over magnitude and duration, so
// the placement improvement shows through deterministically. Raw shock
// kills are small-integer counts that reshuffle with the admission set
// (a different placement changes WHICH VMs sit on a shocked rack), so
// they are gated strictly at the fleet level — summed over all mixes —
// rather than per mix.

// runRisk executes the revocation-risk frontier smoke: for each
// portfolio mix (sweeping the cheap revocation-heavy "spot" slice from
// light to heavy), the same workload and rack-shock regime runs
// risk-blind and risk-aware — hazard-banded placement plus
// forecast-headroom admission — at two overcommitment points. The
// process exits non-zero unless, on every mix, risk-aware strictly
// reduces displaced downtime and SLO violation-seconds at near-equal
// admitted revenue (>= riskRevenueShareMin of risk-blind), risk-aware
// strictly reduces shock kills fleet-wide (summed over all mixes), and
// the portfolio's fleet cost falls monotonically as the spot share
// grows — the cost-savings vs shock-kill frontier the paper's
// transient-server economics rest on.
func runRisk(n int, scenario string, seed int64, outPath string) {
	fmt.Printf("== risk frontier smoke: %d-VM %s trace, risk-blind vs risk-aware across portfolio mixes\n", n, scenario)
	hw := watchHeap()
	t0 := time.Now()
	tr, err := trace.GenerateNamed(scenario, n, 3*86400, seed)
	if err != nil {
		log.Fatal(err)
	}
	base, err := clustersim.PeakServerLowerBound(tr, clustersim.DefaultServerCapacity())
	if err != nil {
		log.Fatal(err)
	}
	mixes := []struct {
		name string
		spot float64
	}{
		{"spot-light", 0.25},
		{"balanced", 0.5},
		{"spot-heavy", 0.75},
	}
	ocs := []float64{30, 50}
	rep := riskReport{
		VMs: n, Scenario: scenario, Shocks: "rack",
		HeadroomScale: riskHeadroomScale, GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	gateFailures := 0
	prevCost := math.Inf(1)
	fleetBlindKills, fleetAwareKills := 0, 0
	for _, mix := range mixes {
		portfolio := []clustersim.ServerType{
			{Name: "stable", Fraction: 1 - mix.spot, PriceFactor: 1, ShockRateScale: 0.05},
			{Name: "spot", Fraction: mix.spot, PriceFactor: 0.35, ShockRateScale: 2},
		}
		opts := clustersim.Options{
			BaselineServers: base,
			ShockConfig:     &trace.ShockConfig{Kind: trace.ShockRack, RatePerDay: 2, OutageMean: 2 * 3600, Seed: seed},
			SLO:             &clustersim.SLOConfig{MaxSlowdown: 2},
			Portfolio:       portfolio,
		}
		blindRes, err := clustersim.SweepGrid(tr, []string{clustersim.StrategyPriority}, ocs, opts)
		if err != nil {
			log.Fatal(err)
		}
		opts.Risk = &clustersim.RiskOptions{HighPriority: 0.75, Bands: 4, HeadroomScale: riskHeadroomScale}
		awareRes, err := clustersim.SweepGrid(tr, []string{clustersim.StrategyPriority}, ocs, opts)
		if err != nil {
			log.Fatal(err)
		}
		var sum riskFrontierPoint
		for i := range ocs {
			b, a := blindRes[0].Points[i], awareRes[0].Points[i]
			if math.Abs(b.FleetCost-a.FleetCost) > 1e-6*b.FleetCost {
				log.Fatalf("%s @ %g%%: fleet cost diverged between blind (%.1f) and aware (%.1f) runs",
					mix.name, ocs[i], b.FleetCost, a.FleetCost)
			}
			pt := riskFrontierPoint{
				Mix:            mix.name,
				SpotFraction:   mix.spot,
				OvercommitPct:  ocs[i],
				Servers:        a.Servers,
				FleetCost:      a.FleetCost,
				BlindKills:     b.ShockKills,
				AwareKills:     a.ShockKills,
				BlindDowntime:  b.DisplacedDowntime,
				AwareDowntime:  a.DisplacedDowntime,
				BlindViolSec:   b.SLOViolationSeconds,
				AwareViolSec:   a.SLOViolationSeconds,
				BlindRevenue:   b.OnDemandRevenue,
				AwareRevenue:   a.OnDemandRevenue,
				RiskRejections: a.RiskRejections,
			}
			pt.RevenueShare = pt.AwareRevenue / pt.BlindRevenue
			rep.Points = append(rep.Points, pt)
			sum.FleetCost += pt.FleetCost
			sum.BlindKills += pt.BlindKills
			sum.AwareKills += pt.AwareKills
			sum.BlindDowntime += pt.BlindDowntime
			sum.AwareDowntime += pt.AwareDowntime
			sum.BlindViolSec += pt.BlindViolSec
			sum.AwareViolSec += pt.AwareViolSec
			sum.BlindRevenue += pt.BlindRevenue
			sum.AwareRevenue += pt.AwareRevenue
			fmt.Printf("%-10s oc=%2.0f%% kills %d->%d  downtime %.0f->%.0f  viol-sec %.0f->%.0f  revenue share %.3f  (fleet cost %.0f, %d withheld)\n",
				mix.name, ocs[i], pt.BlindKills, pt.AwareKills, pt.BlindDowntime, pt.AwareDowntime,
				pt.BlindViolSec, pt.AwareViolSec, pt.RevenueShare, pt.FleetCost, pt.RiskRejections)
		}
		fleetBlindKills += sum.BlindKills
		fleetAwareKills += sum.AwareKills
		share := sum.AwareRevenue / sum.BlindRevenue
		switch {
		case sum.AwareDowntime >= sum.BlindDowntime:
			log.Printf("GATE %s: aware downtime %.0f not below blind %.0f", mix.name, sum.AwareDowntime, sum.BlindDowntime)
			gateFailures++
		case sum.AwareViolSec >= sum.BlindViolSec:
			log.Printf("GATE %s: aware violation-seconds %.0f not below blind %.0f", mix.name, sum.AwareViolSec, sum.BlindViolSec)
			gateFailures++
		case share < riskRevenueShareMin:
			log.Printf("GATE %s: aware revenue share %.3f below %.2f", mix.name, share, riskRevenueShareMin)
			gateFailures++
		}
		if sum.FleetCost >= prevCost {
			log.Printf("GATE %s: fleet cost %.0f did not fall as the spot share grew (prev %.0f)", mix.name, sum.FleetCost, prevCost)
			gateFailures++
		}
		prevCost = sum.FleetCost
	}
	if fleetAwareKills >= fleetBlindKills {
		log.Printf("GATE fleet: aware shock kills %d not below blind %d summed over all mixes", fleetAwareKills, fleetBlindKills)
		gateFailures++
	} else {
		fmt.Printf("fleet shock kills: %d risk-aware vs %d risk-blind across the frontier\n", fleetAwareKills, fleetBlindKills)
	}
	rep.WallSeconds = time.Since(t0).Seconds()
	rep.PeakHeapBytes = hw.Stop()
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("risk frontier: %d mixes x %d overcommit points in %s (report: %s)\n",
		len(mixes), len(ocs), time.Duration(rep.WallSeconds*float64(time.Second)).Round(time.Millisecond), outPath)
	if gateFailures > 0 {
		log.Fatalf("risk frontier gate failed on %d mix(es)", gateFailures)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")

	quick := flag.Bool("quick", false, "smaller traces and shorter runs")
	seed := flag.Int64("seed", 1, "random seed")
	scale := flag.Int("scale", 0, "run only the cloud-scale single-run smoke at this VM count")
	scaleOut := flag.String("scaleout", "BENCH_scale.json", "where -scale writes its JSON report")
	scenario := flag.String("scenario", "heavytail", "scenario for -scale: azure, diurnal, bursty or heavytail")
	shocks := flag.String("shocks", "none", "capacity-shock scenario for -scale: none, poisson, diurnal or rack")
	slo := flag.Int("slo", 0, "run only the SLO frontier smoke (proportional vs latency-aware) at this VM count")
	sloOut := flag.String("sloout", "BENCH_slo.json", "where -slo writes its JSON report")
	stream := flag.Bool("stream", false, "drive -scale from a streaming trace (O(live VMs) resident memory)")
	matrix := flag.Int("matrix", 0, "run only the multi-core scaling matrix at this VM count")
	matrixOut := flag.String("matrixout", "BENCH_matrix.json", "where -matrix writes its JSON report")
	risk := flag.Int("risk", 0, "run only the revocation-risk frontier smoke (risk-blind vs risk-aware portfolio mixes) at this VM count")
	riskOut := flag.String("riskout", "BENCH_risk.json", "where -risk writes its JSON report")
	flag.Parse()

	if *matrix > 0 {
		runMatrix(*matrix, *scenario, *seed, *matrixOut)
		return
	}
	if *scale > 0 {
		runScale(*scale, *scenario, *shocks, *seed, *scaleOut, *stream)
		return
	}
	if *slo > 0 {
		// The frontier smoke defaults to the bursty scenario — the load
		// swings are what separate the policies — unless -scenario was
		// given explicitly.
		scn := "bursty"
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scenario" {
				scn = *scenario
			}
		})
		runSLO(*slo, scn, *seed, *sloOut)
		return
	}
	if *risk > 0 {
		runRisk(*risk, *scenario, *seed, *riskOut)
		return
	}

	nVMs := 5000
	if *quick {
		nVMs = 1500
	}

	start := time.Now()

	// Figures 5-12 and 3/14/16-19 via the dedicated tools (so their
	// output formats stay the single source of truth).
	run("feasibility", "-vms", strconv.Itoa(nVMs), "-seed", strconv.FormatInt(*seed, 10))
	run("webbench", "-seed", strconv.FormatInt(*seed, 10))

	// Figures 20-22 inline (shared baseline across strategies), fanned
	// out over all cores by the parallel sweep engine.
	fmt.Println("== Figures 20-22: cluster-scale simulation")
	cfg := trace.DefaultAzureConfig()
	cfg.NumVMs = nVMs
	cfg.Seed = *seed
	tr := trace.GenerateAzure(cfg)
	ocs := []float64{0, 10, 20, 30, 40, 50, 60, 70}
	results, err := clustersim.SweepGrid(tr, clustersim.Strategies, ocs, clustersim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, sr := range results {
		fmt.Printf("-- %s\n%8s %12s %12s %12s %12s %12s\n", sr.Strategy,
			"oc%", "failure", "tput-loss%", "rev-static%", "rev-prio%", "rev-alloc%")
		incS := clustersim.RevenueIncrease(sr, "static")
		incP := clustersim.RevenueIncrease(sr, "priority")
		incA := clustersim.RevenueIncrease(sr, "allocation")
		for i, p := range sr.Points {
			fmt.Printf("%8.0f %12.4f %12.2f %12.1f %12.1f %12.1f\n",
				p.OvercommitPct, p.FailureProbability, p.ThroughputLossPct,
				incS[i], incP[i], incA[i])
		}
		fmt.Println()
	}

	fmt.Printf("benchreport: done in %s\n", time.Since(start).Round(time.Second))
}

// run executes a sibling tool via `go run` if available, falling back to
// a PATH lookup; output is streamed through.
func run(tool string, args ...string) {
	cmdArgs := append([]string{"run", "./cmd/" + tool}, args...)
	cmd := exec.Command("go", cmdArgs...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		// Fall back to an installed binary.
		cmd = exec.Command(tool, args...)
		out, err = cmd.CombinedOutput()
		if err != nil {
			log.Printf("%s failed: %v\n%s", tool, err, out)
			return
		}
	}
	fmt.Print(string(out))
}
