// Command benchreport writes the cloud-scale run reports: one large
// deflation-mode simulation (-scale), or the multi-core throughput
// matrix (-matrix), each as a small JSON file for CI to archive, so the
// perf trajectory is tracked PR-over-PR. The paper's figures come from
// cmd/deflationsim, cmd/feasibility and cmd/webbench; the frontier
// gates (SLO, revocation risk, pressure pruning) are tests behind
// `make bench-slo`, `make bench-risk` and `make bench-pressure`.
//
// Usage:
//
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
//
// With no mode flag it prints this usage and exits 2.
//
// The -scale mode runs one deflation-mode simulation at the given VM
// count through the capacity-indexed manager and reports wall time,
// arrivals/s, admission counts, peak heap and the pressure-scan work
// counts. With -stream the trace is never
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
	"runtime"
	"runtime/debug"
	"time"

	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/trace"
)

// scaleReport is the BENCH_scale.json / BENCH_revocation.json /
// BENCH_scale_10m.json schema. The shock fields are zero when the run
// has no shock schedule; the stream fields only appear with -stream.
type scaleReport struct {
	VMs           int     `json:"vms"`
	Scenario      string  `json:"scenario"`
	Shocks        string  `json:"shocks,omitempty"`
	Servers       int     `json:"servers"`
	Overcommit    float64 `json:"overcommit"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	WallSeconds   float64 `json:"wall_seconds"`
	TraceSeconds  float64 `json:"trace_gen_seconds"`
	Admitted      int     `json:"admitted"`
	Rejected      int     `json:"rejected"`
	ArrivalsPerS  float64 `json:"arrivals_per_sec"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
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
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			w.sample()
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// sample raises the peak to the current HeapAlloc.
func (w *heapWatcher) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.peak = max(w.peak, ms.HeapAlloc)
}

// Stop ends the sampling goroutine, takes a final sample — so the heap
// of the last sampling interval is seen — and returns the peak observed
// HeapAlloc.
func (w *heapWatcher) Stop() uint64 {
	close(w.stop)
	<-w.done
	w.sample()
	return w.peak
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
	cfg := clustersim.Config{Overcommit: 0.5}
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
	out := writeReport(rep, outPath)
	fmt.Printf("%s", out)
	fmt.Printf("scale smoke: %d VMs on %d servers in %s, peak heap %.0f MB (report: %s)\n",
		n, res.Servers, wall.Round(time.Millisecond), float64(rep.PeakHeapBytes)/1e6, outPath)
	if streamed && n >= streamGateMinVMs && rep.EagerToPeak < streamGateRatio {
		log.Fatalf("streamed peak heap %.0f MB is only %.1fx below the eager trace estimate %.0f MB (want >= %.1fx)",
			float64(rep.PeakHeapBytes)/1e6, rep.EagerToPeak, float64(eagerEst)/1e6, streamGateRatio)
	}
}

// writeReport writes rep as indented JSON to path and returns the bytes
// written.
func writeReport(rep any, path string) []byte {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		log.Fatal(err)
	}
	return out
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
	writeReport(rep, outPath)
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")

	seed := flag.Int64("seed", 1, "random seed")
	scale := flag.Int("scale", 0, "run the cloud-scale single-run smoke at this VM count")
	scaleOut := flag.String("scaleout", "BENCH_scale.json", "where -scale writes its JSON report")
	scenario := flag.String("scenario", "heavytail", "trace scenario: azure, diurnal, bursty or heavytail")
	shocks := flag.String("shocks", "none", "capacity-shock scenario for -scale: none, poisson, diurnal or rack")
	stream := flag.Bool("stream", false, "drive -scale from a streaming trace (O(live VMs) resident memory)")
	matrix := flag.Int("matrix", 0, "run the multi-core scaling matrix at this VM count")
	matrixOut := flag.String("matrixout", "BENCH_matrix.json", "where -matrix writes its JSON report")
	flag.Parse()

	switch {
	case *matrix > 0:
		runMatrix(*matrix, *scenario, *seed, *matrixOut)
	case *scale > 0:
		runScale(*scale, *scenario, *shocks, *seed, *scaleOut, *stream)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
