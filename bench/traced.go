package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/notify"
	"vmdeflate/internal/stats"
)

// notifyCounters is the bus subscriber of a traced run. Everything is an
// integer behind an atomic, so the totals are the same whatever order
// the sweep's workers publish in.
type notifyCounters struct {
	deflated   atomic.Int64
	reinflated atomic.Int64
	ppm        atomic.Int64 // sum over deflations of the VM's deflation fraction, in millionths
}

func (c *notifyCounters) observe(ev notify.Event) {
	if ev.Kind == notify.Deflated {
		c.deflated.Add(1)
		c.ppm.Add(int64(math.Round(ev.DeflationFraction * 1e6)))
	} else {
		c.reinflated.Add(1)
	}
}

// tracedPhase measures each workload layer by layer: traced passes at
// the seed's first lane until budget is used, at least one. Spans are
// dumped to spans (when set) as each workload finishes.
func tracedPhase(runs []*workloadRun, seed int64, budget time.Duration, spans io.WriteCloser) error {
	written := 0
	for _, wr := range runs {
		// Two per-call spans per VM at most, plus shocks and the handful
		// of pipeline spans.
		tr := newTracer(wr.w.name, 2*wr.w.vms+1<<14)
		for start := time.Now(); len(wr.passes) == 0 || time.Since(start) < budget; {
			vals, digest, ok, err := tracedPass(wr.w, seed, tr)
			if err != nil {
				return fmt.Errorf("%s traced pass: %w", wr.w.name, err)
			}
			wr.check(seed, digest)
			if !ok {
				wr.failed++
			}
			wr.passes = append(wr.passes, vals)
		}
		for _, vals := range wr.passes {
			vals["bench.repeats"] = float64(len(wr.passes))
		}
		if spans != nil {
			if err := tr.writeJSONL(spans, written); err != nil {
				return err
			}
			written += len(tr.spans)
		}
	}
	return nil
}

// tracedPass runs the workload's pipeline once untraced (the reference
// for the tracing overhead) and once with spans and a notify bus, then
// the replay and the leaf kernels. It returns every per-layer metric, the
// traced run's digest for the caller to check, and whether the pass's
// other outputs — untraced digest, replay counts — were correct.
func tracedPass(w *workload, seed int64, tr *tracer) (vals map[string]float64, digest string, ok bool, err error) {
	vals = make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		vals[m.name] = 0
	}
	tr.reset()
	vals["bench.calib_ms"] = calibrate().Seconds() * 1e3
	vals["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	root := tr.begin(spPass)
	defer tr.end(root)

	refDigest, refRunS, err := referenceRun(w, seed, tr)
	if err != nil {
		return nil, "", false, err
	}

	runtime.GC()
	var counters notifyCounters
	bus := &notify.Bus{}
	defer bus.Subscribe(counters.observe)()
	rt := newRTReader()
	before := rt.read()
	hs := startHeapSampler()
	p, err := prepare(w, seed, tr, bus)
	if err != nil {
		hs.stop()
		return nil, "", false, err
	}
	sp := tr.begin(spRun)
	out, err := p.run()
	tr.end(sp)
	_, peakLive := hs.stop()
	after := rt.read()
	if err != nil {
		return nil, "", false, err
	}
	runS := tr.seconds(sp)

	ok = true
	fail := func(format string, args ...any) {
		ok = false
		log.Printf("%s seed %d: %s", w.name, seed, fmt.Sprintf(format, args...))
	}
	if out.digest != refDigest {
		fail("traced digest %s differs from untraced %s", out.digest, refDigest)
	}

	vals["trace.build_s"] = tr.total(spTraceBuild)
	vals["clustersim.sizing_s"] = tr.total(spSizing)
	vals["clustersim.peak_bound_s"] = tr.total(spPeakBound)
	vals["clustersim.new_engine_s"] = tr.total(spNewEngine)
	vals["clustersim.run_s"] = runS
	vals["bench.trace_overhead_pct"] = (runS - refRunS) / refRunS * 100
	if w.sizing != sizePeak {
		vals["clustersim.sizing_servers"] = float64(p.baseline)
	}
	vals["sim.throughput_loss_pct"] = out.lossPct
	vals["sim.failed_vm_pct"] = out.failedPct
	vals["notify.deflate_events"] = float64(counters.deflated.Load())
	vals["notify.reinflate_events"] = float64(counters.reinflated.Load())
	if n := counters.deflated.Load(); n > 0 {
		vals["notify.mean_deflation_pct"] = float64(counters.ppm.Load()) / float64(n) / 1e4
	}
	vals["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		vals["runtime.gc_cpu_pct"] = (after.gcCPU - before.gcCPU) / cpu * 100
	}
	vals["runtime.heap_live_peak_mb"] = float64(peakLive) / (1 << 20)

	var servers, residents int
	if w.sweep {
		servers = int(math.Ceil(float64(p.baseline) / 1.5))
		residents = peakConcurrent(p)
		if msg, err := sweepSplit(p, out, runS, tr, vals); err != nil {
			return nil, "", false, err
		} else if msg != "" {
			fail("%s", msg)
		}
	} else {
		servers = out.res.Servers
		in, err := newReplayInputs(p, servers, tr)
		if err != nil {
			return nil, "", false, err
		}
		vals["trace.shocks_s"] = tr.total(spTraceShocks)
		sp = tr.begin(spReplay)
		st, err := replay(in, tr)
		tr.end(sp)
		if err != nil {
			return nil, "", false, err
		}
		st.report(vals)
		vals["clustersim.self_s"] = runS - st.sumS()
		residents = st.liveVMsPeak
		// Sample-time load writes are not replayed, so under SLO metering
		// the latency-aware policy sees admission-time loads only and the
		// counts may drift; there the drift is reported, not judged.
		vals["cluster.replay_admitted_delta"] = float64(st.admitted - out.res.Admitted)
		if msg := st.equivalent(out.res); msg != "" && !w.slo {
			fail("%s", msg)
		}
	}

	sp = tr.begin(spKernels)
	err = kernels(w, seed, (residents+servers-1)/servers, servers, vals)
	tr.end(sp)
	return vals, out.digest, ok, err
}

// referenceRun is the workload's pipeline with no spans inside and no
// bus: what the traced run's run_s is compared with. Its engine and
// inputs die with the call, so the traced run does not share the heap
// with them.
func referenceRun(w *workload, seed int64, tr *tracer) (digest string, runS float64, err error) {
	runtime.GC()
	p, err := prepare(w, seed, nil, nil)
	if err != nil {
		return "", 0, err
	}
	sp := tr.begin(spReference)
	out, err := p.run()
	tr.end(sp)
	if err != nil {
		return "", 0, err
	}
	return out.digest, tr.seconds(sp), nil
}

// report writes the replay's measurements as cluster.* metrics.
func (s *replayStats) report(vals map[string]float64) {
	vals["cluster.provision_s"] = s.provisionS
	vals["cluster.place_s"] = s.placeS
	vals["cluster.place_calls"] = float64(s.placeCalls)
	vals["cluster.place_vms"] = float64(s.placeVMs)
	sort.Float64s(s.placeUS)
	vals["cluster.place_us_p50"] = stats.PercentileSorted(s.placeUS, 50)
	vals["cluster.place_us_p99"] = stats.PercentileSorted(s.placeUS, 99)
	vals["cluster.place_us_p999"] = stats.PercentileSorted(s.placeUS, 99.9)
	vals["cluster.place_surplus_s"] = s.placeSurplusS
	vals["cluster.place_reclaim_s"] = s.placeReclaimS
	vals["cluster.reclaim_attempts"] = float64(s.reclaimAttempts)
	vals["cluster.reclaim_failures"] = float64(s.rejected)
	vals["cluster.remove_s"] = s.removeS
	vals["cluster.remove_calls"] = float64(s.removeCalls)
	vals["cluster.remove_vms"] = float64(s.removeVMs)
	vals["cluster.revoke_s"] = s.revokeS
	vals["cluster.revoke_calls"] = float64(s.revokeCalls)
	vals["cluster.evacuated_vms"] = float64(s.evacuated)
	vals["cluster.evac_killed_vms"] = float64(s.killed)
	vals["cluster.restore_s"] = s.restoreS
	vals["cluster.resize_s"] = s.resizeS
	vals["cluster.live_vms_peak"] = float64(s.liveVMsPeak)
	vals["cluster.bytes_per_live_vm"] = s.bytesPerLiveVM
	if s.admitted > 0 {
		vals["cluster.allocs_per_placed_vm"] = float64(s.placeAllocs) / float64(s.admitted)
	}
}

// sweepSplit re-runs the grid's points one at a time — pool plans are
// unexported, so the sweep has no replay — for the per-strategy split
// and the pool's parallel efficiency. The re-run must reproduce the
// grid's digest; a non-empty message says it did not.
func sweepSplit(p *prepared, grid *outcome, gridS float64, tr *tracer, vals map[string]float64) (string, error) {
	single := make([]*clustersim.SweepResult, len(sweepStrategies))
	var sumS float64
	for si, s := range sweepStrategies {
		single[si] = &clustersim.SweepResult{Strategy: s.strategy}
		for _, pct := range sweepOvercommit {
			sp := tr.begin(spPoint + spanID(si))
			out, err := clustersim.SweepGrid(p.tr, []string{s.strategy}, []float64{pct},
				clustersim.Options{BaselineServers: p.baseline})
			tr.end(sp)
			if err != nil {
				return "", err
			}
			single[si].Points = append(single[si].Points, out[0].Points...)
		}
		d := tr.total(spPoint + spanID(si))
		vals["clustersim.strategy_s."+s.metricKey] = d
		sumS += d
	}
	points := len(sweepStrategies) * len(sweepOvercommit)
	workers := min(runtime.GOMAXPROCS(0), points)
	vals["clustersim.sweep_efficiency"] = sumS / (float64(workers) * gridS)
	vals["clustersim.self_s"] = gridS // nothing is replayed, so nothing is subtracted
	if d := digestSweep(single); d != grid.digest {
		return fmt.Sprintf("point-by-point digest %s differs from the grid's %s", d, grid.digest), nil
	}
	return "", nil
}

// peakConcurrent is the most VMs alive at once in the prepared eager
// trace, ignoring admission: the sweep's stand-in for the replay's peak
// live count.
func peakConcurrent(p *prepared) int {
	starts := make([]float64, len(p.tr.VMs))
	ends := make([]float64, len(p.tr.VMs))
	for i, vm := range p.tr.VMs {
		starts[i], ends[i] = vm.Start, vm.End
	}
	sort.Float64s(starts)
	sort.Float64s(ends)
	live, peak, e := 0, 0, 0
	for _, s := range starts {
		for e < len(ends) && ends[e] <= s {
			e++
			live--
		}
		live++
		peak = max(peak, live)
	}
	return peak
}
