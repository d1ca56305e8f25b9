// Command deflationsim runs the trace-driven cluster simulation of
// Section 7.4 and prints the series behind Figures 20 (failure
// probability), 21 (throughput loss) and 22 (revenue increase). The
// strategy × overcommitment grid fans out across all cores (one
// share-nothing engine per point), so large sweeps scale with the
// machine; results are identical at any worker count.
//
// Usage:
//
//	deflationsim -vms 10000 -days 3
//	deflationsim -strategies proportional,preemption -oc 0,10,20,30,40,50,60,70
//	deflationsim -scenario bursty -replicates 5        # mean over 5 seeded traces
//	deflationsim -workers 1                            # force sequential
//	deflationsim -azure azure.csv
//	deflationsim -shocks poisson -shockrate 1          # transient servers:
//	                                # Poisson revocations at 1/server/day, with
//	                                # deflation-first evacuation vs preemption kills
//	deflationsim -shocks rack -racksize 8              # correlated rack shocks
//	deflationsim -strategies proportional,latency -slo 2 -slocurve kcompile
//	                                # SLO metering: per-VM processor-sharing slowdowns
//	                                # against a 2x threshold, with latency-aware
//	                                # deflation planning against the same model
//	deflationsim -vms 100000 -cpuprofile cpu.pprof     # diagnose scale regressions
//	deflationsim -vms 1000000 -stream -oc 50 -strategies proportional
//	                                # streamed trace: VM parameters generate at
//	                                # arrival, utilisation synthesizes on demand —
//	                                # O(live VMs) resident memory, same results
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("deflationsim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args and prints the sweep to w.
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	azurePath := fs.String("azure", "", "Azure-format CSV (default: synthetic)")
	scenario := fs.String("scenario", "azure", "synthetic scenario: azure, diurnal, bursty or heavytail")
	nVMs := fs.Int("vms", 2000, "synthetic trace size")
	days := fs.Float64("days", 3, "synthetic trace horizon (days)")
	seed := fs.Int64("seed", 1, "synthetic trace seed")
	replicates := fs.Int("replicates", 1, "independently seeded traces to average over (synthetic only)")
	workers := fs.Int("workers", 0, "sweep worker-pool size (0 = all cores)")
	ocList := fs.String("oc", "0,10,20,30,40,50,60,70", "overcommitment percentages")
	strategies := fs.String("strategies", strings.Join(clustersim.Strategies, ","),
		"comma-separated strategies")
	shocks := fs.String("shocks", "none", "capacity-shock scenario: none, poisson, diurnal or rack")
	shockRate := fs.Float64("shockrate", 0.5, "expected revocations per server per day")
	outage := fs.Float64("outage", 7200, "mean revocation outage (seconds)")
	rackSize := fs.Int("racksize", 8, "correlated group size for -shocks rack")
	shockSeed := fs.Int64("shockseed", 1, "shock-schedule seed")
	stream := fs.Bool("stream", false, "drive the sweep from a streaming trace: O(live VMs) resident memory, identical results, every strategy (synthetic single-trace runs only)")
	sloMax := fs.Float64("slo", 0, "SLO slowdown threshold, at least 1 (e.g. 2 = 2x); turns on per-VM queueing-model SLO metering (0: off)")
	sloCurve := fs.String("slocurve", "", "perfmodel curve for SLO metering: specjbb, kcompile or memcached (default: worst-case linear)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-sweep) to this file")
	fs.Parse(args) // ExitOnError: a bad flag exits here, as flag.Parse did

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if err != nil {
				return
			}
			f, ferr := os.Create(*memprofile)
			if ferr != nil {
				err = ferr
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date live-object statistics
			err = pprof.WriteHeapProfile(f)
		}()
	}

	strats := splitStrategies(*strategies)
	ocs, err := parseFloats(*ocList)
	if err != nil {
		return err
	}
	opts := clustersim.Options{Workers: *workers}
	if err := checkReplicates(*replicates); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *azurePath != "" {
		if err := checkAzure(set); err != nil {
			return err
		}
	} else if err := checkSynthetic(*nVMs, *days); err != nil {
		return err
	}
	slo, err := sloOptions(*sloMax, *sloCurve)
	if err != nil {
		return err
	}
	opts.SLO = slo
	sloOn := slo != nil
	opts.ShockConfig, err = shockConfig(*shocks, set, *shockRate, *outage, *rackSize, *shockSeed)
	if err != nil {
		return err
	}
	shocked := opts.ShockConfig != nil

	// The header is printed once the sweep has run, so an input the sweep
	// rejects prints nothing.
	var results []*clustersim.SweepResult
	var header string
	switch {
	case *stream:
		if *azurePath != "" || *replicates > 1 {
			return errors.New("-stream applies to synthetic single-trace runs only (not -azure or -replicates)")
		}
		s, err := trace.NewNamedStream(*scenario, *nVMs, *days*86400, *seed)
		if err != nil {
			return err
		}
		header = fmt.Sprintf("scenario %s (streamed): %d VMs, horizon %.1f days\n\n", *scenario, s.Len(), *days)
		if results, err = clustersim.SweepGridStream(s, strats, ocs, opts); err != nil {
			return err
		}
	case *azurePath != "":
		tr, err := loadCSV(*azurePath)
		if err != nil {
			return err
		}
		header = fmt.Sprintf("trace: %d VMs, horizon %.1f days\n\n", len(tr.VMs), tr.Duration()/86400)
		if results, err = clustersim.SweepGrid(tr, strats, ocs, opts); err != nil {
			return err
		}
	case *replicates > 1:
		gen, err := trace.ScenarioGenerator(*scenario, *nVMs, *days*86400)
		if err != nil {
			return err
		}
		seeds := make([]int64, *replicates)
		for i := range seeds {
			seeds[i] = *seed + int64(i)
		}
		header = fmt.Sprintf("scenario %s: %d VMs x %d replicates, horizon %.1f days (mean shown)\n\n",
			*scenario, *nVMs, *replicates, *days)
		reps, err := clustersim.ReplicatedSweep(gen, seeds, strats, ocs, opts)
		if err != nil {
			return err
		}
		results = clustersim.AverageSweeps(reps)
	default:
		tr, err := trace.GenerateNamed(*scenario, *nVMs, *days*86400, *seed)
		if err != nil {
			return err
		}
		header = fmt.Sprintf("scenario %s: %d VMs, horizon %.1f days\n\n", *scenario, len(tr.VMs), tr.Duration()/86400)
		if results, err = clustersim.SweepGrid(tr, strats, ocs, opts); err != nil {
			return err
		}
	}

	fmt.Fprint(w, header)
	for _, sr := range results {
		fmt.Fprintf(w, "== strategy: %s\n", sr.Strategy)
		fmt.Fprintf(w, "%8s %12s %12s %12s %12s %12s",
			"oc%", "failure", "tput-loss%", "rev-static%", "rev-prio%", "rev-alloc%")
		if shocked {
			fmt.Fprintf(w, " %8s %8s %8s", "revoc", "evac", "kills")
		}
		if sloOn {
			fmt.Fprintf(w, " %12s %10s %8s", "slo-viol-sec", "viol-rate", "p99-slow")
		}
		fmt.Fprintln(w)
		incS := clustersim.RevenueIncrease(sr, "static")
		incP := clustersim.RevenueIncrease(sr, "priority")
		incA := clustersim.RevenueIncrease(sr, "allocation")
		for i, p := range sr.Points {
			fmt.Fprintf(w, "%8.0f %12.4f %12.2f %12.1f %12.1f %12.1f",
				p.OvercommitPct, p.FailureProbability, p.ThroughputLossPct,
				at(incS, i), at(incP, i), at(incA, i))
			if shocked {
				fmt.Fprintf(w, " %8d %8d %8d", p.Revocations, p.Evacuations, p.ShockKills)
			}
			if sloOn {
				fmt.Fprintf(w, " %12.0f %10.4f %8.2f", p.SLOViolationSeconds, p.SLOViolationRate, p.SLOLatencyP99)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// shockConfig turns -shocks and its parameter flags into the sweep's
// shock schedule: none for -shocks none, and an error for a parameter
// flag set (per set, the flags given on the command line) where it
// shapes nothing — any of them without shocks, -racksize without
// -shocks rack.
func shockConfig(scenario string, set map[string]bool, rate, outage float64, rackSize int, seed int64) (*trace.ShockConfig, error) {
	kind, err := trace.ParseShockScenario(scenario)
	if err != nil {
		return nil, err
	}
	if kind == trace.ShockNone {
		for _, name := range []string{"shockrate", "outage", "racksize", "shockseed"} {
			if set[name] {
				return nil, fmt.Errorf("-%s applies only with -shocks poisson, diurnal or rack", name)
			}
		}
		return nil, nil
	}
	if set["racksize"] && kind != trace.ShockRack {
		return nil, fmt.Errorf("-racksize applies only with -shocks rack, not %s", kind)
	}
	return &trace.ShockConfig{Kind: kind, RatePerDay: rate, OutageMean: outage, RackSize: rackSize, Seed: seed}, nil
}

// checkReplicates rejects a -replicates that asks for no trace.
func checkReplicates(n int) error {
	if n < 1 {
		return fmt.Errorf("-replicates %d: want 1 or more traces", n)
	}
	return nil
}

// checkAzure rejects, under -azure (per set, the flags given on the
// command line), a flag that shapes only a synthetic trace: the CSV
// fixes the trace, so each would be ignored.
func checkAzure(set map[string]bool) error {
	for _, name := range []string{"replicates", "vms", "days", "scenario", "seed"} {
		if set[name] {
			return fmt.Errorf("-%s applies only to synthetic traces, not -azure", name)
		}
	}
	return nil
}

// checkSynthetic rejects a synthetic trace that asks for nothing: no
// VMs, or a horizon of zero or less days (a NaN horizon is left to the
// generator, which names it).
func checkSynthetic(vms int, days float64) error {
	if vms < 1 {
		return fmt.Errorf("-vms %d: want at least 1 VM", vms)
	}
	if days <= 0 {
		return fmt.Errorf("-days %v: want a horizon above 0 days", days)
	}
	return nil
}

// sloOptions turns -slo and -slocurve into the sweep's SLO metering:
// none for -slo 0, and an error for a threshold that is neither 0 nor a
// finite number of at least 1 (a slowdown ratio below 1 cannot be
// exceeded by less, and the sweep would swap it for the policy's
// default) or for a curve without a threshold.
func sloOptions(max float64, curve string) (*clustersim.SLOConfig, error) {
	switch {
	case math.IsNaN(max) || math.IsInf(max, 0) || max < 0 || (max > 0 && max < 1):
		return nil, fmt.Errorf("-slo %v: want 0 (off) or a finite slowdown threshold of at least 1", max)
	case max == 0 && curve != "":
		return nil, errors.New("-slocurve requires -slo > 0")
	case max == 0:
		return nil, nil
	}
	slo := &clustersim.SLOConfig{MaxSlowdown: max}
	if curve != "" {
		c, err := perfmodel.ByName(curve)
		if err != nil {
			return nil, err
		}
		slo.Curve = c
	}
	return slo, nil
}

func at(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}

func splitStrategies(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func loadCSV(path string) (*trace.AzureTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadAzureCSV(f)
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", p)
		}
		out = append(out, f)
	}
	return out, nil
}
