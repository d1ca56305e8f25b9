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

	azurePath := flag.String("azure", "", "Azure-format CSV (default: synthetic)")
	scenario := flag.String("scenario", "azure", "synthetic scenario: azure, diurnal, bursty or heavytail")
	nVMs := flag.Int("vms", 2000, "synthetic trace size")
	days := flag.Float64("days", 3, "synthetic trace horizon (days)")
	seed := flag.Int64("seed", 1, "synthetic trace seed")
	replicates := flag.Int("replicates", 1, "independently seeded traces to average over (synthetic only)")
	workers := flag.Int("workers", 0, "sweep worker-pool size (0 = all cores)")
	ocList := flag.String("oc", "0,10,20,30,40,50,60,70", "overcommitment percentages")
	strategies := flag.String("strategies", strings.Join(clustersim.Strategies, ","),
		"comma-separated strategies")
	shocks := flag.String("shocks", "none", "capacity-shock scenario: none, poisson, diurnal or rack")
	shockRate := flag.Float64("shockrate", 0.5, "expected revocations per server per day")
	outage := flag.Float64("outage", 7200, "mean revocation outage (seconds)")
	rackSize := flag.Int("racksize", 8, "correlated group size for -shocks rack")
	shockSeed := flag.Int64("shockseed", 1, "shock-schedule seed")
	stream := flag.Bool("stream", false, "drive the sweep from a streaming trace: O(live VMs) resident memory, identical results, every strategy (synthetic single-trace runs only)")
	sloMax := flag.Float64("slo", 0, "SLO slowdown threshold (e.g. 2 = 2x); >0 turns on per-VM queueing-model SLO metering")
	sloCurve := flag.String("slocurve", "", "perfmodel curve for SLO metering: specjbb, kcompile or memcached (default: worst-case linear)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-sweep) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // up-to-date live-object statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	strats := splitStrategies(*strategies)
	ocs := parseFloats(*ocList)
	opts := clustersim.Options{Workers: *workers}
	if err := checkReplicates(*replicates); err != nil {
		log.Fatal(err)
	}
	slo, err := sloOptions(*sloMax, *sloCurve)
	if err != nil {
		log.Fatal(err)
	}
	opts.SLO = slo
	sloOn := slo != nil
	shocked := false
	if kind, err := trace.ParseShockScenario(*shocks); err != nil {
		log.Fatal(err)
	} else if kind != trace.ShockNone {
		shocked = true
		opts.ShockConfig = &trace.ShockConfig{
			Kind:       kind,
			RatePerDay: *shockRate,
			OutageMean: *outage,
			RackSize:   *rackSize,
			Seed:       *shockSeed,
		}
	}

	var results []*clustersim.SweepResult
	switch {
	case *stream:
		if *azurePath != "" || *replicates > 1 {
			log.Fatal("-stream applies to synthetic single-trace runs only (not -azure or -replicates)")
		}
		s, err := trace.NewNamedStream(*scenario, *nVMs, *days*86400, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scenario %s (streamed): %d VMs, horizon %.1f days\n\n", *scenario, s.Len(), *days)
		results, err = clustersim.SweepGridStream(s, strats, ocs, opts)
		if err != nil {
			log.Fatal(err)
		}
	case *azurePath != "":
		tr := loadCSV(*azurePath)
		fmt.Printf("trace: %d VMs, horizon %.1f days\n\n", len(tr.VMs), tr.Duration()/86400)
		var err error
		results, err = clustersim.SweepGrid(tr, strats, ocs, opts)
		if err != nil {
			log.Fatal(err)
		}
	case *replicates > 1:
		gen, err := trace.ScenarioGenerator(*scenario, *nVMs, *days*86400)
		if err != nil {
			log.Fatal(err)
		}
		seeds := make([]int64, *replicates)
		for i := range seeds {
			seeds[i] = *seed + int64(i)
		}
		fmt.Printf("scenario %s: %d VMs x %d replicates, horizon %.1f days (mean shown)\n\n",
			*scenario, *nVMs, *replicates, *days)
		reps, err := clustersim.ReplicatedSweep(gen, seeds, strats, ocs, opts)
		if err != nil {
			log.Fatal(err)
		}
		results = clustersim.AverageSweeps(reps)
	default:
		tr, err := trace.GenerateNamed(*scenario, *nVMs, *days*86400, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scenario %s: %d VMs, horizon %.1f days\n\n", *scenario, len(tr.VMs), tr.Duration()/86400)
		results, err = clustersim.SweepGrid(tr, strats, ocs, opts)
		if err != nil {
			log.Fatal(err)
		}
	}

	for _, sr := range results {
		fmt.Printf("== strategy: %s\n", sr.Strategy)
		fmt.Printf("%8s %12s %12s %12s %12s %12s",
			"oc%", "failure", "tput-loss%", "rev-static%", "rev-prio%", "rev-alloc%")
		if shocked {
			fmt.Printf(" %8s %8s %8s", "revoc", "evac", "kills")
		}
		if sloOn {
			fmt.Printf(" %12s %10s %8s", "slo-viol-sec", "viol-rate", "p99-slow")
		}
		fmt.Println()
		incS := clustersim.RevenueIncrease(sr, "static")
		incP := clustersim.RevenueIncrease(sr, "priority")
		incA := clustersim.RevenueIncrease(sr, "allocation")
		for i, p := range sr.Points {
			fmt.Printf("%8.0f %12.4f %12.2f %12.1f %12.1f %12.1f",
				p.OvercommitPct, p.FailureProbability, p.ThroughputLossPct,
				at(incS, i), at(incP, i), at(incA, i))
			if shocked {
				fmt.Printf(" %8d %8d %8d", p.Revocations, p.Evacuations, p.ShockKills)
			}
			if sloOn {
				fmt.Printf(" %12.0f %10.4f %8.2f", p.SLOViolationSeconds, p.SLOViolationRate, p.SLOLatencyP99)
			}
			fmt.Println()
		}
		fmt.Println()
	}
}

// checkReplicates rejects a -replicates that asks for no trace.
func checkReplicates(n int) error {
	if n < 1 {
		return fmt.Errorf("-replicates %d: want 1 or more traces", n)
	}
	return nil
}

// sloOptions turns -slo and -slocurve into the sweep's SLO metering:
// none for -slo 0, and an error for a threshold that is not a finite
// non-negative number or for a curve without a threshold.
func sloOptions(max float64, curve string) (*clustersim.SLOConfig, error) {
	switch {
	case math.IsNaN(max) || math.IsInf(max, 0) || max < 0:
		return nil, fmt.Errorf("-slo %v: want 0 (off) or a finite slowdown threshold above 0", max)
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

func loadCSV(path string) *trace.AzureTrace {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadAzureCSV(f)
	if err != nil {
		log.Fatal(err)
	}
	return tr
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			log.Fatalf("bad number %q", p)
		}
		out = append(out, f)
	}
	return out
}
