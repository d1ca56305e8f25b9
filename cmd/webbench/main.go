// Command webbench runs the testbed-style application experiments of
// Section 7.2-7.3 and prints the series behind Figures 3, 14, 16, 17,
// 18 and 19.
//
// Usage:
//
//	webbench            # all experiments
//	webbench -fig 16    # one figure
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"

	"vmdeflate/internal/apps"
	"vmdeflate/internal/mechanism"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("webbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args and prints the selected figures' series to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fig := fs.Int("fig", 0, "only this figure (3, 14, 16, 17, 18, 19); 0 = all")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args) // ExitOnError: a bad flag exits here, as flag.Parse did
	if err := checkFig(*fig); err != nil {
		return err
	}

	show := func(n int) bool { return *fig == 0 || *fig == n }

	if show(3) {
		fmt.Fprintln(w, "== Figure 3: normalised performance, all resources deflated together")
		pcts := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
		transparent := func(model apps.ResourceModel) func(float64) (float64, error) {
			return func(pct float64) (float64, error) { return apps.PerformanceAt(model, mechanism.Transparent{}, pct) }
		}
		fmt.Fprintf(w, "%8s %10s %10s %10s\n", "defl%", "specjbb", "kcompile", "memcached")
		sj, err1 := apps.Sweep(pcts, transparent(apps.SpecJBB{}))
		kc, err2 := apps.Sweep(pcts, transparent(apps.Kcompile{}))
		mc, err3 := apps.Sweep(pcts, transparent(apps.Memcached{}))
		if err := errors.Join(err1, err2, err3); err != nil {
			return err
		}
		for i, pct := range pcts {
			fmt.Fprintf(w, "%8.0f %10.3f %10.3f %10.3f\n", pct, sj[i], kc[i], mc[i])
		}
		fmt.Fprintln(w)
	}

	if show(14) {
		fmt.Fprintln(w, "== Figure 14: SpecJBB mean RT (normalised), memory-only deflation")
		pcts := []float64{0, 5, 10, 15, 20, 25, 30, 35, 40, 45}
		specJBB := func(mech mechanism.Mechanism) func(float64) (float64, error) {
			return func(pct float64) (float64, error) { return apps.SpecJBBMemoryRT(mech, pct) }
		}
		tr, err1 := apps.Sweep(pcts, specJBB(mechanism.Transparent{}))
		hy, err2 := apps.Sweep(pcts, specJBB(mechanism.Hybrid{}))
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		fmt.Fprintf(w, "%8s %12s %12s\n", "defl%", "transparent", "hybrid")
		for i, pct := range pcts {
			fmt.Fprintf(w, "%8.0f %12.3f %12.3f\n", pct, tr[i], hy[i])
		}
		fmt.Fprintln(w)
	}

	if show(16) || show(17) {
		fmt.Fprintln(w, "== Figures 16+17: Wikipedia (30 cores, 800 req/s), CPU deflation")
		cfg := apps.DefaultWikipediaConfig()
		cfg.Seed = *seed
		pts, err := apps.Sweep([]float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 97},
			func(pct float64) (apps.Point, error) { return apps.RunWikipedia(cfg, pct) })
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8s %6s %10s %10s %10s %10s %10s\n",
			"defl%", "cores", "mean(s)", "median(s)", "p90(s)", "p99(s)", "served%")
		for _, p := range pts {
			fmt.Fprintf(w, "%8.0f %6.1f %10.3f %10.3f %10.3f %10.3f %10.1f\n",
				p.DeflationPct, p.Cores, p.Mean, p.Median, p.P90, p.P99, p.ServedFraction*100)
		}
		fmt.Fprintln(w)
	}

	if show(18) {
		fmt.Fprintln(w, "== Figure 18: social network (30 microservices, 500 req/s), 22/30 deflated")
		cfg := apps.DefaultSocialNetConfig()
		cfg.Seed = *seed
		pts, err := apps.Sweep([]float64{0, 30, 50, 60, 65},
			func(pct float64) (apps.Point, error) { return apps.RunSocialNetwork(cfg, pct) })
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8s %12s %12s %12s %10s\n", "defl%", "median(ms)", "p90(ms)", "p99(ms)", "served%")
		for _, p := range pts {
			fmt.Fprintf(w, "%8.0f %12.1f %12.1f %12.1f %10.1f\n",
				p.DeflationPct, p.Median*1000, p.P90*1000, p.P99*1000, p.ServedFraction*100)
		}
		fmt.Fprintln(w)
	}

	if show(19) {
		fmt.Fprintln(w, "== Figure 19: deflation-aware load balancing (3 Wikipedia replicas, 200 req/s)")
		cfg := apps.DefaultLBConfig()
		cfg.Seed = *seed
		pcts := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80}
		balance := func(aware bool) func(float64) (apps.Point, error) {
			return func(pct float64) (apps.Point, error) { return apps.RunLBExperiment(cfg, pct, aware) }
		}
		aware, err1 := apps.Sweep(pcts, balance(true))
		vanilla, err2 := apps.Sweep(pcts, balance(false))
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		fmt.Fprintf(w, "%8s %12s %12s %12s %12s\n",
			"defl%", "aware-mean", "vanilla-mean", "aware-p90", "vanilla-p90")
		for i := range pcts {
			fmt.Fprintf(w, "%8.0f %12.3f %12.3f %12.3f %12.3f\n", pcts[i],
				aware[i].Mean, vanilla[i].Mean, aware[i].P90, vanilla[i].P90)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// figures lists the figures -fig selects.
var figures = []int{3, 14, 16, 17, 18, 19}

// checkFig rejects a -fig that would select no figure.
func checkFig(fig int) error {
	if fig == 0 || slices.Contains(figures, fig) {
		return nil
	}
	return fmt.Errorf("-fig %d: want 0 for all, or one of %v", fig, figures)
}
