package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"text/tabwriter"
)

// isWhole tells a true count from a per-operation average that shares
// the unit.
func isWhole(v float64) bool { return v == math.Trunc(v) }

// compareSessions prints one row per workload and end-to-end metric of
// two session files — medians, quartiles, how much worse b is than a,
// and the metric's bound — and returns the process exit code: 1 when
// some metric regressed beyond its bound. A pair whose own
// interquartile spread exceeds the bound is "unresolved": the sessions
// cannot tell a regression from noise there, so it neither passes nor
// fails. Per-layer counts that differ are listed for information.
func compareSessions(pathA, pathB string) int {
	a, err := readSession(pathA)
	if err != nil {
		log.Fatal(err)
	}
	b, err := readSession(pathB)
	if err != nil {
		log.Fatal(err)
	}
	if a.GOARCH != b.GOARCH || a.GOMAXPROCS != b.GOMAXPROCS || a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Printf("note: sessions differ in setting: %s/%d procs/seed %d/%d s vs %s/%d procs/seed %d/%d s\n",
			a.GOARCH, a.GOMAXPROCS, a.Seed, a.Seconds, b.GOARCH, b.GOMAXPROCS, b.Seed, b.Seconds)
	}
	fmt.Println("note: setup_s and arrivals_per_s are wall clock; they compare only between sessions of one machine")

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3]\tb median [q1, q3]\tworse by\tbound\tverdict")
	regressions := 0
	for _, name := range a.order {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			continue
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(tw, "%s\tfailed operations\tcount\t%d of %d\t%d of %d\t\t\tregression\n", name, wa.Failed, wa.Ops, wb.Failed, wb.Ops)
			regressions++
		}
		for _, m := range endToEnd {
			sa, okA := wa.EndToEnd[m.name]
			sb, okB := wb.EndToEnd[m.name]
			if !okA || !okB {
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case sa.spread() > m.bound || sb.spread() > m.bound:
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "regression"
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%.0f%%\t%s\n",
				name, m.name, m.unit, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, worse*100, m.bound*100, verdict)
		}
		for _, m := range perLayer {
			sa, okA := wa.PerLayer[m.name]
			sb, okB := wb.PerLayer[m.name]
			if okA && okB && m.unit == "count" && isWhole(sa.Median) && isWhole(sb.Median) && sa.Median != sb.Median {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t\t\tinfo: count differs\n", name, m.name, m.unit, sa.Median, sb.Median)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	if regressions > 0 {
		fmt.Printf("%d regressions\n", regressions)
		return 1
	}
	return 0
}
