// Command bench is the repository's performance benchmark: four named
// workloads, each measured end to end over timed repeats and then layer
// by layer in a traced run whose spans come from this package's own
// calls into each layer's public functions. See README.md for the
// workload and metric catalogue and BENCHMARK.json for the contract the
// driver holds it to.
//
// Usage:
//
//	go run ./bench                                   # full session: every workload, timed then traced
//	go run ./bench -workload slo-bursty -trace 0     # one workload, timed repeats only
//	go run ./bench -workload slo-bursty -trace 1 -spans spans.jsonl
//	go run ./bench -out session.json                 # keep the session for -compare
//	go run ./bench -compare bench/baseline.json session.json
//
// A run for one workload in one mode ends with the driver's result
// line: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"slices"
	"time"
)

// lanes is how many trace seeds one run derives from -seed. Timed
// repeats rotate through them, so a run's figure averages over several
// traces and seed-to-seed differences in simulated work (fleet-sizing
// cost alone varies 4x) do not read as host noise.
const lanes = 4

// laneSeed derives lane i's trace seed; lane 0 is the seed itself.
func laneSeed(seed int64, lane int) int64 { return seed + int64(lane)*1000003 }

// mode selects which halves of a session run.
const (
	modeTimed  = 0
	modeTraced = 1
	modeBoth   = -1
)

// workloadRun accumulates one workload's results over a session.
type workloadRun struct {
	w       *workload
	spent   time.Duration // wall used by this workload's timed repeats
	repeats []repeat
	passes  []map[string]float64 // per traced pass: per-layer metric values
	ops     int
	failed  int
	first   map[int64]string // first digest seen per trace seed
}

// check counts one operation and verifies its digest: against the
// golden when one exists for this architecture, size and seed, and
// against the first digest the same inputs produced in this process.
func (wr *workloadRun) check(traceSeed int64, digest string) {
	wr.ops++
	prev, seen := wr.first[traceSeed]
	if !seen {
		wr.first[traceSeed] = digest
	}
	want := goldenFor(wr.w, traceSeed)
	if want == "" {
		want = prev
	}
	if want != "" && digest != want {
		wr.failed++
		log.Printf("%s seed %d: digest %s, want %s", wr.w.name, traceSeed, digest, want)
	}
}

// printDigests lists what each trace seed produced and whether a
// checked-in golden vouched for it.
func (wr *workloadRun) printDigests(w io.Writer) {
	seeds := make([]int64, 0, len(wr.first))
	for s := range wr.first {
		seeds = append(seeds, s)
	}
	slices.Sort(seeds)
	for _, s := range seeds {
		status := "matches golden"
		switch want := goldenFor(wr.w, s); {
		case want == "":
			status = fmt.Sprintf("no golden for %s %s; repeats checked against each other", runtime.GOARCH, goldenKey(wr.w))
		case want != wr.first[s]:
			status = "DIFFERS from golden " + want
		}
		fmt.Fprintf(w, "%-16s digest seed %d %s %s\n", wr.w.name, s, wr.first[s], status)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	name := flag.String("workload", "", "run only this workload (default: all, round-robin)")
	seed := flag.Int64("seed", 1, "input seed; trace seeds and the shock schedule derive from it")
	seconds := flag.Int("seconds", 20, "measuring time per workload and mode")
	mode := flag.Int("trace", modeBoth, "0 = timed repeats only, 1 = traced run only (default: both)")
	spansPath := flag.String("spans", "", "write the traced run's spans to this file as JSON lines")
	outPath := flag.String("out", "", "write the session (every metric's distribution) to this file")
	compare := flag.Bool("compare", false, "compare two session files given as arguments and exit")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare takes two session files")
		}
		os.Exit(compareSessions(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		log.Fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || *mode < modeBoth || *mode > modeTraced {
		log.Fatal("-seconds must be at least 1 and -trace 0 or 1")
	}

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			log.Fatal(err)
		}
		selected = []*workload{w}
	}
	runs := make([]*workloadRun, len(selected))
	for i, w := range selected {
		runs[i] = &workloadRun{w: w, first: map[int64]string{}}
	}
	budget := time.Duration(*seconds) * time.Second
	fmt.Printf("bench: seed %d, %d s per workload and mode, GOMAXPROCS %d, %s/%s\n",
		*seed, *seconds, runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)

	if *mode != modeTraced {
		if err := timedPhase(runs, *seed, budget); err != nil {
			log.Fatal(err)
		}
	}
	if *mode != modeTimed {
		var spans io.WriteCloser // stays a nil interface without -spans
		if *spansPath != "" {
			f, err := os.Create(*spansPath)
			if err != nil {
				log.Fatal(err)
			}
			spans = f
		}
		if err := tracedPhase(runs, *seed, budget, spans); err != nil {
			log.Fatal(err)
		}
		if spans != nil {
			if err := spans.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}

	sess := buildSession(runs, *seed, *seconds)
	sess.print(os.Stdout)
	for _, wr := range runs {
		wr.printDigests(os.Stdout)
	}
	if *outPath != "" {
		if err := sess.write(*outPath); err != nil {
			log.Fatal(err)
		}
	}
	failed := 0
	for _, wr := range runs {
		failed += wr.failed
	}
	if len(runs) == 1 && *mode != modeBoth {
		printDriverLine(sess.Workloads[runs[0].w.name], *mode)
	}
	if failed > 0 {
		log.Fatalf("%d operations failed their digest or replay check", failed)
	}
}

// timedPhase runs one untimed warm-up per workload, then timed repeats
// round-robin across workloads — so drift in the machine lands on all of
// them alike — until each has measured for budget.
func timedPhase(runs []*workloadRun, seed int64, budget time.Duration) error {
	for _, wr := range runs {
		r, err := timedRepeat(wr.w, laneSeed(seed, 0))
		if err != nil {
			return fmt.Errorf("%s warm-up: %w", wr.w.name, err)
		}
		wr.first[r.traceSeed] = r.out.digest
	}
	for round := 0; ; round++ {
		ran := false
		for _, wr := range runs {
			if wr.spent >= budget {
				continue
			}
			ran = true
			t0 := time.Now()
			r, err := timedRepeat(wr.w, laneSeed(seed, round%lanes))
			wr.spent += time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s repeat %d: %w", wr.w.name, round, err)
			}
			wr.check(r.traceSeed, r.out.digest)
			wr.repeats = append(wr.repeats, r)
		}
		if !ran {
			return nil
		}
	}
}

// printDriverLine prints the one-line JSON result the driver reads:
// end-to-end metrics after a timed run, per-layer metrics after a traced
// one.
func printDriverLine(ws *workloadSummary, mode int) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ws.Failed == 0, ws.Ops, ws.Failed, map[string]value{}}
	catalogue, sums := endToEnd, ws.EndToEnd
	if mode == modeTraced {
		catalogue, sums = perLayer, ws.PerLayer
	}
	for _, m := range catalogue {
		out.Metrics[m.name] = value{sums[m.name].Median, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
}
