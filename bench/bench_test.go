package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"
)

// shrunk returns a copy of w at about a fiftieth of its size, so the
// whole suite runs in seconds and under the race detector. A shrunk
// workload has no golden digest (goldens are keyed by size); repeats
// are checked against each other instead.
func shrunk(w *workload) *workload {
	c := *w
	c.vms = max(250, w.vms/50)
	return &c
}

func shrunkRuns() []*workloadRun {
	runs := make([]*workloadRun, len(workloads))
	for i, w := range workloads {
		runs[i] = &workloadRun{w: shrunk(w), first: map[int64]string{}}
	}
	return runs
}

// TestTimedRepeats drives the round-robin timed phase — one warm-up and
// one repeat per workload at the smallest budget — adds a second repeat,
// and checks that all three produced one digest and that no end-to-end
// metric reads zero.
func TestTimedRepeats(t *testing.T) {
	runs := shrunkRuns()
	if err := timedPhase(runs, 1, time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	for _, wr := range runs {
		r, err := timedRepeat(wr.w, laneSeed(1, 0))
		if err != nil {
			t.Fatalf("%s: %v", wr.w.name, err)
		}
		wr.check(r.traceSeed, r.out.digest)
		wr.repeats = append(wr.repeats, r)
		if wr.ops != 2 || wr.failed != 0 {
			t.Errorf("%s: ops %d failed %d, want 2 and 0", wr.w.name, wr.ops, wr.failed)
		}
		sums := wr.endToEndSummaries()
		if len(sums) != len(endToEnd) {
			t.Fatalf("%s: %d end-to-end metrics, catalogue has %d", wr.w.name, len(sums), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v := sums[m.name].Median; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", wr.w.name, m.name, v)
			}
		}
	}
}

// TestTracedPass runs a traced pass per workload: the traced digest must
// equal the untraced one, the replay must issue the engine's calls
// (equal counts) wherever it claims to, every catalogue name must be
// emitted and no other, and the layer split must be consistent. The
// split compares two separate executions of about 10 ms each at test
// size, so a loaded machine can invert it; it has to hold on one pass in
// five (at full size the margin is most of a second).
func TestTracedPass(t *testing.T) {
	for _, w := range workloads {
		w := shrunk(w)
		tr := newTracer(w.name, 2*w.vms+1<<14)
		var split string
		for attempt := 0; attempt < 5; attempt++ {
			vals, _, ok, err := tracedPass(w, 1, tr)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !ok {
				t.Errorf("%s: traced pass reported incorrect outputs", w.name)
			}
			if len(vals) != len(perLayer) {
				t.Errorf("%s: %d per-layer values, catalogue has %d", w.name, len(vals), len(perLayer))
			}
			for _, m := range perLayer {
				if _, ok := vals[m.name]; !ok {
					t.Errorf("%s: %s not emitted", w.name, m.name)
				}
			}
			if !w.sweep {
				if !w.slo && vals["cluster.replay_admitted_delta"] != 0 {
					t.Errorf("%s: replay admitted %v more VMs than the engine", w.name, vals["cluster.replay_admitted_delta"])
				}
				if w.shocks && vals["cluster.revoke_calls"] == 0 {
					t.Errorf("%s: replay issued no revocations", w.name)
				}
				if vals["cluster.place_s"] <= 0 || vals["cluster.remove_s"] <= 0 {
					t.Errorf("%s: replay timed no placements or removals", w.name)
				}
			}
			if split = ""; vals["clustersim.self_s"] < 0 {
				split = fmt.Sprintf("clustersim.self_s = %v with run_s = %v, want >= 0", vals["clustersim.self_s"], vals["clustersim.run_s"])
			}
			if split == "" || t.Failed() {
				break
			}
		}
		if split != "" {
			t.Errorf("%s: %s", w.name, split)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package
// and both to the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", doc.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's charset", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), table has %q (%q)",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}

	match := func(kind string, got []jsonMetric, want []metric, limit int, bounded bool) {
		if len(want) > limit {
			t.Errorf("%d %s metrics, limit %d", len(want), kind, limit)
		}
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the catalogue", len(got), kind, len(want))
		}
		for i, m := range want {
			checkName(m.name)
			if !unit.MatchString(m.unit) {
				t.Errorf("%s: unit %q is outside the driver's charset", m.name, m.unit)
			}
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, catalogue has %+v", kind, i, g, m)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.name)
			case bounded && (g.Bound == nil || *g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the catalogue, want equal and in (0, 0.25]", m.name, g.Bound, m.bound)
			}
		}
	}
	match("end-to-end", doc.EndToEnd, endToEnd, 16, true)
	match("per-layer", doc.PerLayer, perLayer, 128, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
}

// TestLaneSummary pins the reduction the end-to-end figures go through:
// lanes weigh equally whatever their repeat counts, and the quartiles
// are free of between-lane differences.
func TestLaneSummary(t *testing.T) {
	vals := []float64{10, 20, 10, 20, 10}
	seeds := []int64{1, 2, 1, 2, 1}
	s := laneSummary("x", vals, seeds)
	if s.Median != 15 || s.N != 5 {
		t.Errorf("headline %v n %d, want 15 and 5", s.Median, s.N)
	}
	if s.spread() != 0 {
		t.Errorf("spread %v, want 0: every repeat sits on its lane's median", s.spread())
	}
}
