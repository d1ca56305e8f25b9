package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"

	"vmdeflate/internal/stats"
)

// session is what one invocation measured, in the form -out writes and
// -compare reads. Wall-clock figures in a checked-in session are
// informational: they describe the box that produced them.
type session struct {
	Note       string                      `json:"note"`
	Seed       int64                       `json:"seed"`
	Seconds    int                         `json:"seconds"`
	GoVersion  string                      `json:"go"`
	GOARCH     string                      `json:"goarch"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	Workloads  map[string]*workloadSummary `json:"workloads"`

	order []string // print order; not serialised
}

const sessionNote = "setup_s, arrivals_per_s and every per-layer time are wall clock on the machine that ran this session and informational anywhere else; counts, allocation figures and sim.* carry over"

type workloadSummary struct {
	Ops      int                `json:"ops"`
	Failed   int                `json:"failed"`
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
	PerLayer map[string]summary `json:"per_layer,omitempty"`
}

// laneSummary reduces per-repeat values measured on rotating lanes to
// one distribution. The headline is the mean over lanes of each lane's
// median, so every trace seed weighs the same however many repeats it
// got. The quartiles come from the repeats rescaled by their own lane's
// median: they show host noise, not the differences between lanes.
func laneSummary(unit string, vals []float64, seeds []int64) summary {
	byLane := map[int64][]float64{}
	for i, v := range vals {
		byLane[seeds[i]] = append(byLane[seeds[i]], v)
	}
	laneSeeds := make([]int64, 0, len(byLane))
	for s := range byLane {
		laneSeeds = append(laneSeeds, s)
	}
	slices.Sort(laneSeeds) // fixed summation order: counts must repeat to the last bit
	laneMedian := make(map[int64]float64, len(byLane))
	var head float64
	for _, s := range laneSeeds {
		laneMedian[s] = stats.Percentile(byLane[s], 50)
		head += laneMedian[s] / float64(len(byLane))
	}
	scaled := make([]float64, len(vals))
	for i, v := range vals {
		scaled[i] = v
		if m := laneMedian[seeds[i]]; m != 0 {
			scaled[i] = v / m * head
		}
	}
	sum := summarize(unit, scaled)
	sum.Median = head
	return sum
}

func (wr *workloadRun) endToEndSummaries() map[string]summary {
	if len(wr.repeats) == 0 {
		return nil
	}
	seeds := make([]int64, len(wr.repeats))
	cols := make([][]float64, len(endToEnd))
	for i, r := range wr.repeats {
		seeds[i] = r.traceSeed
		for j, v := range r.endToEndValues() {
			cols[j] = append(cols[j], v)
		}
	}
	out := make(map[string]summary, len(endToEnd))
	for j, m := range endToEnd {
		out[m.name] = laneSummary(m.unit, cols[j], seeds)
	}
	return out
}

func (wr *workloadRun) perLayerSummaries() map[string]summary {
	if len(wr.passes) == 0 {
		return nil
	}
	out := make(map[string]summary, len(perLayer))
	for _, m := range perLayer {
		vals := make([]float64, len(wr.passes))
		for i, p := range wr.passes {
			vals[i] = p[m.name]
		}
		out[m.name] = summarize(m.unit, vals)
	}
	return out
}

func buildSession(runs []*workloadRun, seed int64, seconds int) *session {
	s := &session{
		Note: sessionNote,
		Seed: seed, Seconds: seconds,
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workloads: map[string]*workloadSummary{},
	}
	for _, wr := range runs {
		s.order = append(s.order, wr.w.name)
		s.Workloads[wr.w.name] = &workloadSummary{
			Ops: wr.ops, Failed: wr.failed,
			EndToEnd: wr.endToEndSummaries(),
			PerLayer: wr.perLayerSummaries(),
		}
	}
	return s
}

// print lists every metric by name with its unit, one row per workload
// and metric.
func (s *session) print(w io.Writer) {
	row := func(name string, m metric, sum summary) {
		fmt.Fprintf(w, "%-16s %-34s %14.6g %-6s q1 %.6g q3 %.6g min %.6g max %.6g n %d\n",
			name, m.name, sum.Median, m.unit, sum.Q1, sum.Q3, sum.Min, sum.Max, sum.N)
	}
	for _, name := range s.order {
		ws := s.Workloads[name]
		fmt.Fprintf(w, "%-16s ops %d failed %d\n", name, ws.Ops, ws.Failed)
		for _, m := range endToEnd {
			if sum, ok := ws.EndToEnd[m.name]; ok {
				row(name, m, sum)
			}
		}
		for _, m := range perLayer {
			if sum, ok := ws.PerLayer[m.name]; ok {
				row(name, m, sum)
			}
		}
	}
}

func (s *session) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSession(path string) (*session, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s session
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for name := range s.Workloads {
		s.order = append(s.order, name)
	}
	sort.Strings(s.order)
	return &s, nil
}
