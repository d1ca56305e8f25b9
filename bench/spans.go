package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// spanID names a span. Spans carry the id, not the string, so the
// hundred thousand per-call spans of a replay stay a few megabytes
// beside workloads whose whole live heap is ten.
type spanID uint8

const (
	spPass spanID = iota // root: one traced pass of one workload
	spReference
	spTraceBuild
	spTraceShocks
	spSizing
	spPeakBound
	spNewEngine
	spRun
	spReplay
	spProvision
	spPlace
	spRemove
	spRevoke
	spRestore
	spResize
	spKernels
	spPoint // first of len(sweepStrategies) ids: one re-run grid point of that strategy
)

var spanNames = func() []string {
	names := []string{
		spPass:        "bench.pass",
		spReference:   "bench.reference_run",
		spTraceBuild:  "trace.build",
		spTraceShocks: "trace.shocks",
		spSizing:      "clustersim.sizing",
		spPeakBound:   "clustersim.peak_bound",
		spNewEngine:   "clustersim.new_engine",
		spRun:         "clustersim.run",
		spReplay:      "bench.replay",
		spProvision:   "cluster.provision",
		spPlace:       "cluster.place",
		spRemove:      "cluster.remove",
		spRevoke:      "cluster.revoke",
		spRestore:     "cluster.restore",
		spResize:      "cluster.resize",
		spKernels:     "bench.kernels",
	}
	for _, st := range sweepStrategies {
		names = append(names, "clustersim.point."+st.metricKey)
	}
	return names
}()

// span is one timed call from the benchmark's own code into a layer's
// public function.
type span struct {
	start, end int64 // nanoseconds since the tracer's epoch
	parent     int32 // index of the enclosing span, -1 for a root
	id         spanID
}

// tracer records one workload's spans into a preallocated slice; nothing
// is written out until that workload's traced run is over. A nil *tracer
// is a valid, free no-op, which is how the timed repeats and the traced
// run share one pipeline.
type tracer struct {
	epoch    time.Time
	workload string
	spans    []span
	open     []int32 // stack of unfinished spans
}

func newTracer(workload string, capacity int) *tracer {
	return &tracer{epoch: time.Now(), workload: workload, spans: make([]span, 0, capacity), open: make([]int32, 0, 8)}
}

// reset forgets the previous pass; the dump holds a workload's last one.
func (t *tracer) reset() { t.spans, t.open = t.spans[:0], t.open[:0] }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(id spanID) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: parent, id: id})
	t.open = append(t.open, i)
	t.spans[i].start = int64(time.Since(t.epoch))
	return i
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// seconds returns span i's duration.
func (t *tracer) seconds(i int32) float64 {
	return float64(t.spans[i].end-t.spans[i].start) / 1e9
}

// total sums the durations of every span with this id.
func (t *tracer) total(id spanID) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.id == id {
			ns += s.end - s.start
		}
	}
	return float64(ns) / 1e9
}

// selfSeconds returns each span's duration minus the part its child
// spans cover — a layer's own time.
func (t *tracer) selfSeconds() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		d := float64(s.end-s.start) / 1e9
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	return self
}

// writeJSONL appends every span to w, one JSON object per line. base is
// the number of lines already written, so parent stays a line index
// across workloads.
func (t *tracer) writeJSONL(w io.Writer, base int) error {
	type line struct {
		Name     string  `json:"name"`
		Start    int64   `json:"start_ns"`
		End      int64   `json:"end_ns"`
		SelfS    float64 `json:"self_s"`
		Parent   int     `json:"parent"`
		Workload string  `json:"workload"`
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	self := t.selfSeconds()
	for i, s := range t.spans {
		parent := -1
		if s.parent >= 0 {
			parent = base + int(s.parent)
		}
		if err := enc.Encode(line{spanNames[s.id], s.start, s.end, self[i], parent, t.workload}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
