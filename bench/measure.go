package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// rtSnapshot is the slice of runtime/metrics the benchmark reads.
// Allocation counters are cumulative, so a delta over a region is that
// region's allocations whatever the collector did meanwhile.
type rtSnapshot struct {
	allocs      uint64  // /gc/heap/allocs:objects
	allocBytes  uint64  // /gc/heap/allocs:bytes
	heapObjects uint64  // /memory/classes/heap/objects:bytes (live + unswept)
	heapLive    uint64  // /gc/heap/live:bytes (marked by the last collection)
	gcCycles    uint64  // /gc/cycles/total:gc-cycles
	gcCPU       float64 // /cpu/classes/gc/total:cpu-seconds
	totalCPU    float64 // /cpu/classes/total:cpu-seconds
}

// rtReader owns its sample buffer so reads never allocate; each
// goroutine that reads uses its own.
type rtReader struct{ s []metrics.Sample }

func newRTReader() *rtReader {
	return &rtReader{[]metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

func (r *rtReader) read() rtSnapshot {
	metrics.Read(r.s)
	return rtSnapshot{
		allocs:      r.s[0].Value.Uint64(),
		allocBytes:  r.s[1].Value.Uint64(),
		heapObjects: r.s[2].Value.Uint64(),
		heapLive:    r.s[3].Value.Uint64(),
		gcCycles:    r.s[4].Value.Uint64(),
		gcCPU:       r.s[5].Value.Float64(),
		totalCPU:    r.s[6].Value.Float64(),
	}
}

// heapSampler tracks the peaks of heap-object bytes and of the live heap
// on a 10 ms ticker.
type heapSampler struct {
	quit        chan struct{}
	done        chan struct{}
	peakObjects uint64
	peakLive    uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		r := newRTReader()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			snap := r.read()
			h.peakObjects = max(h.peakObjects, snap.heapObjects)
			h.peakLive = max(h.peakLive, snap.heapLive)
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the goroutine and returns the peaks.
func (h *heapSampler) stop() (objects, live uint64) {
	close(h.quit)
	<-h.done
	return h.peakObjects, h.peakLive
}

// calibrate times a fixed sort-and-map kernel before each traced pass.
// It only flags a slow or throttled box in the report; no metric is ever
// rescaled by it (that made the spread worse, not better — see README).
func calibrate() time.Duration {
	const n = 1 << 16
	xs := make([]uint64, n)
	x := uint64(88172645463325252)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = x
	}
	t0 := time.Now()
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	m := make(map[uint64]int, n/4)
	for i, v := range xs {
		m[v%(n/4)] += i
	}
	calibSink = len(m)
	return time.Since(t0)
}

var calibSink int

// repeat is one timed operation: set the workload up, run it, check it.
type repeat struct {
	traceSeed  int64
	setupS     float64
	runS       float64
	peakHeapMB float64
	allocs     float64 // heap objects allocated over setup+run
	allocKB    float64
	out        *outcome
}

// timedRepeat measures one untraced setup+run of w at traceSeed. The
// forced collection sits outside the timed region.
func timedRepeat(w *workload, traceSeed int64) (repeat, error) {
	r := repeat{traceSeed: traceSeed}
	runtime.GC()
	rt := newRTReader()
	before := rt.read()
	hs := startHeapSampler()
	t0 := time.Now()
	p, err := prepare(w, traceSeed, nil, nil)
	if err != nil {
		hs.stop()
		return r, err
	}
	t1 := time.Now()
	r.out, err = p.run()
	t2 := time.Now()
	peak, _ := hs.stop()
	after := rt.read()
	if err != nil {
		return r, err
	}
	r.setupS = t1.Sub(t0).Seconds()
	r.runS = t2.Sub(t1).Seconds()
	r.peakHeapMB = float64(peak) / (1 << 20)
	r.allocs = float64(after.allocs - before.allocs)
	r.allocKB = float64(after.allocBytes-before.allocBytes) / 1024
	return r, nil
}

// endToEndValues maps one repeat onto the end-to-end metrics, in
// catalogue order.
func (r repeat) endToEndValues() []float64 {
	vms := float64(r.out.arrivals)
	return []float64{
		r.setupS,
		vms / r.runS,
		r.peakHeapMB,
		r.allocs / vms,
		r.allocKB / vms,
	}
}
