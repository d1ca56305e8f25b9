package vmdeflate

// The 10M-VM streamed run and its heap gate: a streamed trace is never
// materialised, so a run's resident memory is O(live VMs), and the
// benchmark fails unless its peak heap stays streamedHeapRatio below
// what the eager trace would hold.

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/trace"
)

// streamedHeapRatio is the gate: the eager trace estimate over the
// streamed run's peak heap. At 10M VMs the peak is per-live-VM cluster
// state (~147k concurrently live VMs), which streaming cannot shrink.
const streamedHeapRatio = 3.5

// eagerBytesEstimate returns the bytes s would occupy materialised, in
// Materialize's block layout: per VM its VMRecord (80 B), the trace's
// *VMRecord slot (8 B), its ID's bytes and its utilisation samples.
func eagerBytesEstimate(s *trace.Stream) uint64 {
	var total uint64
	for i := 0; i < s.Len(); i++ {
		p := s.Params(i)
		total += 88 + uint64(len(p.ID())) + 8*uint64(p.Samples())
	}
	return total
}

// heapWatcher samples runtime.ReadMemStats on a background goroutine
// and tracks the peak live heap. ReadMemStats stops the world for
// microseconds; at a 100ms cadence the overhead is noise.
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			w.sample()
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// sample raises the peak to the current HeapAlloc.
func (w *heapWatcher) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.peak = max(w.peak, ms.HeapAlloc)
}

// Stop ends the sampling goroutine, takes a final sample — so the heap
// of the last sampling interval is seen — and returns the peak observed
// HeapAlloc.
func (w *heapWatcher) Stop() uint64 {
	close(w.stop)
	<-w.done
	w.sample()
	return w.peak
}

// BenchmarkStreamed10M runs 10M streamed heavy-tail VMs over three days
// (seed 1) at 50 % overcommitment on the fleet the peak-demand bound
// sizes, and fails unless the run's peak heap is at least
// streamedHeapRatio below eagerBytesEstimate. It takes minutes, so run
// it once, with a timeout past go test's default ten minutes:
//
//	go test -run '^$' -bench '^BenchmarkStreamed10M$' -benchtime 1x -timeout 40m .
func BenchmarkStreamed10M(b *testing.B) {
	s, err := trace.NewNamedStream("heavytail", 10_000_000, 3*86400, 1)
	if err != nil {
		b.Fatal(err)
	}
	eager := eagerBytesEstimate(s)
	base, err := clustersim.PeakServerLowerBoundStream(s, clustersim.DefaultServerCapacity())
	if err != nil {
		b.Fatal(err)
	}
	// The collector's default 100 % headroom doubles the peak over the
	// live set; halving it trades a little GC CPU for a much tighter
	// footprint. The memory limit pins the collector to the gate's
	// budget, so the pacer cannot let the heap drift past it.
	defer debug.SetGCPercent(debug.SetGCPercent(50))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(int64(float64(eager) / streamedHeapRatio)))
	// Drop the sizing pass's transient geometry, so the peak is what the
	// run keeps resident.
	runtime.GC()
	b.ResetTimer()
	for range b.N {
		hw := watchHeap()
		_, err := clustersim.Run(clustersim.Config{Stream: s, Overcommit: 0.5, BaselineServers: base})
		peak := hw.Stop()
		if err != nil {
			b.Fatal(err)
		}
		ratio := float64(eager) / float64(peak)
		b.ReportMetric(float64(peak)/1e6, "peak-heap-MB")
		b.ReportMetric(float64(eager)/1e6, "eager-MB")
		b.ReportMetric(ratio, "eager/peak")
		if ratio < streamedHeapRatio {
			b.Fatalf("streamed peak heap %.0f MB is only %.2fx below the eager trace estimate %.0f MB (want >= %.1fx)",
				float64(peak)/1e6, ratio, float64(eager)/1e6, streamedHeapRatio)
		}
	}
}

// TestEagerBytesEstimateSane: the estimate is at least the raw sample
// bytes — the floor of what a materialised trace must hold — and is
// exactly what Materialize's block layout holds per record: the
// VMRecord, its pointer slot, its ID's bytes and its samples.
func TestEagerBytesEstimateSane(t *testing.T) {
	for _, sc := range trace.Scenarios() {
		t.Run(string(sc), func(t *testing.T) {
			s, err := trace.NewNamedStream(string(sc), 200, 3*86400, 1)
			if err != nil {
				t.Fatal(err)
			}
			var samples uint64
			for i := 0; i < s.Len(); i++ {
				samples += uint64(s.Params(i).Samples())
			}
			est := eagerBytesEstimate(s)
			if est < 8*samples {
				t.Fatalf("estimate %d below raw sample bytes %d", est, 8*samples)
			}
			var layout uint64
			for _, vm := range s.Materialize().VMs {
				layout += uint64(unsafe.Sizeof(*vm)+unsafe.Sizeof(vm)) + uint64(len(vm.ID)) + 8*uint64(len(vm.CPUUtil))
			}
			if est != layout {
				t.Errorf("estimate %d, block layout holds %d", est, layout)
			}
		})
	}
}

// TestHeapWatcherStopSamplesFinalHeap: memory allocated after the
// watcher's last tick and still live at Stop must reach the peak, so a
// run's final sampling interval is not invisible to the gate.
func TestHeapWatcherStopSamplesFinalHeap(t *testing.T) {
	const size = 64 << 20
	w := watchHeap()
	time.Sleep(10 * time.Millisecond)
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i)
	}
	peak := w.Stop()
	runtime.KeepAlive(buf)
	if peak < size {
		t.Fatalf("peak heap %d B, want >= %d B live at Stop", peak, size)
	}
}
