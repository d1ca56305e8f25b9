package main

import (
	"runtime"
	"testing"
	"time"
)

// TestHeapWatcherStopSamplesFinalHeap: memory allocated after the
// watcher's last tick and still live at Stop must reach the peak, so a
// run's final sampling interval is not invisible to the report.
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
