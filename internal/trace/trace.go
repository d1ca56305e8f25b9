// Package trace models the two public cloud datasets the paper's
// feasibility study (Section 3) and cluster simulation (Section 7.4) are
// driven by: the Azure 2017 VM dataset (2M VMs, 5-minute CPU utilisation,
// workload-class labels, VM sizes and lifetimes) and the Alibaba 2018
// container dataset (CPU, memory, memory-bandwidth, disk and network
// utilisation for interactive services).
//
// The original datasets are not redistributable here, so the package
// provides statistically faithful synthetic generators (see azure.go and
// alibaba.go) whose marginal distributions match the published
// characteristics that the paper's analysis depends on, plus CSV
// round-tripping so experiments can also run on the real datasets if the
// user has them.
package trace

import (
	"fmt"
	"sync"

	"vmdeflate/internal/stats"
)

// SampleInterval is the trace sampling granularity in seconds (5 minutes,
// matching the Azure dataset).
const SampleInterval = 300.0

// VMClass labels the workload hosted in a VM, per the Azure dataset.
type VMClass int

const (
	// Interactive VMs host latency-sensitive services (web workloads).
	Interactive VMClass = iota
	// DelayInsensitive VMs host batch / data-processing jobs.
	DelayInsensitive
	// Unknown VMs carry no label.
	Unknown
)

// String returns the dataset's label for the class.
func (c VMClass) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case DelayInsensitive:
		return "delay-insensitive"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("VMClass(%d)", int(c))
	}
}

// ParseVMClass parses the label emitted by String.
func ParseVMClass(s string) (VMClass, error) {
	switch s {
	case "interactive":
		return Interactive, nil
	case "delay-insensitive":
		return DelayInsensitive, nil
	case "unknown":
		return Unknown, nil
	}
	return 0, fmt.Errorf("trace: unknown VM class %q", s)
}

// VMRecord is one VM's row in an Azure-style trace: metadata plus a CPU
// utilisation time series. Utilisation is the maximum CPU usage in each
// 5-minute interval, as a percentage of the VM's allocation (0-100;
// ReadAzureCSV rejects a sample outside that range).
type VMRecord struct {
	ID       string
	Class    VMClass
	Cores    int
	MemoryMB float64
	// Start and End are the VM's lifetime in seconds from trace start.
	Start, End float64
	// CPUUtil holds one sample per SampleInterval across [Start, End).
	CPUUtil []float64
}

// P95 returns the 95th-percentile CPU utilisation, the statistic the
// paper uses to derive deflation priorities (Sections 3.2 and 7.1.2).
func (r *VMRecord) P95() float64 { return stats.Percentile(r.CPUUtil, 95) }

// UtilAt returns the utilisation sample covering absolute time t, or 0
// outside the VM's lifetime.
func (r *VMRecord) UtilAt(t float64) float64 {
	if t < r.Start || t >= r.End || len(r.CPUUtil) == 0 {
		return 0
	}
	i := int((t - r.Start) / SampleInterval)
	if i >= len(r.CPUUtil) {
		i = len(r.CPUUtil) - 1
	}
	return r.CPUUtil[i]
}

// AzureTrace is a collection of VM records. Traces are treated as
// immutable once built: what depends on the trace alone — the horizon
// (Duration) and the row-indexed P95 column (P95Column) — is derived on
// first use and cached, so callers that append, drop or edit VMs after
// the first Duration or P95Column call get stale cached values.
// Concurrent readers may share one trace.
type AzureTrace struct {
	VMs []*VMRecord

	durOnce sync.Once
	dur     float64

	p95Once sync.Once
	p95     []float64
	// p95Sorts counts the series ordered while building p95; the tests pin
	// it to len(VMs) however many readers asked.
	p95Sorts int
}

// Duration returns the time at which the last VM in the trace ends.
// The scan runs once and is cached — simulation setup consults the
// horizon repeatedly (event seeding, shock scheduling, sweep headers)
// and at millions of VMs a per-call rescan is a measurable cost.
func (t *AzureTrace) Duration() float64 {
	t.durOnce.Do(func() {
		for _, vm := range t.VMs {
			if vm.End > t.dur {
				t.dur = vm.End
			}
		}
	})
	return t.dur
}

// P95Column returns every record's P95, indexed by trace row: the value
// VMRecord.P95 computes, bit for bit up to the sign of a zero P95, which
// quantises to the same priority level (NaN for an empty series). The
// column is built once — one selection per record through a single
// reused buffer (stats.PercentileSelect: the two order statistics the
// percentile reads, not a full sort) — and cached like Duration, so
// every engine of a sweep over this trace reads the same slice instead
// of copying and sorting a VM's series at each of its arrivals. Callers
// must not modify it.
func (t *AzureTrace) P95Column() []float64 {
	t.p95Once.Do(func() {
		t.p95 = make([]float64, len(t.VMs))
		var buf []float64
		for i, vm := range t.VMs {
			buf = append(buf[:0], vm.CPUUtil...)
			t.p95Sorts++
			t.p95[i] = stats.PercentileSelect(buf, 95)
		}
	})
	return t.p95
}

// ContainerRecord is one container's row in an Alibaba-style trace. All
// series are utilisation percentages of the container's allocation and
// share the 5-minute sampling interval. MemBWUtil is the fraction of the
// machine memory-bus bandwidth consumed (Section 3.2.2 uses it as a proxy
// for true memory activity).
type ContainerRecord struct {
	ID        string
	CPUUtil   []float64
	MemUtil   []float64
	MemBWUtil []float64
	DiskUtil  []float64
	NetUtil   []float64 // normalised in+out traffic
}

// AlibabaTrace is a collection of container records.
type AlibabaTrace struct {
	Containers []*ContainerRecord
}
