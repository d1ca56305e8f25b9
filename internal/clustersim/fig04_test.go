package clustersim

import (
	"math"
	"math/rand"
	"testing"

	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// TestFig04LossIsAreaAboveAllocation pins Figure 4's definition on the
// engine that computes every throughput-loss figure: a VM held at a
// deflated allocation loses the area of its utilisation series above
// that allocation, out of a demand equal to the area under the series.
// One interactive VM with a random series is admitted, deflated to half
// its cores and metered sample by sample; the metering table's lost and
// demand integrals must equal the two areas computed here, at seeds 1-3.
func TestFig04LossIsAreaAboveAllocation(t *testing.T) {
	const cores, samples = 8, 288 // one day of 5-minute samples
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		util := make([]float64, samples)
		for i := range util {
			util[i] = 100 * rng.Float64()
		}
		tr := &trace.AzureTrace{VMs: []*trace.VMRecord{{
			ID: "vm", Class: trace.Interactive, Cores: cores, MemoryMB: 16384,
			Start: 0, End: samples * trace.SampleInterval, CPUUtil: util,
		}}}
		e, err := NewEngine(Config{Trace: tr, BaselineServers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.setupDeflation(); err != nil {
			t.Fatal(err)
		}
		e.handleArrivals([]simEvent{{at: 0, kind: evArrival}})
		if len(e.tbl) != 1 {
			t.Fatalf("seed %d: %d metered rows, want the one VM", seed, len(e.tbl))
		}
		vt := &e.tbl[0]
		alloc, err := vt.domain.SetLimits(vt.domain.MaxSize().Scale(0.5))
		if err != nil {
			t.Fatal(err)
		}
		allocCores := alloc.Get(resources.CPU)
		if allocCores != cores/2 {
			t.Fatalf("seed %d: deflated to %v cores, want %d", seed, allocCores, cores/2)
		}
		var above, under float64
		for i, u := range util {
			e.samplePass(float64(i) * trace.SampleInterval)
			demand := u / 100 * cores
			under += demand * trace.SampleInterval
			above += math.Max(0, demand-allocCores) * trace.SampleInterval
		}
		if !nearlyEqual(vt.demand, under) || !nearlyEqual(vt.lost, above) {
			t.Fatalf("seed %d: metered lost %v of demand %v core-seconds, areas above / under the allocation %v / %v",
				seed, vt.lost, vt.demand, above, under)
		}
		if above <= 0 || above >= under {
			t.Fatalf("seed %d: area above %v, under %v: the fixture deflates nothing or everything", seed, above, under)
		}
		t.Logf("seed %d: loss %.4f of demand at 50%% deflation", seed, vt.lost/vt.demand)
	}
}

// nearlyEqual reports whether a and b agree to 1e-12 relative.
func nearlyEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}
