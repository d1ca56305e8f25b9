package loadbalancer

import (
	"testing"
)

func countPicks(t *testing.T, b Balancer, n int) map[string]int {
	t.Helper()
	got := map[string]int{}
	for i := 0; i < n; i++ {
		be, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		got[be.Name]++
	}
	return got
}

func TestWRRProportions(t *testing.T) {
	bs := []*Backend{
		{Name: "big", Weight: 3},
		{Name: "small", Weight: 1},
	}
	wrr := NewWeightedRoundRobin(bs)
	got := countPicks(t, wrr, 400)
	if got["big"] != 300 || got["small"] != 100 {
		t.Errorf("picks = %v, want 300/100", got)
	}
}

func TestWRRSmoothness(t *testing.T) {
	// Smooth WRR must interleave, not burst: with weights 2,1 the pattern
	// over 3 picks contains no two consecutive "small" picks and at most
	// two consecutive "big" picks.
	bs := []*Backend{{Name: "big", Weight: 2}, {Name: "small", Weight: 1}}
	wrr := NewWeightedRoundRobin(bs)
	var seq []string
	for i := 0; i < 12; i++ {
		b, _ := wrr.Pick()
		seq = append(seq, b.Name)
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] == "small" && seq[i-1] == "small" {
			t.Fatalf("bursty small picks: %v", seq)
		}
	}
}

func TestWRRSkipsZeroWeight(t *testing.T) {
	bs := []*Backend{
		{Name: "dead", Weight: 0},
		{Name: "live", Weight: 1},
	}
	wrr := NewWeightedRoundRobin(bs)
	got := countPicks(t, wrr, 10)
	if got["dead"] != 0 || got["live"] != 10 {
		t.Errorf("picks = %v", got)
	}
	all := NewWeightedRoundRobin([]*Backend{{Name: "x", Weight: 0}})
	if _, err := all.Pick(); err != ErrNoBackends {
		t.Errorf("all-zero weights err = %v", err)
	}
}

func TestDeflationAwareReweighting(t *testing.T) {
	bs := []*Backend{
		{Name: "d1", Weight: 100},
		{Name: "d2", Weight: 100},
		{Name: "full", Weight: 100},
	}
	da := NewDeflationAware(bs)
	if da.Name() != "deflation-aware" {
		t.Errorf("Name = %q", da.Name())
	}
	// Two replicas deflated to 2 cores, one at 10 cores.
	da.ReportCapacity(bs[0], 2)
	da.ReportCapacity(bs[1], 2)
	da.ReportCapacity(bs[2], 10)
	got := countPicks(t, da, 1400)
	// Expected proportions 2:2:10 -> 200:200:1000.
	if got["full"] != 1000 || got["d1"] != 200 || got["d2"] != 200 {
		t.Errorf("picks = %v, want full=1000 d1=200 d2=200", got)
	}
}

// pickSeq records the names of n successive picks.
func pickSeq(t *testing.T, b Balancer, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		be, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, be.Name)
	}
	return out
}

// TestPickOrderIndependentOfSlicePosition pins the strict-total-order
// tie-break: with equal static weights (WRR) or equal reported
// capacities (deflation-aware), the pick sequence must be identical no
// matter how the backend slice is permuted — ties end in name, never
// slice position.
func TestPickOrderIndependentOfSlicePosition(t *testing.T) {
	orders := [][]string{
		{"a", "b", "c"},
		{"c", "a", "b"},
		{"b", "c", "a"},
	}
	build := func(names []string) []*Backend {
		bs := make([]*Backend, len(names))
		for i, n := range names {
			bs[i] = &Backend{Name: n, Weight: 2}
		}
		return bs
	}
	aware := func(names []string) Balancer {
		bs := build(names)
		da := NewDeflationAware(bs)
		for _, b := range bs {
			da.ReportCapacity(b, 1.5)
		}
		return da
	}
	wrrWant := pickSeq(t, NewWeightedRoundRobin(build(orders[0])), 9)
	daWant := pickSeq(t, aware(orders[0]), 9)
	for _, names := range orders[1:] {
		if got := pickSeq(t, NewWeightedRoundRobin(build(names)), 9); !equalSeq(got, wrrWant) {
			t.Errorf("WRR picks depend on slice order %v: got %v, want %v", names, got, wrrWant)
		}
		if got := pickSeq(t, aware(names), 9); !equalSeq(got, daWant) {
			t.Errorf("deflation-aware picks depend on slice order %v: got %v, want %v", names, got, daWant)
		}
	}
}

func equalSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDeflationAwareKeepsStaticWeight is the reinflate round trip: the
// configured Weight must survive deflation untouched, and restoring the
// original capacity must restore the original traffic proportions.
func TestDeflationAwareKeepsStaticWeight(t *testing.T) {
	bs := []*Backend{
		{Name: "big", Weight: 3},
		{Name: "small", Weight: 1},
	}
	da := NewDeflationAware(bs)
	if got := countPicks(t, da, 400); got["big"] != 300 || got["small"] != 100 {
		t.Fatalf("initial picks = %v, want 300/100", got)
	}
	// Deflate big to the same capacity as small: traffic evens out.
	da.ReportCapacity(bs[0], 1)
	if got := countPicks(t, da, 400); got["big"] != 200 || got["small"] != 200 {
		t.Errorf("deflated picks = %v, want 200/200", got)
	}
	if bs[0].Weight != 3 || bs[1].Weight != 1 {
		t.Errorf("static weights clobbered: big=%d small=%d, want 3/1", bs[0].Weight, bs[1].Weight)
	}
	// Reinflate: the original proportion must come back.
	da.ReportCapacity(bs[0], 3)
	if got := countPicks(t, da, 400); got["big"] != 300 || got["small"] != 100 {
		t.Errorf("restored picks = %v, want 300/100", got)
	}
}

func TestDeflationAwareTinyCapacity(t *testing.T) {
	bs := []*Backend{
		{Name: "tiny", Weight: 100},
		{Name: "full", Weight: 100},
	}
	da := NewDeflationAware(bs)
	da.ReportCapacity(bs[0], 0.001) // rounds to 0 but must stay pickable
	da.ReportCapacity(bs[1], 1)
	got := countPicks(t, da, 101)
	if got["tiny"] == 0 {
		t.Error("tiny-capacity backend should still receive some traffic")
	}
	if got["tiny"] >= got["full"] {
		t.Errorf("tiny should get far less: %v", got)
	}
}

func TestDeflationAwareZeroCapacityDrained(t *testing.T) {
	bs := []*Backend{
		{Name: "dead", Weight: 100},
		{Name: "live", Weight: 100},
	}
	da := NewDeflationAware(bs)
	da.ReportCapacity(bs[0], 0)
	got := countPicks(t, da, 10)
	if got["dead"] != 0 {
		t.Errorf("zero-capacity backend should be drained: %v", got)
	}
}
