package workload

import (
	"math"
	"testing"

	"vmdeflate/internal/sim"
)

func TestConstantSourceTiming(t *testing.T) {
	eng := sim.NewEngine()
	var times []float64
	src := NewConstantSource(eng, 10, func(now float64, seq int) {
		times = append(times, now)
	})
	src.SetLimit(5)
	src.Start()
	drain(eng)
	if len(times) != 5 {
		t.Fatalf("got %d requests, want 5", len(times))
	}
	for i, at := range times {
		want := 0.1 * float64(i+1)
		if math.Abs(at-want) > 1e-9 {
			t.Errorf("request %d at %v, want %v", i, at, want)
		}
	}
	if src.seq != 5 {
		t.Errorf("Sent = %d", src.seq)
	}
}

func TestPoissonSourceRate(t *testing.T) {
	eng := sim.NewEngine()
	count := 0
	src := NewPoissonSource(eng, 100, 42, func(now float64, seq int) { count++ })
	src.Start()
	eng.At(100, func(float64) { src.Stop() })
	eng.RunUntil(100)
	src.Stop()
	// ~100 req/s for 100 s => ~10000 requests; allow 5% tolerance.
	if count < 9500 || count > 10500 {
		t.Errorf("Poisson source generated %d requests, want ~10000", count)
	}
}

func TestPoissonDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []float64 {
		eng := sim.NewEngine()
		var times []float64
		src := NewPoissonSource(eng, 50, seed, func(now float64, _ int) { times = append(times, now) })
		src.SetLimit(100)
		src.Start()
		drain(eng)
		return times
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce arrivals")
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestSourceStop(t *testing.T) {
	eng := sim.NewEngine()
	count := 0
	var src *Source
	src = NewConstantSource(eng, 10, func(now float64, _ int) {
		count++
		if count == 3 {
			src.Stop()
		}
	})
	src.Start()
	drain(eng)
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestZeroRateSource(t *testing.T) {
	eng := sim.NewEngine()
	src := NewConstantSource(eng, 0, func(float64, int) { t.Error("should never fire") })
	src.Start()
	drain(eng)
}

func TestPageMixStatistics(t *testing.T) {
	mix := NewPageMix(1)
	var sum float64
	const n = 200000
	min, max := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		c := mix.Draw()
		sum += c
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	mean := sum / n
	want := mix.MeanCost()
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("empirical mean %v, analytic %v", mean, want)
	}
	if min <= 0 {
		t.Errorf("draws must be positive: min=%v", min)
	}
	// Heavy tail: misses cost much more than hits.
	if max < 10*mean {
		t.Errorf("expected heavy tail: max=%v mean=%v", max, mean)
	}
}

func TestPageMixMeanCost(t *testing.T) {
	mix := NewPageMix(1)
	want := 0.88*0.003 + 0.12*0.056
	if math.Abs(mix.MeanCost()-want) > 1e-12 {
		t.Errorf("MeanCost = %v, want %v", mix.MeanCost(), want)
	}
}

// SetLimit stops the source after n requests (0 = unlimited). The
// figures stop their sources at a horizon instead.
func (s *Source) SetLimit(n int) { s.limit = n }

// drain runs eng's events until its queue is empty.
func drain(eng *sim.Engine) {
	for eng.Step() {
	}
}
