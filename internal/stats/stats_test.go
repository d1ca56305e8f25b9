package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {150, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("interpolated median = %v, want 5", got)
	}
	if got := Percentile(xs, 95); math.Abs(got-9.5) > 1e-12 {
		t.Errorf("p95 = %v, want 9.5", got)
	}
}

func TestPercentileEdge(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty sample should give NaN")
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample = %v, want 7", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean([]float64{-1.5}); got != -1.5 {
		t.Errorf("Mean of one sample = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("an empty sample should give NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty Min/Max should be NaN")
	}
}

func TestBoxPlot(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b, err := NewBoxPlot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Min != 1 || b.Max != 9 || b.Median != 5 || b.N != 9 {
		t.Errorf("BoxPlot = %+v", b)
	}
	if b.Q1 != 3 || b.Q3 != 7 {
		t.Errorf("quartiles = %v/%v, want 3/7", b.Q1, b.Q3)
	}
	if _, err := NewBoxPlot(nil); err != ErrEmpty {
		t.Errorf("empty BoxPlot error = %v", err)
	}
	if s := b.String(); len(s) == 0 {
		t.Error("String should be non-empty")
	}
}

// TestCDF reads the empirical CDF the feasibility figures plot,
// P(X <= x) = 1 - FractionAbove(xs, x), at and between the samples.
func TestCDF(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := 1 - FractionAbove(xs, tc.x); got != tc.want {
			t.Errorf("P(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := Percentile(xs, 50); got != 2 {
		t.Errorf("median = %v", got)
	}
	if !math.IsNaN(FractionAbove(nil, 1)) {
		t.Error("an empty sample's CDF should be NaN")
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 10) // 10 for t in [0,5)
	tw.Observe(5, 20) // 20 for t in [5,10)
	got := tw.Finish(10)
	if got != 15 {
		t.Errorf("time-weighted mean = %v, want 15", got)
	}
	if tw.Area() != 150 {
		t.Errorf("area = %v, want 150", tw.Area())
	}
	if tw.Duration() != 10 {
		t.Errorf("duration = %v, want 10", tw.Duration())
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var tw TimeWeighted
	if !math.IsNaN(tw.Mean()) {
		t.Error("no observations should give NaN")
	}
}

func TestFractionAbove(t *testing.T) {
	xs := []float64{0.1, 0.5, 0.9, 0.95}
	if got := FractionAbove(xs, 0.5); got != 0.5 {
		t.Errorf("FractionAbove = %v", got)
	}
	if got := FractionAbove(xs, 1); got != 0 {
		t.Errorf("FractionAbove(1) = %v", got)
	}
	if !math.IsNaN(FractionAbove(nil, 0)) {
		t.Error("empty should give NaN")
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := Percentile(xs, pa), Percentile(xs, pb)
		return va <= vb+1e-9 && va >= Min(xs)-1e-9 && vb <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the empirical CDF, 1 - FractionAbove, is monotone
// non-decreasing.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64, x, y float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 || math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		return 1-FractionAbove(xs, x) <= 1-FractionAbove(xs, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BoxPlot ordering min <= q1 <= median <= q3 <= max.
func TestQuickBoxPlotOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		b, err := NewBoxPlot(xs)
		if err != nil {
			return false
		}
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileSortedAgainstSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	sort.Float64s(xs)
	// p50 of a sorted odd-length sample is the middle element.
	if got := PercentileSorted(xs, 50); got != xs[128] {
		t.Errorf("median = %v, want %v", got, xs[128])
	}
}

// TestPercentileSelectMatchesPercentile holds the selection to the
// sort-based oracle bit for bit: random, heavily tied, ascending,
// descending and constant samples of every size below 300, at the
// percentiles that hit both ends, an exact rank and interpolated ones.
// A sample with a NaN must agree too (it takes the sort path).
func TestPercentileSelectMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := map[string]func(n int) []float64{
		"random": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.Float64() * 100
			}
			return xs
		},
		"tied": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(4))
			}
			return xs
		},
		"ascending": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i) / 3
			}
			return xs
		},
		"descending": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n-i) / 3
			}
			return xs
		},
		"constant": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 42.5
			}
			return xs
		},
		"nan": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.Float64()
			}
			if n > 0 {
				xs[rng.Intn(n)] = math.NaN()
			}
			return xs
		},
	}
	for name, gen := range shapes {
		for n := 0; n < 300; n++ {
			xs := gen(n)
			for _, p := range []float64{0, 5, 33.3, 50, 95, 99, 100} {
				want := Percentile(xs, p)
				got := PercentileSelect(append([]float64(nil), xs...), p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d p=%v: PercentileSelect = %v, Percentile = %v", name, n, p, got, want)
				}
			}
		}
	}
}

// TestSelectKthPartitions pins what PercentileSelect's successor scan
// relies on: after selectKth nothing before k is greater than xs[k] and
// nothing after it is smaller, and xs is still the same multiset.
func TestSelectKthPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(1 + rng.Intn(50)))
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		k := rng.Intn(n)
		selectKth(xs, k)
		if xs[k] != sorted[k] {
			t.Fatalf("trial %d: xs[%d] = %v, want %v", trial, k, xs[k], sorted[k])
		}
		for i, x := range xs {
			if (i < k && x > xs[k]) || (i > k && x < xs[k]) {
				t.Fatalf("trial %d: xs[%d] = %v on the wrong side of xs[%d] = %v", trial, i, x, k, xs[k])
			}
		}
		sort.Float64s(xs)
		for i := range xs {
			if xs[i] != sorted[i] {
				t.Fatalf("trial %d: selection changed the multiset", trial)
			}
		}
	}
}

// Duration returns the total observed time span.
func (tw *TimeWeighted) Duration() float64 { return tw.duration }
