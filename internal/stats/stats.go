// Package stats provides the small statistical toolkit used by the
// feasibility analysis (Section 3) and the experimental harness (Section 7):
// percentiles, five-number box-plot summaries, CDFs, histograms, and
// streaming moments.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries of empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample returns NaN.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return PercentileSorted(s, p)
}

// PercentileSorted is Percentile for an already ascending-sorted sample.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PercentileSelect returns Percentile(xs, p), bit for bit, without the
// copy and without the full sort: the interpolation reads two adjacent
// order statistics, so it selects the lower one in place (quickselect)
// and takes the minimum of what the partition left above it for the
// upper. xs is reordered. A sample holding a NaN is sorted instead:
// selection's comparisons do not reproduce where sort.Float64s puts one.
func PercentileSelect(xs []float64, p float64) float64 {
	n := len(xs)
	for _, x := range xs {
		if x != x {
			sort.Float64s(xs)
			return PercentileSorted(xs, p)
		}
	}
	if n == 0 {
		return math.NaN()
	}
	// The rank arithmetic below is PercentileSorted's, operation for
	// operation.
	rank := 0.0
	switch {
	case n == 1 || p <= 0:
	case p >= 100:
		rank = float64(n - 1)
	default:
		rank = p / 100 * float64(n-1)
	}
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	selectKth(xs, lo)
	if lo == hi {
		return xs[lo]
	}
	// Everything past lo is >= xs[lo]; the next order statistic is the
	// least of it.
	next := xs[hi]
	for _, x := range xs[hi+1:] {
		if x < next {
			next = x
		}
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + next*frac
}

// selectKth reorders xs so that xs[k] is its k-th smallest element, no
// element before k is greater and none after it is smaller: Hoare's
// quickselect with a median-of-three pivot, finishing ranges of a dozen
// elements by insertion sort. xs must hold no NaN.
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for hi-lo >= 12 {
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		// xs[lo] <= pivot <= xs[hi] bounds both scans.
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] <= pivot <= xs[i..hi], and anything between j and i
		// equals the pivot and is in its final place.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator), or NaN
// for samples of fewer than two points.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Min returns the minimum, or NaN for an empty sample.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or NaN for an empty sample.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// BoxPlot is the five-number summary (plus mean) that backs every box plot
// in the paper's feasibility figures (Figures 5-12).
type BoxPlot struct {
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
	N      int
}

// NewBoxPlot summarises xs. It returns ErrEmpty for an empty sample.
func NewBoxPlot(xs []float64) (BoxPlot, error) {
	if len(xs) == 0 {
		return BoxPlot{}, ErrEmpty
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return BoxPlot{
		Min:    s[0],
		Q1:     PercentileSorted(s, 25),
		Median: PercentileSorted(s, 50),
		Q3:     PercentileSorted(s, 75),
		Max:    s[len(s)-1],
		Mean:   Mean(s),
		N:      len(s),
	}, nil
}

// String renders the summary as a single table row.
func (b BoxPlot) String() string {
	return fmt.Sprintf("n=%d min=%.4f q1=%.4f med=%.4f q3=%.4f max=%.4f mean=%.4f",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs (copied, then sorted).
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// P returns the empirical P(X <= x).
func (c *CDF) P(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, x)
	// Move past duplicates equal to x.
	for i < len(c.sorted) && c.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (q in [0,1]).
func (c *CDF) Quantile(q float64) float64 {
	return PercentileSorted(c.sorted, q*100)
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// Histogram counts samples into uniform-width bins over [lo, hi).
type Histogram struct {
	Lo, Hi  float64
	Counts  []int
	N       int
	OutLow  int // samples below Lo
	OutHigh int // samples at or above Hi
}

// NewHistogram creates a histogram with nbins uniform bins spanning [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 {
		nbins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.N++
	if x < h.Lo {
		h.OutLow++
		return
	}
	if x >= h.Hi {
		h.OutHigh++
		return
	}
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// Fraction returns the fraction of all samples in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.N)
}

// BinCenter returns the centre value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Welford implements numerically stable streaming mean/variance.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (NaN if empty).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Var returns the running sample variance (NaN if n < 2).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (NaN if empty).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation (NaN if empty).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// TimeWeighted accumulates a time-weighted average of a piecewise-constant
// signal, e.g. a VM's allocation over time. Call Observe(t, v) at every
// change point in non-decreasing time order; the value v is held until the
// next observation.
type TimeWeighted struct {
	started  bool
	lastT    float64
	lastV    float64
	area     float64
	duration float64
}

// Observe records that the signal has value v from time t onward.
func (tw *TimeWeighted) Observe(t, v float64) {
	if tw.started && t > tw.lastT {
		dt := t - tw.lastT
		tw.area += tw.lastV * dt
		tw.duration += dt
	}
	tw.started = true
	tw.lastT = t
	tw.lastV = v
}

// Finish closes the signal at time t and returns the time-weighted mean.
func (tw *TimeWeighted) Finish(t float64) float64 {
	tw.Observe(t, tw.lastV)
	return tw.Mean()
}

// Mean returns the time-weighted mean so far (NaN if no interval elapsed).
func (tw *TimeWeighted) Mean() float64 {
	if tw.duration == 0 {
		return math.NaN()
	}
	return tw.area / tw.duration
}

// Last returns the value held since the last observation (0 before the
// first).
func (tw *TimeWeighted) Last() float64 { return tw.lastV }

// Area returns the accumulated integral so far.
func (tw *TimeWeighted) Area() float64 { return tw.area }

// Duration returns the total observed time span.
func (tw *TimeWeighted) Duration() float64 { return tw.duration }

// FractionAbove returns the fraction of samples xs strictly greater than
// threshold. It backs the paper's core feasibility metric: "fraction of
// time the usage is higher than the deflated allocation".
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var n int
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// AreaAbove returns the mean excess of xs over threshold (zero where
// xs <= threshold). Per Section 3.2 / Figure 4 this "total
// under-allocation" is proportional to the throughput loss.
func AreaAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var a float64
	for _, x := range xs {
		if x > threshold {
			a += x - threshold
		}
	}
	return a / float64(len(xs))
}
