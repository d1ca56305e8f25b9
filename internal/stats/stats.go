// Package stats provides the small statistical toolkit used by the
// feasibility analysis (Section 3) and the experimental harness (Section 7):
// percentiles, five-number box-plot summaries, time-weighted means, and
// the fraction of samples above a threshold (the empirical survival
// function the feasibility figures plot).
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

// PercentileSelect returns Percentile(xs, p) without the copy and
// without the full sort: the interpolation reads two adjacent order
// statistics, so it selects the lower one in place (quickselect) and
// takes the minimum of what the partition left above it for the upper.
// xs is reordered. The result has Percentile's bits, except that a zero
// result may carry the other sign: neither algorithm orders -0 and +0
// (FuzzPercentileSelect). A sample holding a NaN is sorted instead:
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
