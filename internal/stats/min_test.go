package stats

import "math"

// Min is the lower bound the percentile properties check against; the
// shipped code reads minima through BoxPlot.

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
