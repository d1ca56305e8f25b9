package stats

import (
	"math"
	"testing"
)

// fuzzSample decodes one byte per element into a palette that makes
// ties, signed zeros and non-finite values common: 255 is NaN, 254 +Inf,
// 253 -Inf, b%5 == 0 is +0, b%5 == 1 is -0, and anything else is
// (b-128)/8, one of a few dozen values in [-16, 16).
func fuzzSample(data []byte) []float64 {
	xs := make([]float64, len(data))
	for i, b := range data {
		switch {
		case b == 255:
			xs[i] = math.NaN()
		case b == 254:
			xs[i] = math.Inf(1)
		case b == 253:
			xs[i] = math.Inf(-1)
		case b%5 == 0:
			xs[i] = 0
		case b%5 == 1:
			xs[i] = math.Copysign(0, -1)
		default:
			xs[i] = float64(int(b)-128) / 8
		}
	}
	return xs
}

// FuzzPercentileSelect holds the in-place selection to the sort-based
// Percentile on arbitrary samples and p in [0, 100]: the same bits,
// except that when both results are zero their signs may differ. Neither
// sort.Float64s nor the selection orders -0 and +0: over 200,000 random
// slices of 1-30 signed zeros at integer p, the two picked zeros of
// different signs on 43,825 (testdata/fuzz/FuzzPercentileSelect/
// signed-zeros is the shortest). ±0 quantises to the same priority
// level, so no Result moves.
//
//	go test -run '^$' -fuzz FuzzPercentileSelect -fuzztime 15s -fuzzminimizetime 200x ./internal/stats
func FuzzPercentileSelect(f *testing.F) {
	f.Add([]byte{}, 50.0)
	f.Add([]byte{130}, 99.0)
	f.Add([]byte{140, 132, 150, 131, 170, 255, 160}, 95.0)
	f.Add([]byte{254, 253, 130, 140}, 50.0)
	f.Add([]byte{0, 1, 5, 6, 10, 11, 15, 16, 20, 21, 25, 26, 30}, 0.0)
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return
		}
		// Fold p into [0, 100], keeping the sign of a zero.
		if p = math.Mod(p, 101); p < 0 {
			p = -p
		}
		p = math.Min(p, 100)
		xs := fuzzSample(data)
		want := Percentile(xs, p)
		got := PercentileSelect(append([]float64(nil), xs...), p)
		if got == 0 && want == 0 {
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("p=%v xs=%v: PercentileSelect = %v (%#x), Percentile = %v (%#x)",
				p, xs, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
