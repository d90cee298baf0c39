package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples a reported percentile must have above
// it: a tail percentile read off fewer samples is one or two outliers,
// not a distribution.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses a quantile with fewer than minBeyond samples above its rank,
// so p90 needs at least 100 samples and p50 at least 20.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile: q %v outside (0,1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 || n-1-rank < minBeyond {
		return 0, fmt.Errorf("percentile: p%g of %d samples has %d beyond it, want >= %d", q*100, n, max(n-1-rank, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count). Repetition counts are small, so the median is
// taken without the percentile guard; it is NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianOr is median with a fallback for no samples, for per-layer
// metrics of a layer the workload never ran.
func medianOr(xs []float64, none float64) float64 {
	if len(xs) == 0 {
		return none
	}
	return median(xs)
}
