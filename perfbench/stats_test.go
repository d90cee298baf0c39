package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 means refused
	}{
		{99, 0.9, 0},
		{100, 0.9, 90},
		{19, 0.5, 0},
		{20, 0.5, 10},
		{21, 0.5, 11},
		{1000, 0.99, 990},
		{999, 0.99, 0},
	} {
		got, err := percentile(seq(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want refusal", c.q*100, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.q*100, c.n, got, err, c.want)
		}
	}
	if _, err := percentile(seq(100), 1); err == nil {
		t.Error("q = 1 accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) || medianOr(nil, 0) != 0 {
		t.Error("empty median")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}
