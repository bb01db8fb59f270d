package main

import "testing"

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	// p99 of 1000 samples is the 990th smallest, with exactly ten above.
	if got, ok := percentile(seq(1000), 0.99); !ok || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", got, ok)
	}
	// One sample fewer leaves only nine above the nearest rank.
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported; it has only nine beyond it")
	}
	if got, ok := percentile(seq(100), 0.9); !ok || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", got, ok)
	}
	if got, ok := percentile(seq(21), 0.5); !ok || got != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11, true", got, ok)
	}
	for _, q := range []float64{0, 1, -0.5} {
		if _, ok := percentile(seq(5000), q); ok {
			t.Errorf("percentile(q=%v) reported", q)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestFailureRatio(t *testing.T) {
	for _, tc := range []struct {
		attempted, failed int
		want              float64
	}{
		{0, 0, 0},
		{10, 0, 0},
		{10, 1, 0.1},
		{4, 4, 1},
	} {
		if got := failureRatio(tc.attempted, tc.failed); got != tc.want {
			t.Errorf("failureRatio(%d, %d) = %v, want %v", tc.attempted, tc.failed, got, tc.want)
		}
	}
}
