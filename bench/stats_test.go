package bench

import "testing"

func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort a copy
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{100, 0.90, 90, true},   // exactly 10 samples beyond the 90th
		{99, 0.90, 90, false},   // 9 beyond: not reportable
		{400, 0.90, 360, true},  // serve_warm_tcp's size
		{400, 0.99, 396, false}, // 4 beyond: the p99 that swung 2x
		{1000, 0.99, 990, true},
		{7, 0.90, 7, false},
	} {
		xs := ramp(c.n)
		got, ok := percentile(xs, c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
		if xs[0] != float64(c.n) {
			t.Fatalf("percentile reordered its input")
		}
	}
	if _, ok := percentile(nil, 0.9); ok {
		t.Error("percentile of no samples reported as valid")
	}
}

func TestTailOrMedian(t *testing.T) {
	few := []float64{5, 1, 4, 2, 3}
	if v, tail := tailOrMedian(few); v != 3 || tail {
		t.Errorf("tailOrMedian(5 samples) = %v, %v; want the median 3", v, tail)
	}
	many := make([]float64, 200)
	for i := range many {
		many[i] = float64(i + 1)
	}
	if v, tail := tailOrMedian(many); v != 180 || !tail {
		t.Errorf("tailOrMedian(200 samples) = %v, %v; want the 90th percentile 180", v, tail)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}
