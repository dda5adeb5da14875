package bench

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer the value is set by a handful of outliers and
// does not repeat run to run (the prototype's p99 swung 2× on 400 ops).
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for an empty slice.  xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether the percentile rule allows reporting it: at least minBeyond
// samples must lie beyond it.  xs is not modified.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// tailOrMedian is the op_p90_s rule: the 90th percentile when it has at
// least minBeyond samples beyond it (≥ 100 ops), otherwise the median —
// nothing above the median is reportable on a handful of samples, and
// the metric must be present (and non-zero) on every workload.
func tailOrMedian(xs []float64) (v float64, isTail bool) {
	if p, ok := percentile(xs, 0.90); ok {
		return p, true
	}
	return median(xs), false
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work on this
// workload reports 0, not NaN — the result line must stay valid JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
