package main

import (
	"math"
	"sort"
	"time"
)

// rounds is how many timed replays of the op list one run makes. The
// measurement rules (README.md) fix it: wall-clock metrics report the
// median round, counts are totals over all of them.
const rounds = 8

// setups is how many complete set-ups one run makes; setup_s is their
// median and only the last store is kept.
const setups = 3

// percentile returns the p-quantile (0..1) of xs by nearest rank; xs is
// not modified. An empty sample has no quantile and yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the mean of the middle pair for even sample sizes, so a
// two-sample median is the midpoint and not the lower value.
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

// p50ByClass is the read latency figure: the median of each class of
// request (a query on an algorithm), averaged over the classes. A plain
// median over a mix that splits evenly between a fast and a slow class
// sits exactly on the gap between the two and flips sides from run to
// run; each class's own median sits inside its distribution.
func p50ByClass(xs []float64, class []string) float64 {
	byClass := map[string][]float64{}
	for i, x := range xs {
		byClass[class[i]] = append(byClass[class[i]], x)
	}
	if len(byClass) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range byClass {
		sum += percentile(s, 0.5)
	}
	return sum / float64(len(byClass))
}

// perOp divides a total over all rounds by the operations it covers —
// the aggregator for counts, which are never best-of.
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

// iqrShare is (Q3-Q1)/median with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), the
// spread figure the benchmark contract judges repeatability by.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	m := q(2)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
