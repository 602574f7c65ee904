// Package histogram provides the equi-width score histograms underlying
// the BFHM index (Section 5.1) and the band rows of the DRJN comparator's
// 2-D join-value x score matrix (Section 7.1, after Doulkeridis et al.).
//
// Bucket numbering follows the paper: scores lie in [lo, hi] and bucket 0
// covers the TOP of the range. For scores in [0,1] with 10 buckets, bucket
// 0 is [0.9, 1.0], bucket 1 is [0.8, 0.9), ..., bucket 9 is [0.0, 0.1).
// (The paper's prose writes the ranges as (0.9, 1.0] but its worked
// figures — Fig. 5 and Fig. 6, where 0.70 lands in the 0.7–0.8 bucket and
// 0.50 in the 0.5–0.6 bucket — use bottom-inclusive ranges; we follow the
// figures so the running example reproduces exactly.)
// Scanning bucket keys in increasing order is a descending-score scan,
// matching the NoSQL store's ascending-key-only scanners.
package histogram

import (
	"fmt"
	"math"
)

// Layout captures an equi-width bucketing of a closed score range.
type Layout struct {
	Lo, Hi  float64 // score domain [Lo, Hi]
	Buckets int     // number of equi-width buckets
}

// NewLayout validates and returns a Layout.
func NewLayout(lo, hi float64, buckets int) (Layout, error) {
	if buckets < 1 {
		return Layout{}, fmt.Errorf("histogram: bucket count %d < 1", buckets)
	}
	if !(lo < hi) {
		return Layout{}, fmt.Errorf("histogram: empty score domain [%g, %g]", lo, hi)
	}
	return Layout{Lo: lo, Hi: hi, Buckets: buckets}, nil
}

// Width returns the spread of one bucket.
func (l Layout) Width() float64 {
	return (l.Hi - l.Lo) / float64(l.Buckets)
}

// BucketOf maps a score to its bucket number (0 = highest scores).
// Scores outside the domain are clamped to the extreme buckets. A score
// within 1e-9 bucket-widths of a boundary is treated as sitting exactly on
// it and assigned to the higher-score bucket (bottom-inclusive ranges).
func (l Layout) BucketOf(score float64) int {
	if score >= l.Hi {
		return 0
	}
	if score <= l.Lo {
		return l.Buckets - 1
	}
	d := (score - l.Lo) * float64(l.Buckets) / (l.Hi - l.Lo)
	idx := int(math.Floor(d + 1e-9))
	b := l.Buckets - 1 - idx
	if b < 0 {
		b = 0
	}
	if b >= l.Buckets {
		b = l.Buckets - 1
	}
	return b
}

// Range returns the score interval [lo, hi) covered by bucket b (bucket 0
// is closed at the top: [lo, Hi]). Adjacent buckets share boundary values
// exactly (lo of bucket b equals hi of bucket b+1) so the buckets tile the
// domain with no floating-point gaps.
func (l Layout) Range(b int) (lo, hi float64) {
	w := l.Width()
	hi = l.Hi - float64(b)*w
	lo = l.Hi - float64(b+1)*w
	if b == 0 {
		hi = l.Hi
	}
	if b == l.Buckets-1 {
		lo = l.Lo
	}
	return lo, hi
}

// MaxScore returns the largest score representable in bucket b.
func (l Layout) MaxScore(b int) float64 {
	_, hi := l.Range(b)
	return hi
}

// MinScore returns the smallest score representable in bucket b.
func (l Layout) MinScore(b int) float64 {
	lo, _ := l.Range(b)
	return lo
}

// Bucket is one row of a simple counting histogram: the tuple count plus
// the actual min and max scores observed in the bucket (the BFHM stores
// observed extremes, not bucket boundaries, for tighter bounds).
type Bucket struct {
	Count    uint64
	MinSeen  float64
	MaxSeen  float64
	nonEmpty bool
}

// Add records a score in the bucket.
func (b *Bucket) Add(score float64) {
	if !b.nonEmpty {
		b.MinSeen, b.MaxSeen = score, score
		b.nonEmpty = true
	} else {
		if score < b.MinSeen {
			b.MinSeen = score
		}
		if score > b.MaxSeen {
			b.MaxSeen = score
		}
	}
	b.Count++
}

// Empty reports whether the bucket holds no tuples.
func (b *Bucket) Empty() bool { return !b.nonEmpty }

// Histogram is an equi-width counting histogram over scores.
type Histogram struct {
	Layout  Layout
	buckets []Bucket
}

// New returns an empty histogram with the given layout.
func New(l Layout) *Histogram {
	return &Histogram{Layout: l, buckets: make([]Bucket, l.Buckets)}
}

// Add records a score.
func (h *Histogram) Add(score float64) int {
	b := h.Layout.BucketOf(score)
	h.buckets[b].Add(score)
	return b
}

// Bucket returns bucket b (read-only view).
func (h *Histogram) Bucket(b int) Bucket { return h.buckets[b] }

// Total returns the number of recorded scores.
func (h *Histogram) Total() uint64 {
	var t uint64
	for i := range h.buckets {
		t += h.buckets[i].Count
	}
	return t
}
