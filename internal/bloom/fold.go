package bloom

import (
	"fmt"
	"slices"
	"sort"
)

// This file implements the enabling primitive for the paper's stated
// future work ("the adoption of dynamic Bloom filters to further improve
// the time and bandwidth performance of BFHM Rank Join", Section 8):
// filter FOLDING. A single-hash filter of width m can be reduced to any
// divisor width m' by summing counters at congruent positions (bit i
// maps to i mod m'). Folding preserves the no-false-negative property —
// an item's bit at width m' is exactly (its bit at width m) mod m' when
// m' divides m — so two hybrid filters built with different power-of-two
// widths can still be intersected after folding the wider one down.
// With folding, each BFHM bucket can size its filter for its own
// population instead of the global heaviest bucket, cutting blob bytes
// for sparse buckets without breaking bucket joins.

// Fold returns a copy of the filter reduced to width newM, which must
// evenly divide M. Counters at positions congruent mod newM are summed.
func (h *Hybrid) Fold(newM uint64) (*Hybrid, error) {
	if newM == 0 || h.m%newM != 0 {
		return nil, fmt.Errorf("bloom: cannot fold width %d to %d (not a divisor)", h.m, newM)
	}
	out := &Hybrid{m: newM, n: h.n, pos: make([]uint64, len(h.pos)), cnt: slices.Clone(h.cnt)}
	for i, p := range h.pos {
		out.pos[i] = p % newM
	}
	sort.Sort(byPos{out})
	out.coalesce()
	return out, nil
}

// byPos orders a filter's two columns together by bit position.
type byPos struct{ *Hybrid }

func (s byPos) Len() int           { return len(s.pos) }
func (s byPos) Less(i, j int) bool { return s.pos[i] < s.pos[j] }
func (s byPos) Swap(i, j int) {
	s.pos[i], s.pos[j] = s.pos[j], s.pos[i]
	s.cnt[i], s.cnt[j] = s.cnt[j], s.cnt[i]
}

// CommonWidth returns the largest width both filters can be folded to:
// the smaller of the two when it divides the larger, else an error
// (power-of-two widths always fold).
func CommonWidth(a, b *Hybrid) (uint64, error) {
	small, large := a.m, b.m
	if small > large {
		small, large = large, small
	}
	if large%small != 0 {
		return 0, fmt.Errorf("bloom: widths %d and %d share no fold target", a.m, b.m)
	}
	return small, nil
}

// EstimateJoinFolded intersects two hybrid filters of possibly different
// widths by folding the wider one first. The returned estimate is in the
// narrower filter's bit space.
func EstimateJoinFolded(a, b *Hybrid) (*JoinEstimate, error) {
	if a.m == b.m {
		return EstimateJoin(a, b)
	}
	w, err := CommonWidth(a, b)
	if err != nil {
		return nil, err
	}
	fa, fb := a, b
	if a.m != w {
		if fa, err = a.Fold(w); err != nil {
			return nil, err
		}
	}
	if b.m != w {
		if fb, err = b.Fold(w); err != nil {
			return nil, err
		}
	}
	return EstimateJoin(fa, fb)
}

// NextPow2 returns the smallest power of two >= n (and >= 64).
func NextPow2(n uint64) uint64 {
	m := uint64(64)
	for m < n {
		m <<= 1
	}
	return m
}
