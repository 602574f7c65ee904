package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// Tests of the list cursor's per-tuple shortcuts: the integer path of
// bandValue, the cached corner terms of anyKOp.threshold, and the leaf
// buffers a closed cursor hands to the next one.

// FuzzBandValue holds bandValue to its reference rule on every string:
// strconv.ParseFloat's value, or NaN where it fails or gives an
// infinity. The digit-only fast path must not move a single bit.
func FuzzBandValue(f *testing.F) {
	for _, s := range []string{
		"", "0", "7", "007", "-0", "+1", "-12", "1.5", "1e3", "0x10", "1_000",
		"999999999999999", "1000000000000000", "9007199254740993", "NaN", "inf",
		"١٢", "12a", " 12", "12 ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsInf(want, 0) {
			want = math.NaN()
		}
		got := bandValue(s)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("bandValue(%q) = %v (%x), want %v (%x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// uncachedThreshold is anyKOp.threshold without the corner-term cache:
// every call evaluates every candidate leaf's corner term afresh. It
// returns the threshold and the leaf it finds bounding.
func uncachedThreshold(o *anyKOp) (float64, int) {
	live, unseen, empty := -1, -1, false
	for i := o.n - 1; i >= 0; i-- {
		switch {
		case o.done[i]:
			empty = empty || !o.got[i]
		case o.got[i]:
			live = i
		default:
			live, unseen = i, i
		}
	}
	bound := live
	if unseen >= 0 {
		bound = unseen
	}
	switch {
	case live < 0 || empty:
		return math.Inf(-1), bound
	case unseen >= 0:
		return math.Inf(1), bound
	}
	best := math.Inf(-1)
	scores := make([]float64, o.n)
	for i := live; i < o.n; i++ {
		if o.done[i] {
			continue
		}
		for j := range scores {
			scores[j] = o.maxS[j]
		}
		scores[i] = o.minS[i]
		if s := o.tree.Score.Fn(scores); s > best {
			best, bound = s, i
		}
	}
	return best, bound
}

// TestThresholdMatchesUncachedCorners: with the corner terms cached,
// every threshold the operator computes — and the leaf it reads next —
// is bit for bit what evaluating every corner term afresh gives, on
// chains and stars with tied, NaN and infinite scores, under both
// aggregates, through exhaustion of every list.
func TestThresholdMatchesUncachedCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 60; trial++ {
		n := 2 + trial%4
		tree := bandChain(n)
		if trial%3 == 1 {
			tree = &JoinTree{Score: Product, K: 10, Edges: starEdges(n)}
			for i := 0; i < n; i++ {
				tree.Relations = append(tree.Relations, stubRel(fmt.Sprintf("s%d", i)))
			}
		}
		leaves := make([][]Tuple, n)
		for i := range leaves {
			rows := rng.Intn(40)
			for j := 0; j < rows; j++ {
				score := float64(rng.Intn(6)) / 5
				switch rng.Intn(40) {
				case 0:
					score = math.NaN()
				case 1:
					score = math.Inf(1)
				case 2:
					score = math.Inf(-1)
				}
				leaves[i] = append(leaves[i], Tuple{
					RowKey:    fmt.Sprintf("t%d-%03d", i, j),
					JoinValue: strconv.Itoa(rng.Intn(8)),
					Score:     score,
				})
			}
			leaves[i] = descending(leaves[i])
		}
		run := newBoundingRun(tree, leaves...)
		for step := 0; !run.op.allDone(); step++ {
			wantTh, wantBound := uncachedThreshold(run.op)
			gotTh := run.op.threshold()
			if math.Float64bits(gotTh) != math.Float64bits(wantTh) || run.op.bound != wantBound {
				t.Fatalf("trial %d step %d: threshold %v bounding leaf %d, uncached %v leaf %d",
					trial, step, gotTh, run.op.bound, wantTh, wantBound)
			}
			run.pull()
			for run.op.releasable() {
				run.op.pop()
			}
		}
	}
}

// TestReleasedLeafBuffersHoldNoTuples: Close hands every leaf's arena
// pages, equi table and band grids to the pools, and a released page
// keeps no tuple — no string of a closed query stays reachable from a
// pool — while a released chain table is emptied: no cell, no link.
// The leaves are deep enough to fill several pages and grow each
// table.
func TestReleasedLeafBuffersHoldNoTuples(t *testing.T) {
	tree := &JoinTree{Score: Sum, K: 10,
		Relations: []Relation{stubRel("a"), stubRel("b"), stubRel("c")},
		Edges:     []TreeEdge{{A: 0, B: 1, Kind: PredBand, Band: 1}, {A: 1, B: 2, Kind: PredEqui}},
	}
	op := newAnyKOp(tree)
	leaves := chainLeaves(3, 3*tuplePage/2)
	for i, tuples := range leaves {
		for _, tp := range tuples {
			op.push(i, tp)
		}
	}
	var pages []*leafPage
	for i, li := range op.join.leaves {
		if len(li.pages) != 2 {
			t.Fatalf("leaf %d fills %d pages, want 2", i, len(li.pages))
		}
		pages = append(pages, li.pages...)
	}
	var tables []*chainTable
	for _, li := range op.join.leaves[:2] {
		if len(li.grids) != 1 || li.grids[0].used <= minGridSlots {
			t.Fatalf("leaf has %d band grids: want one holding more than %d cells", len(li.grids), minGridSlots)
		}
		tables = append(tables, &li.grids[0].chainTable)
	}
	for _, li := range op.join.leaves[1:] {
		if li.equi == nil || li.equi.used <= minGridSlots {
			t.Fatalf("equi leaf holds no equi table with more than %d cells", minGridSlots)
		}
		tables = append(tables, li.equi)
	}
	leavesBefore := op.join.leaves
	lc := &listCursor{op: op}
	if err := lc.Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pages {
		for j := range p.tuples {
			if p.tuples[j] != (Tuple{}) {
				t.Fatalf("released page %d slot %d still holds %+v", i, j, p.tuples[j])
			}
		}
	}
	for i, tb := range tables {
		if tb.used != 0 || len(tb.prev) != 0 || slices.ContainsFunc(tb.slots, func(s gridSlot) bool { return s != gridSlot{} }) {
			t.Fatalf("released table %d keeps %d cells and %d links", i, tb.used, len(tb.prev))
		}
	}
	for i, li := range leavesBefore {
		if li.pages != nil || li.equi != nil || li.grids != nil || li.n != 0 {
			t.Fatalf("leaf %d still references its buffers after Close: %d pages, equi %v, %d grids, n=%d",
				i, len(li.pages), li.equi != nil, len(li.grids), li.n)
		}
	}
}
