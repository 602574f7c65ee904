package core

import "math"

// This file implements the rank-join operator — the only HRJN-family
// operator in the package, which isl runs. The operator is ranked
// enumeration over an acyclic join tree with no k fixed up front
// (the ANYK/QUICK family of Tziavelis et al., adapted to the paper's
// inverse-score-list storage); HRJN (Section 4.2.1) is its two-leaf
// equi case and the n-way form the paper states there its all-equi
// case. Each leaf's tuples arrive in descending score order from its
// inverse score list; arriving tuples join against the already-seen
// tuples of neighboring leaves (so every complete result is assembled
// exactly once, when its last tuple arrives), and a priority queue
// releases a result only once its score provably precedes every result
// not yet assembled — the HRJN threshold over the tree's leaves.
//
// In memory the operator keeps each pulled tuple once (per-leaf arrival
// arenas indexed by ordinal, see leafIndex in jointree.go) and one heap
// of complete combinations stored as ordinals; there are no queues of
// partial solutions. A pulled tuple costs an amortised O(1) index add
// (one chain-table update for its equi edges, one per band width) plus,
// per partial combination it extends, a probe of a few hash lookups
// and the tuples in the chains it walks; a completed combination costs
// an O(log r) heap push, and none of it allocates beyond the arenas'
// pages, the chain tables and the heap's amortised growth. The
// threshold costs one aggregate evaluation per pull, not one per leaf:
// each leaf's corner term is cached and evaluated again only once a
// score it reads has changed. A paused cursor retains all of that until
// it is closed; closing hands the arena pages, equi tables and band
// grids to the next cursor (leafIndex.release).
//
// The operator is driven by listCursor (isl.go), which the isl executor
// opens over inverse score lists. It does not choose which list to
// read, but evaluating the threshold tells it which list bounds it
// (bounding), and the cursor reads that one (HRJN*).

// anyKOp is the tree-generalized ranked-enumeration operator. It holds
// each pulled tuple once (treeJoin's per-leaf arenas and ordinal
// indexes) and one heap of the complete combinations not yet released,
// each parked as n ordinals in a flat arena behind a pointer-free heap
// entry; a result is materialised only when it is released.
type anyKOp struct {
	tree   *JoinTree
	n      int
	join   *treeJoin
	orders [][]walkStep // expansion order rooted at each leaf
	ready  []readyEntry // heap of parked combinations, best first under before
	parked []int32      // n ordinals per parked combination, by slot
	maxS   []float64    // first (highest) score seen per leaf
	minS   []float64    // last (lowest) score seen per leaf
	got    []bool       // leaf has yielded at least one tuple
	done   []bool       // leaf's list is exhausted
	scores []float64    // scratch score vector
	// terms caches each leaf's corner term (see threshold), valid where
	// fresh: term i reads minS[i] and every other leaf's maxS, so a new
	// minS[i] stales term i only and a new maxS[i] stales them all.
	terms []float64
	fresh []bool
	// bound is the non-exhausted leaf threshold last found bounding — the
	// one whose corner term is the threshold — or -1: every list is
	// exhausted, or a tuple or exhaustion mark arrived since.
	bound int
}

// readyEntry is one parked combination: its aggregate score and the
// slot of its ordinals in anyKOp.parked.
type readyEntry struct {
	score float64
	slot  int32
}

func newAnyKOp(t *JoinTree) *anyKOp {
	n := len(t.Relations)
	op := &anyKOp{
		tree:   t,
		n:      n,
		orders: make([][]walkStep, n),
		maxS:   make([]float64, n),
		minS:   make([]float64, n),
		got:    make([]bool, n),
		done:   make([]bool, n),
		scores: make([]float64, n),
		terms:  make([]float64, n),
		fresh:  make([]bool, n),
		bound:  -1,
	}
	op.join = newTreeJoin(t, op.park)
	for i := 0; i < n; i++ {
		op.orders[i] = t.walkOrder(i)
		op.maxS[i] = math.Inf(-1)
		op.minS[i] = math.Inf(1)
	}
	return op
}

// push feeds one tuple from leaf i into the operator and assembles
// every new complete result it closes. Rooting the expansion at the
// arriving leaf means a result is formed exactly once — by the last of
// its tuples to arrive.
func (o *anyKOp) push(i int, t Tuple) {
	o.got[i], o.bound = true, -1
	if t.Score > o.maxS[i] {
		o.maxS[i] = t.Score
		clear(o.fresh)
	}
	if t.Score < o.minS[i] {
		o.minS[i] = t.Score
		o.fresh[i] = false
	}
	o.join.combo[i] = o.join.leaves[i].add(t)
	o.join.expand(o.orders[i], 0)
}

// park files the combination treeJoin just completed. Slots are not
// reused after release: one costs 4n bytes, far less than the tuples
// the leaf arenas retain for the operator's whole life anyway.
func (o *anyKOp) park(score float64) {
	o.ready = append(o.ready, readyEntry{score: score, slot: int32(len(o.parked) / o.n)})
	o.parked = append(o.parked, o.join.combo...)
	o.siftUp(len(o.ready) - 1)
}

// siftUp and siftDown restore the heap order around position i.
func (o *anyKOp) siftUp(i int) {
	e := o.ready[i]
	for i > 0 {
		p := (i - 1) / 2
		if !o.before(e, o.ready[p]) {
			break
		}
		o.ready[i] = o.ready[p]
		i = p
	}
	o.ready[i] = e
}

func (o *anyKOp) siftDown(i int) {
	e := o.ready[i]
	for {
		c := 2*i + 1
		if c >= len(o.ready) {
			break
		}
		if c+1 < len(o.ready) && o.before(o.ready[c+1], o.ready[c]) {
			c++
		}
		if !o.before(o.ready[c], e) {
			break
		}
		o.ready[i] = o.ready[c]
		i = c
	}
	o.ready[i] = e
}

// combo returns the ordinals parked in slot.
func (o *anyKOp) combo(slot int32) []int32 {
	return o.parked[int(slot)*o.n:][:o.n]
}

// before is JoinResult.less over parked combinations: score
// descending, then row keys ascending in leaf order.
func (o *anyKOp) before(a, b readyEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	ca, cb := o.combo(a.slot), o.combo(b.slot)
	for i, li := range o.join.leaves {
		if ka, kb := li.tuple(ca[i]).RowKey, li.tuple(cb[i]).RowKey; ka != kb {
			return ka < kb
		}
	}
	return false
}

// exhaust marks leaf i's inverse score list drained.
func (o *anyKOp) exhaust(i int) { o.done[i], o.bound = true, -1 }

func (o *anyKOp) allDone() bool {
	for _, d := range o.done {
		if !d {
			return false
		}
	}
	return true
}

// threshold bounds the score of every result not yet assembled: any
// such result takes its next tuple from some non-exhausted leaf i at
// score <= minS[i] and every other leaf at score <= maxS[j]; monotonic
// aggregation makes f over that vector — leaf i's corner term — an upper
// bound, maximized over the candidate leaves (the HRJN bound, over n
// lists). It also records in bound the leaf whose next tuple can lower
// that maximum, for bounding.
func (o *anyKOp) threshold() float64 {
	// The lowest-numbered non-exhausted leaf, the lowest-numbered one of
	// those that has yielded nothing yet, and whether some list was empty.
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
	o.bound = live
	if unseen >= 0 {
		o.bound = unseen
	}
	switch {
	case live < 0 || empty:
		// Every list is exhausted, or one was empty: no further complete
		// result can exist.
		return math.Inf(-1)
	case unseen >= 0:
		// An unseen leaf could still hold arbitrarily good tuples.
		return math.Inf(1)
	}
	best := math.Inf(-1) // a NaN or -Inf corner term never exceeds it: bound stays live
	for i := live; i < o.n; i++ {
		if o.done[i] {
			continue
		}
		if !o.fresh[i] {
			o.terms[i], o.fresh[i] = o.corner(i), true
		}
		if s := o.terms[i]; s > best {
			best, o.bound = s, i
		}
	}
	return best
}

// corner evaluates leaf i's corner term: the aggregate of minS[i] and
// every other leaf's maxS.
func (o *anyKOp) corner(i int) float64 {
	for j := 0; j < o.n; j++ {
		if j == i {
			o.scores[j] = o.minS[j]
		} else {
			o.scores[j] = o.maxS[j]
		}
	}
	return o.tree.Score.Fn(o.scores)
}

// bounding is HRJN*'s pull rule: the non-exhausted leaf to read next is
// the one whose corner term is the threshold, because no other read can
// lower it. A leaf that has yielded nothing yet comes first (in leaf
// order), ties and corner terms that do not compare (NaN) fall to the
// lowest-numbered non-exhausted leaf. The caller guarantees some leaf is
// not exhausted. The answer is threshold's by-product, so it costs a
// second evaluation only when releasable skipped the first (nothing
// parked).
func (o *anyKOp) bounding() int {
	if o.bound < 0 {
		o.threshold()
	}
	return o.bound
}

// releasable reports whether the best assembled result may be emitted:
// strictly above the threshold (a tied future result could tie-break
// earlier, so ties wait) or anything once every list is exhausted.
func (o *anyKOp) releasable() bool {
	if len(o.ready) == 0 {
		return false
	}
	th := o.threshold()
	return o.ready[0].score > th || math.IsInf(th, -1)
}

// pop removes and materialises the best assembled result; the caller
// has checked releasable.
func (o *anyKOp) pop() JoinResult {
	best := o.ready[0]
	last := len(o.ready) - 1
	o.ready[0] = o.ready[last]
	o.ready = o.ready[:last]
	if last > 0 {
		o.siftDown(0)
	}
	return o.join.result(o.combo(best.slot), best.score)
}
