package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The list cursor's pull schedule (HRJN*'s rule, anyKOp.bounding), which
// the isl executor runs, driven over in-memory leaves apart from any
// store.

// wantBoundingLeaf restates the pull rule from the operator's per-leaf
// score extremes, independently of threshold(): the first non-exhausted
// leaf that has yielded nothing; otherwise the non-exhausted leaf with
// the largest corner term f(min_i, max_-i), ties and NaN corners to the
// lowest-numbered non-exhausted leaf.
func wantBoundingLeaf(op *anyKOp) int {
	for i := 0; i < op.n; i++ {
		if !op.done[i] && !op.got[i] {
			return i
		}
	}
	want, best := -1, math.Inf(-1)
	for i := 0; i < op.n; i++ {
		if op.done[i] {
			continue
		}
		if want < 0 {
			want = i
		}
		if c := cornerTerm(op, i); c > best {
			want, best = i, c
		}
	}
	return want
}

// cornerTerm is f with leaf i at its lowest seen score and every other
// leaf at its highest.
func cornerTerm(op *anyKOp, i int) float64 {
	v := append([]float64(nil), op.maxS...)
	v[i] = op.minS[i]
	return op.tree.Score.Fn(v)
}

// takeChecked is sliceRun.take with the pull rule asserted before every
// pull: the leaf read is the one wantBoundingLeaf names, it is not
// exhausted, and once every leaf has been seen its corner term is the
// threshold itself.
func takeChecked(t *testing.T, label string, s *sliceRun, k int) []JoinResult {
	t.Helper()
	var out []JoinResult
	for len(out) < k {
		for !s.op.releasable() {
			if s.op.allDone() {
				return out
			}
			want := wantBoundingLeaf(s.op)
			if want < 0 || s.op.done[want] {
				t.Fatalf("%s: reference names leaf %d (done=%v)", label, want, s.op.done)
			}
			seen := true
			for i := range s.op.got {
				seen = seen && s.op.got[i]
			}
			if th := s.op.threshold(); seen && !math.IsInf(th, -1) {
				if c := cornerTerm(s.op, want); c != th && !(math.IsNaN(c) || math.IsNaN(th)) {
					t.Fatalf("%s: leaf %d's corner term %g is not the threshold %g", label, want, c, th)
				}
			}
			if got := s.pull(); got != want {
				t.Fatalf("%s: pull %d read leaf %d, want %d (got=%v done=%v min=%v max=%v)",
					label, s.pulled, got, want, s.op.got, s.op.done, s.op.minS, s.op.maxS)
			}
		}
		out = append(out, s.op.pop())
	}
	return out
}

// skewedPair is a 1:4 pair of lists with scores uniform on both sides,
// so the long list holds four tuples for every one of the short list's
// at any score depth.
func skewedPair(seed int64) (short, long []Tuple) {
	return synthTuples("s", 400, 80, "uniform", seed), synthTuples("l", 1600, 80, "uniform", seed+500)
}

func TestISLPullsBoundingLeaf(t *testing.T) {
	t.Run("skewed-1:4", func(t *testing.T) {
		for seed := int64(0); seed < 8; seed++ {
			short, long := skewedPair(seed)
			for _, f := range []ScoreFunc{Sum, Product} {
				// The short list on either side of the join.
				for _, leaves := range [][][]Tuple{{short, long}, {long, short}} {
					l, r := descending(leaves[0]), descending(leaves[1])
					want := oracleTopK(leaves[0], leaves[1], f, 100)
					for _, k := range []int{1, 10, 100} {
						label := fmt.Sprintf("seed=%d %s k=%d short-first=%v", seed, f.Name, k, len(l) < len(r))
						run := newBoundingRun(stubBinary(f), l, r)
						got := takeChecked(t, label, run, k)
						assertTreeResultsByteMatch(t, label, got, want[:k])
						rr := newSliceRun(stubBinary(f), l, r)
						rr.take(k)
						// (k = 1 can be over after a handful of pulls
						// under either schedule.)
						if k > 1 && run.pulled >= rr.pulled {
							t.Errorf("%s: pulled %d tuples, round-robin %d: want strictly fewer", label, run.pulled, rr.pulled)
						}
					}
				}
			}
		}
	})

	// Hundreds of equal scores on both sides: the corner terms tie for
	// the whole plateau, nothing can be released inside it, and the
	// results it holds come out in row-key order.
	t.Run("plateaus", func(t *testing.T) {
		plateau := func(prefix string, sizes ...int) []Tuple {
			var out []Tuple
			for level, n := range sizes {
				for i := 0; i < n; i++ {
					out = append(out, Tuple{
						RowKey:    fmt.Sprintf("%s%d-%04d", prefix, level, i),
						JoinValue: fmt.Sprintf("j%d", i%10),
						Score:     0.9 - 0.3*float64(level),
					})
				}
			}
			return out
		}
		left, right := plateau("l", 300, 50), plateau("r", 400, 50)
		run := newBoundingRun(stubBinary(Sum), descending(left), descending(right))
		got := takeChecked(t, "one-plateau", run, 50)
		assertTreeResultsByteMatch(t, "one-plateau", got, oracleTopK(left, right, Sum, 50))
		// Nothing is releasable until both lists are read one tuple past
		// their plateau; the schedule reads exactly that and no more.
		if run.pos[0] != 301 || run.pos[1] != 401 {
			t.Errorf("one-plateau: read %v tuples per list, want [301 401]", run.pos)
		}

		left, right = plateau("l", 120, 250, 90), plateau("r", 200, 150, 300)
		for _, f := range []ScoreFunc{Sum, Product} {
			for _, k := range []int{1, 2500, 6000, 20000} {
				label := fmt.Sprintf("three-plateaus %s k=%d", f.Name, k)
				run := newBoundingRun(stubBinary(f), descending(left), descending(right))
				got := takeChecked(t, label, run, k)
				assertTreeResultsByteMatch(t, label, got, oracleTopK(left, right, f, k))
				if run.pos[0] == 0 || run.pos[1] == 0 {
					t.Errorf("%s: a list was never read: %v", label, run.pos)
				}
			}
		}
	})

	t.Run("exhausted-early", func(t *testing.T) {
		short := synthTuples("s", 5, 3, "uniform", 1)
		long := synthTuples("l", 500, 3, "uniform", 2)
		for _, leaves := range [][][]Tuple{{short, long}, {long, short}} {
			run := newBoundingRun(stubBinary(Sum), descending(leaves[0]), descending(leaves[1]))
			got := takeChecked(t, "exhausted-early", run, 400)
			assertTreeResultsByteMatch(t, "exhausted-early", got, oracleTopK(leaves[0], leaves[1], Sum, 400))
			if len(got) != 400 {
				t.Fatalf("exhausted-early: %d results, want 400", len(got))
			}
		}
	})

	t.Run("empty-list", func(t *testing.T) {
		some := descending(synthTuples("x", 50, 5, "uniform", 3))
		for _, leaves := range [][][]Tuple{{nil, some}, {some, nil}, {nil, nil}} {
			run := newBoundingRun(stubBinary(Sum), leaves...)
			if got := takeChecked(t, "empty-list", run, 5); len(got) != 0 {
				t.Fatalf("empty-list: produced %v", got)
			}
		}
		run := newBoundingRun(stubStar(3, Sum), some, nil, some)
		if got := takeChecked(t, "empty-star-leaf", run, 5); len(got) != 0 {
			t.Fatalf("empty-star-leaf: produced %v", got)
		}
	})

	t.Run("stars", func(t *testing.T) {
		for seed := int64(0); seed < 4; seed++ {
			for _, sizes := range [][]int{{40, 160, 80}, {150, 30, 60, 120}} {
				rels := make([][]Tuple, len(sizes))
				sorted := make([][]Tuple, len(sizes))
				for i, n := range sizes {
					rels[i] = synthTuples(string(rune('a'+i)), n, 8, "uniform", seed*10+int64(i))
					sorted[i] = descending(rels[i])
				}
				for _, f := range []ScoreFunc{Sum, Product} {
					want := oracleTopKN(rels, f, 40)
					for _, k := range []int{1, 5, 40} {
						label := fmt.Sprintf("%d-star seed=%d %s k=%d", len(sizes), seed, f.Name, k)
						run := newBoundingRun(stubStar(len(sizes), f), sorted...)
						got := takeChecked(t, label, run, k)
						assertTreeResultsByteMatch(t, label, got, want[:min(k, len(want))])
					}
				}
			}
		}
	})

	// Band chains, the any-k workload's shape: join values uniform over
	// as many integers as a leaf has rows, band edges of width 1.
	t.Run("bandChain", func(t *testing.T) {
		for _, shape := range []struct{ n, rows int }{{3, 60}, {4, 24}} {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				rels := make([][]Tuple, shape.n)
				sorted := make([][]Tuple, shape.n)
				for i := range rels {
					rels[i] = numTuples(fmt.Sprintf("c%d-", i), shape.rows, shape.rows, rng)
					sorted[i] = descending(rels[i])
				}
				for _, f := range []ScoreFunc{Sum, Product} {
					tr := bandChain(shape.n)
					tr.Score = f
					want := bruteForceTreeTopK(tr, rels, 40)
					for _, k := range []int{1, 10, 40} {
						label := fmt.Sprintf("%d-chain seed=%d %s k=%d", shape.n, seed, f.Name, k)
						run := newBoundingRun(tr, sorted...)
						got := takeChecked(t, label, run, k)
						assertTreeResultsByteMatch(t, label, got, want[:min(k, len(want))])
					}
				}
			}
		}
	})

	// Paused and resumed, the schedule continues where it stopped.
	t.Run("resume", func(t *testing.T) {
		short, long := skewedPair(42)
		l, r := descending(short), descending(long)
		whole := newBoundingRun(stubBinary(Sum), l, r)
		want := whole.take(60)
		paged := newBoundingRun(stubBinary(Sum), l, r)
		var got []JoinResult
		for len(got) < 60 {
			got = append(got, takeChecked(t, "resume", paged, 7)...)
		}
		assertTreeResultsByteMatch(t, "resume", got[:60], want)
	})
}

// TestBoundingLeafNaNAndTies pins the two fall-backs of the rule on
// hand-built operator states.
func TestBoundingLeafNaNAndTies(t *testing.T) {
	op := newAnyKOp(stubStar(3, Sum))
	for i := 0; i < 3; i++ {
		if got := op.bounding(); got != i {
			t.Fatalf("unseen leaves: bounding = %d, want %d (leaf order)", got, i)
		}
		op.push(i, Tuple{RowKey: fmt.Sprintf("t%d", i), JoinValue: "x", Score: 0.5})
	}
	// All corner terms equal 1.5: the lowest-numbered leaf wins...
	if got := op.bounding(); got != 0 {
		t.Fatalf("tied corners: bounding = %d, want 0", got)
	}
	// ...among the non-exhausted ones.
	op.exhaust(0)
	if got := op.bounding(); got != 1 {
		t.Fatalf("tied corners, leaf 0 exhausted: bounding = %d, want 1", got)
	}
	// Leaf 2 falls: leaf 1 now holds the larger corner term.
	op.push(2, Tuple{RowKey: "t2b", JoinValue: "x", Score: 0.1})
	if got := op.bounding(); got != 1 {
		t.Fatalf("bounding = %d, want 1", got)
	}
	op.push(1, Tuple{RowKey: "t1b", JoinValue: "x", Score: 0.05})
	if got := op.bounding(); got != 2 {
		t.Fatalf("bounding = %d, want 2", got)
	}

	// A NaN score poisons every corner term: no comparison holds, and
	// the lowest-numbered non-exhausted leaf is read.
	nan := newAnyKOp(stubBinary(Sum))
	nan.push(0, Tuple{RowKey: "a", JoinValue: "x", Score: 1})
	nan.push(1, Tuple{RowKey: "b", JoinValue: "x", Score: 1})
	nan.maxS[0], nan.minS[0], nan.maxS[1], nan.minS[1] = math.NaN(), math.NaN(), math.NaN(), math.NaN()
	nan.bound = -1
	if got := nan.bounding(); got != 0 {
		t.Fatalf("NaN corners: bounding = %d, want 0", got)
	}
	nan.exhaust(0)
	if got := nan.bounding(); got != 1 {
		t.Fatalf("NaN corners, leaf 0 exhausted: bounding = %d, want 1", got)
	}
}
