package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) on the core data structures and
// operator invariants.

func TestTopKListMatchesSortReference(t *testing.T) {
	f := func(scores []float64, kRaw uint8) bool {
		k := int(kRaw)%20 + 1
		top := NewTopKList(k)
		var clean []float64
		for i, s := range scores {
			if math.IsNaN(s) {
				continue
			}
			clean = append(clean, s)
			top.Add(JoinResult{
				Left:  Tuple{RowKey: tkey("l", i)},
				Right: Tuple{RowKey: tkey("r", i)},
				Score: s,
			})
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(clean)))
		if len(clean) > k {
			clean = clean[:k]
		}
		got := top.Results()
		if len(got) != len(clean) {
			return false
		}
		for i := range clean {
			if got[i].Score != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTopKListKthScoreLowerBoundsContents(t *testing.T) {
	f := func(scores []float64) bool {
		top := NewTopKList(5)
		for i, s := range scores {
			if math.IsNaN(s) {
				continue
			}
			top.Add(JoinResult{Left: Tuple{RowKey: tkey("x", i)}, Score: s})
		}
		kth := top.KthScore()
		for _, r := range top.Results() {
			if r.Score < kth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHRJNThresholdIsUpperBound: at any point during execution, the HRJN
// threshold must upper-bound the score of every join result formed from
// at least one not-yet-seen tuple — the invariant Section 4.2.1's
// termination test rests on.
func TestHRJNThresholdIsUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		left := descending(synthTuples("l", 60, 10, "uniform", seed))
		right := descending(synthTuples("r", 60, 10, "uniform", seed+999))
		op := newAnyKOp(stubBinary(Sum))
		la, lb := 0, 0
		for step := 0; step < 40; step++ {
			if step%2 == 0 && la < len(left) {
				op.push(0, left[la])
				la++
			} else if lb < len(right) {
				op.push(1, right[lb])
				lb++
			}
			if la == 0 || lb == 0 {
				continue
			}
			th := op.threshold()
			// Any future result joins an unseen left tuple (score <=
			// left[la-1].Score) with any right tuple, or vice versa.
			for _, lt := range left[la:] {
				for _, rt := range right[:lb] {
					if lt.JoinValue == rt.JoinValue && Sum.Fn([]float64{lt.Score, rt.Score}) > th+1e-9 {
						return false
					}
				}
			}
			for _, rt := range right[lb:] {
				for _, lt := range left[:la] {
					if lt.JoinValue == rt.JoinValue && Sum.Fn([]float64{lt.Score, rt.Score}) > th+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEmptyRelations: every algorithm must return empty results (not
// errors) for empty inputs.
func TestEmptyRelations(t *testing.T) {
	c := newTestCluster()
	relL := loadRelation(t, c, "L", nil)
	relR := loadRelation(t, c, "R", paperR2)
	q := binaryTree(relL, relR, Sum, 5)

	if res, err := NaiveTopK(c, q); err != nil || len(res.Results) != 0 {
		t.Errorf("naive on empty: %v, %v", res, err)
	}
	if res, err := QueryHive(c, q); err != nil || len(res.Results) != 0 {
		t.Errorf("hive on empty: %v, %v", res, err)
	}
	if res, err := QueryPig(c, q); err != nil || len(res.Results) != 0 {
		t.Errorf("pig on empty: %v, %v", res, err)
	}
	ij, _, err := BuildIJLMR(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := QueryIJLMR(c, q, ij); err != nil || len(res.Results) != 0 {
		t.Errorf("ijlmr on empty: %v, %v", res, err)
	}
	isl, err := buildLists(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := queryISL(c, q, isl, ExecOptions{ISLBatch: 4}); err != nil || len(res.Results) != 0 {
		t.Errorf("isl on empty: %v, %v", res, err)
	}
	bfL, _, err := BuildBFHM(c, relL, BFHMOptions{NumBuckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	bfR, _, err := BuildBFHM(c, relR, BFHMOptions{NumBuckets: 5, MBits: bfL.MBits})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := QueryBFHM(c, q, bfL, bfR, 0); err != nil || len(res.Results) != 0 {
		t.Errorf("bfhm on empty: %v, %v", res, err)
	}
	drL, _, err := BuildDRJN(c, relL, DRJNOptions{NumBuckets: 5, JoinParts: 8})
	if err != nil {
		t.Fatal(err)
	}
	drR, _, err := BuildDRJN(c, relR, DRJNOptions{NumBuckets: 5, JoinParts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := RunCursor(c, q.K, func() (Cursor, error) { return OpenDRJN(c, q, drL, drR) }); err != nil || len(res.Results) != 0 {
		t.Errorf("drjn on empty: %v, %v", res, err)
	}
}

// TestSingleTupleRelations: one row per side.
func TestSingleTupleRelations(t *testing.T) {
	c := newTestCluster()
	left := []Tuple{{RowKey: "l1", JoinValue: "x", Score: 0.5}}
	right := []Tuple{{RowKey: "r1", JoinValue: "x", Score: 0.7}}
	relL := loadRelation(t, c, "L", left)
	relR := loadRelation(t, c, "R", right)
	q := binaryTree(relL, relR, Product, 3)
	runAll(t, c, q, left, right, false)
}
