package core

// HRJN (Section 4.2.1) is the two-leaf equi case of the rank-join
// operator; these tests drive it over in-memory leaves, apart from any
// store.

import (
	"math"
	"sort"
	"testing"
)

// descending sorts tuples by score descending (HRJN input contract).
func descending(ts []Tuple) []Tuple {
	out := append([]Tuple(nil), ts...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].RowKey < out[j].RowKey
	})
	return out
}

func TestHRJNPaperExample(t *testing.T) {
	// Running example (Fig. 1), f = sum, k = 3. Exact answer:
	// 1.74 (r1_7 b + r2_11), 1.73 (r1_7 b + r2_2), 1.62 (r1_8 b + r2_11).
	got := newSliceRun(stubBinary(Sum), descending(paperR1), descending(paperR2)).take(3)
	want := oracleTopK(paperR1, paperR2, Sum, 3)
	assertTreeResultsByteMatch(t, "hrjn-paper", got, want)
	verifyResultsAreRealJoins(t, "hrjn-paper", got, Sum)
	if got[0].Score != 1.74 || got[1].Score != 1.73 {
		t.Fatalf("top scores = %v, want [1.74 1.73 1.62]", scoresOf(got))
	}
	if got[0].Left.RowKey != "r1_7" || got[0].Right.RowKey != "r2_11" {
		t.Fatalf("top pair = %s+%s", got[0].Left.RowKey, got[0].Right.RowKey)
	}
}

func TestHRJNMatchesOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		left := synthTuples("l", 150, 25, "uniform", seed)
		right := synthTuples("r", 150, 25, "uniform", seed+1000)
		for _, k := range []int{1, 5, 30} {
			for _, f := range []ScoreFunc{Sum, Product} {
				got := newSliceRun(stubBinary(f), descending(left), descending(right)).take(k)
				// Quantised scores tie often: the released order must
				// be the oracle's down to the row keys.
				assertTreeResultsByteMatch(t, "hrjn-random", got, oracleTopK(left, right, f, k))
				verifyResultsAreRealJoins(t, "hrjn-random", got, f)
			}
		}
	}
}

func TestHRJNEarlyTermination(t *testing.T) {
	// With a huge score gap after the top tuples, HRJN must stop long
	// before exhausting the inputs.
	var left, right []Tuple
	left = append(left, Tuple{RowKey: "L0", JoinValue: "hot", Score: 1.0})
	right = append(right, Tuple{RowKey: "R0", JoinValue: "hot", Score: 1.0})
	for i := 0; i < 1000; i++ {
		left = append(left, Tuple{RowKey: tkey("L", i), JoinValue: "cold", Score: 0.01})
		right = append(right, Tuple{RowKey: tkey("R", i), JoinValue: "cold", Score: 0.01})
	}
	run := newSliceRun(stubBinary(Sum), descending(left), descending(right))
	rs := run.take(1)
	if run.pulled > 10 {
		t.Errorf("HRJN pulled %d tuples; expected early termination after a handful", run.pulled)
	}
	if len(rs) != 1 || rs[0].Score != 2.0 {
		t.Fatalf("results = %v", rs)
	}
}

func tkey(p string, i int) string {
	return p + string(rune('a'+i/26/26%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i%26))
}

func TestHRJNEmptyInputs(t *testing.T) {
	if got := newSliceRun(stubBinary(Sum), nil, nil).take(5); len(got) != 0 {
		t.Fatalf("empty inputs produced %v", got)
	}
	// One-sided emptiness.
	one := []Tuple{{RowKey: "a", JoinValue: "x", Score: 1}}
	if got := newSliceRun(stubBinary(Sum), one, nil).take(5); len(got) != 0 {
		t.Fatalf("one-sided input produced %v", got)
	}
}

func TestHRJNFewerThanKResults(t *testing.T) {
	left := []Tuple{{RowKey: "a", JoinValue: "x", Score: 0.9}}
	right := []Tuple{{RowKey: "b", JoinValue: "x", Score: 0.8}}
	if got := newSliceRun(stubBinary(Sum), left, right).take(10); len(got) != 1 {
		t.Fatalf("got %d results, want 1", len(got))
	}
}

func TestHRJNThresholdMath(t *testing.T) {
	op := newAnyKOp(stubBinary(Sum))
	if th := op.threshold(); !math.IsInf(th, 1) {
		t.Fatalf("initial threshold = %g, want +Inf", th)
	}
	near := func(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }
	op.push(0, Tuple{RowKey: "a1", JoinValue: "x", Score: 0.9})
	op.push(1, Tuple{RowKey: "b1", JoinValue: "y", Score: 0.8})
	// threshold = max(f(minA, maxB), f(maxA, minB)) = max(1.7, 1.7).
	if th := op.threshold(); !near(th, 1.7) {
		t.Fatalf("threshold = %g, want 1.7", th)
	}
	op.push(0, Tuple{RowKey: "a2", JoinValue: "x", Score: 0.5})
	// max(f(0.5, 0.8), f(0.9, 0.8)) = max(1.3, 1.7) = 1.7.
	if th := op.threshold(); !near(th, 1.7) {
		t.Fatalf("threshold = %g, want 1.7", th)
	}
	op.push(1, Tuple{RowKey: "b2", JoinValue: "y", Score: 0.2})
	// max(f(0.5, 0.8), f(0.9, 0.2)) = max(1.3, 1.1) = 1.3.
	if th := op.threshold(); !near(th, 1.3) {
		t.Fatalf("threshold = %g, want 1.3", th)
	}
	// A drained list stops bounding future results: only B can still
	// produce tuples, so the bound is f(maxA, minB).
	op.exhaust(0)
	if th := op.threshold(); !near(th, 1.1) {
		t.Fatalf("threshold with A drained = %g, want 1.1", th)
	}
	op.exhaust(1)
	if th := op.threshold(); !math.IsInf(th, -1) {
		t.Fatalf("threshold with both drained = %g, want -Inf", th)
	}
}
