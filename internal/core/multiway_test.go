package core

import (
	"fmt"
	"sort"
	"testing"
)

// The n-way equi-join of Section 3 is the all-equi tree; these tests
// run it through the rank-join operator over in-memory leaves and
// through the isl executor over its n-way index.

// oracleTopKN computes the exact n-way equi-join top-k in memory.
func oracleTopKN(rels [][]Tuple, f ScoreFunc, k int) []JoinResult {
	byJoin := make([]map[string][]Tuple, len(rels))
	for i, ts := range rels {
		byJoin[i] = map[string][]Tuple{}
		for _, t := range ts {
			byJoin[i][t.JoinValue] = append(byJoin[i][t.JoinValue], t)
		}
	}
	var all []JoinResult
	var rec func(v string, i int, combo []Tuple)
	rec = func(v string, i int, combo []Tuple) {
		if i == len(rels) {
			scores := make([]float64, len(combo))
			for j, t := range combo {
				scores[j] = t.Score
			}
			all = append(all, nResult(combo, f.Fn(scores)))
			return
		}
		for _, t := range byJoin[i][v] {
			rec(v, i+1, append(combo, t))
		}
	}
	for v := range byJoin[0] {
		rec(v, 0, nil)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].less(&all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestHRJNNThreeWayMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r1 := synthTuples("a", 80, 12, "uniform", seed)
		r2 := synthTuples("b", 80, 12, "uniform", seed+100)
		r3 := synthTuples("c", 80, 12, "uniform", seed+200)
		for _, k := range []int{1, 5, 25} {
			for _, f := range []ScoreFunc{Sum, Product} {
				got := newSliceRun(stubStar(3, f), descending(r1), descending(r2), descending(r3)).take(k)
				assertTreeResultsByteMatch(t, fmt.Sprintf("3-way seed=%d k=%d %s", seed, k, f.Name),
					got, oracleTopKN([][]Tuple{r1, r2, r3}, f, k))
			}
		}
	}
}

func TestHRJNNEarlyTermination(t *testing.T) {
	mk := func(prefix string) []Tuple {
		out := []Tuple{{RowKey: prefix + "hot", JoinValue: "hot", Score: 1.0}}
		for i := 0; i < 500; i++ {
			out = append(out, Tuple{RowKey: tkey(prefix, i), JoinValue: "cold", Score: 0.01})
		}
		return descending(out)
	}
	run := newSliceRun(stubStar(3, Sum), mk("a"), mk("b"), mk("c"))
	got := run.take(1)
	if len(got) != 1 || got[0].Score != 3.0 {
		t.Fatalf("results = %v", got)
	}
	if run.pulled > 30 {
		t.Errorf("pulled %d tuples; expected early termination", run.pulled)
	}
}

// TestMultiQueryValidate: the parameter checks of an n-way query (the
// shape checks are TestJoinTreeValidateShapes).
func TestMultiQueryValidate(t *testing.T) {
	rels := []Relation{stubRel("a"), stubRel("b"), stubRel("c")}
	if err := starTree(rels, Sum, 5).Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := starTree(rels[:1], Sum, 5).Validate(); err == nil {
		t.Error("single relation accepted")
	}
	if err := starTree(rels, Sum, 0).Validate(); err == nil {
		t.Error("k=0 accepted")
	}
	if err := starTree(rels, ScoreFunc{}, 5).Validate(); err == nil {
		t.Error("nil score accepted")
	}
	bad := append([]Relation(nil), rels...)
	bad[2].ScoreQual = ""
	if err := starTree(bad, Sum, 5).Validate(); err == nil {
		t.Error("relation without a score column accepted")
	}
}

func TestISLThreeWayEndToEnd(t *testing.T) {
	c := newTestCluster()
	r1 := synthTuples("a", 120, 15, "uniform", 11)
	r2 := synthTuples("b", 120, 15, "uniform", 12)
	r3 := synthTuples("c", 120, 15, "zipfish", 13)
	tr := starTree([]Relation{
		loadRelation(t, c, "A", r1), loadRelation(t, c, "B", r2), loadRelation(t, c, "C", r3),
	}, Sum, 12)
	store := NewIndexStore()
	if err := islIndexes.ensure(c, tr, store, IndexBuildConfig{}); err != nil {
		t.Fatal(err)
	}
	want := oracleTopKN([][]Tuple{r1, r2, r3}, Sum, tr.K)

	// Store-backed naive agrees with the in-memory oracle.
	naive, err := NaiveTreeTopK(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	assertTreeResultsByteMatch(t, "naive-n", naive.Results, want)

	for _, batch := range []int{1, 10, 100} {
		res, err := runExec(c, "isl", tr, store, ExecOptions{ISLBatch: batch})
		if err != nil {
			t.Fatal(err)
		}
		// Byte match covers genuineness too: every result is a
		// same-join-value combination the oracle formed.
		assertTreeResultsByteMatch(t, fmt.Sprintf("isl batch=%d", batch), res.Results, want)
	}
	// ISL must not scan everything for small k at this scale.
	res, err := runExec(c, "isl", tr, store, ExecOptions{ISLBatch: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.KVReads >= 360 {
		t.Errorf("n-way ISL read %d KVs of 360; no early termination", res.Cost.KVReads)
	}
}

func TestISLFourWay(t *testing.T) {
	c := newTestCluster()
	var rels []Relation
	var data [][]Tuple
	for i := 0; i < 4; i++ {
		ts := synthTuples(fmt.Sprintf("r%d", i), 60, 8, "uniform", int64(40+i))
		data = append(data, ts)
		rels = append(rels, loadRelation(t, c, fmt.Sprintf("W%d", i), ts))
	}
	tr := starTree(rels, Product, 7)
	store := NewIndexStore()
	if err := islIndexes.ensure(c, tr, store, IndexBuildConfig{}); err != nil {
		t.Fatal(err)
	}
	res, err := runExec(c, "isl", tr, store, ExecOptions{ISLBatch: 20})
	if err != nil {
		t.Fatal(err)
	}
	assertTreeResultsByteMatch(t, "isl-4way", res.Results, oracleTopKN(data, Product, tr.K))
}

// TestNTopKList: the bounded list over n-way results, including a tie
// only the third leaf's row key breaks.
func TestNTopKList(t *testing.T) {
	top := NewTopKList(2)
	add := func(score float64, keys ...string) bool {
		var ts []Tuple
		for _, k := range keys {
			ts = append(ts, Tuple{RowKey: k})
		}
		return top.Add(nResult(ts, score))
	}
	if !add(0.5, "a", "b", "z") || !add(0.9, "c", "d", "e") {
		t.Fatal("adds rejected")
	}
	if add(0.1, "e", "f", "g") {
		t.Fatal("below-k accepted")
	}
	if top.KthScore() != 0.5 {
		t.Fatalf("KthScore = %g", top.KthScore())
	}
	if add(0.5, "a", "b", "zz") {
		t.Fatal("tie sorting after the k'th on the third key accepted")
	}
	if !add(0.5, "a", "b", "y") {
		t.Fatal("tie sorting before the k'th on the third key rejected")
	}
	rs := top.Results()
	if rs[0].Score != 0.9 || rs[1].Score != 0.5 || rs[1].Rest[0].RowKey != "y" {
		t.Fatalf("order = %+v", rs)
	}
}
