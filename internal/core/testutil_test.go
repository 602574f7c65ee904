package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/sim"
)

// paperR1 and paperR2 are the running-example relations of Fig. 1.
var paperR1 = []Tuple{
	{RowKey: "r1_1", JoinValue: "d", Score: 0.82},
	{RowKey: "r1_2", JoinValue: "c", Score: 0.93},
	{RowKey: "r1_3", JoinValue: "c", Score: 0.67},
	{RowKey: "r1_4", JoinValue: "d", Score: 0.82},
	{RowKey: "r1_5", JoinValue: "a", Score: 0.73},
	{RowKey: "r1_6", JoinValue: "c", Score: 0.79},
	{RowKey: "r1_7", JoinValue: "b", Score: 0.82},
	{RowKey: "r1_8", JoinValue: "b", Score: 0.70},
	{RowKey: "r1_9", JoinValue: "d", Score: 0.68},
	{RowKey: "r1_10", JoinValue: "a", Score: 1.00},
	{RowKey: "r1_11", JoinValue: "b", Score: 0.64},
}

var paperR2 = []Tuple{
	{RowKey: "r2_1", JoinValue: "a", Score: 0.51},
	{RowKey: "r2_2", JoinValue: "b", Score: 0.91},
	{RowKey: "r2_3", JoinValue: "c", Score: 0.64},
	{RowKey: "r2_4", JoinValue: "d", Score: 0.53},
	{RowKey: "r2_5", JoinValue: "d", Score: 0.41},
	{RowKey: "r2_6", JoinValue: "d", Score: 0.50},
	{RowKey: "r2_7", JoinValue: "a", Score: 0.35},
	{RowKey: "r2_8", JoinValue: "a", Score: 0.38},
	{RowKey: "r2_9", JoinValue: "a", Score: 0.37},
	{RowKey: "r2_10", JoinValue: "c", Score: 0.31},
	{RowKey: "r2_11", JoinValue: "b", Score: 0.92},
}

// oracleTopK computes the exact top-k join from in-memory tuples,
// independent of any store or algorithm code.
func oracleTopK(left, right []Tuple, f ScoreFunc, k int) []JoinResult {
	var all []JoinResult
	for _, lt := range left {
		for _, rt := range right {
			if lt.JoinValue == rt.JoinValue {
				all = append(all, JoinResult{Left: lt, Right: rt, Score: f.Fn([]float64{lt.Score, rt.Score})})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].less(&all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// scoresOf projects results onto their score list.
func scoresOf(rs []JoinResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Score
	}
	return out
}

// assertScoresEqual compares two score lists within a tolerance (all
// algorithms must return the same top-k SCORES; tie-broken tuples at the
// boundary may differ between algorithms, which is correct behaviour).
func assertScoresEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		d := got[i] - want[i]
		if d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s: score[%d] = %.6f, want %.6f\n got: %v\nwant: %v", label, i, got[i], want[i], got, want)
		}
	}
}

// verifyResultsAreRealJoins checks every returned pair actually joins and
// carries the right aggregate score (guards against algorithms inventing
// results that happen to have plausible scores).
func verifyResultsAreRealJoins(t *testing.T, label string, rs []JoinResult, f ScoreFunc) {
	t.Helper()
	for i, r := range rs {
		if r.Left.JoinValue != r.Right.JoinValue {
			t.Fatalf("%s: result %d joins %q with %q", label, i, r.Left.JoinValue, r.Right.JoinValue)
		}
		want := f.Fn([]float64{r.Left.Score, r.Right.Score})
		if d := r.Score - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s: result %d score %.6f, want %.6f", label, i, r.Score, want)
		}
	}
}

// newTestCluster builds a 4-node LC-profile cluster.
func newTestCluster() *kvstore.Cluster {
	p := sim.LC()
	p.Nodes = 4
	c, err := kvstore.NewCluster(p)
	if err != nil {
		panic(err)
	}
	return c
}

// mustCluster builds a cluster with the given profile, failing the test
// on setup errors (disk-mode scratch dir creation).
func mustCluster(t testing.TB, p sim.Profile) *kvstore.Cluster {
	t.Helper()
	c, err := kvstore.NewCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// loadRelation creates a table and loads tuples as base rows.
func loadRelation(t testing.TB, c *kvstore.Cluster, name string, tuples []Tuple) Relation {
	t.Helper()
	rel := Relation{Name: name, Table: "tbl_" + name, Family: "d", JoinQual: "join", ScoreQual: "score"}
	if _, err := c.CreateTable(rel.Table, []string{rel.Family}, nil); err != nil {
		t.Fatal(err)
	}
	var cells []kvstore.Cell
	for _, tp := range tuples {
		cells = append(cells,
			kvstore.Cell{Row: tp.RowKey, Family: rel.Family, Qualifier: rel.JoinQual, Value: []byte(tp.JoinValue)},
			kvstore.Cell{Row: tp.RowKey, Family: rel.Family, Qualifier: rel.ScoreQual, Value: kvstore.FloatValue(tp.Score)},
		)
	}
	if err := c.BatchPut(rel.Table, cells); err != nil {
		t.Fatal(err)
	}
	return rel
}

// synthTuples generates n random tuples over joinCard join values with
// the given score distribution ("uniform" or "zipfish").
func synthTuples(prefix string, n, joinCard int, dist string, seed int64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Tuple, 0, n)
	for i := 0; i < n; i++ {
		var score float64
		switch dist {
		case "zipfish":
			// Many low scores, few high ones (like the paper's Q2).
			score = 1 - rng.Float64()*rng.Float64()*0.5 - rng.Float64()*0.5
			if score <= 0 {
				score = rng.Float64() * 0.1
			}
			if score > 1 {
				score = 1
			}
		case "squared":
			// Relevance-like: concentrated near 0, sparse near 1.
			score = rng.Float64()
			score *= score
		default:
			score = rng.Float64()
		}
		// Quantize scores so duplicates occur (exercises multi-tuple
		// ISL index rows and histogram bucket edges).
		score = float64(int(score*1000)) / 1000
		out = append(out, Tuple{
			RowKey:    fmt.Sprintf("%s%05d", prefix, i),
			JoinValue: fmt.Sprintf("j%d", rng.Intn(joinCard)),
			Score:     score,
		})
	}
	return out
}

// paperQuery builds the running-example query against a loaded cluster.
func paperQuery(relL, relR Relation, k int) *JoinTree {
	return binaryTree(relL, relR, Sum, k)
}

// binaryTree is the two-way rank join of l and r: the two-leaf tree
// with one equi edge.
func binaryTree(l, r Relation, f ScoreFunc, k int) *JoinTree {
	return &JoinTree{
		Relations: []Relation{l, r},
		Edges:     []TreeEdge{{A: 0, B: 1, Kind: PredEqui}},
		Score:     f,
		K:         k,
	}
}

// stubBinary is binaryTree over placeholder relations.
func stubBinary(f ScoreFunc) *JoinTree {
	return binaryTree(stubRel("l"), stubRel("r"), f, 1)
}

// stubRel names a relation no test loads (operator-level tests never
// touch the store).
func stubRel(name string) Relation {
	return Relation{Name: name, Table: "tbl_" + name, Family: "d", JoinQual: "join", ScoreQual: "score"}
}

// starEdges joins n leaves by equi edges that all meet at leaf 0.
func starEdges(n int) []TreeEdge {
	var edges []TreeEdge
	for i := 1; i < n; i++ {
		edges = append(edges, TreeEdge{A: 0, B: i, Kind: PredEqui})
	}
	return edges
}

// starTree builds the all-equi star over rels — the n-way equi-join of
// Section 3.
func starTree(rels []Relation, f ScoreFunc, k int) *JoinTree {
	return &JoinTree{Relations: rels, Edges: starEdges(len(rels)), Score: f, K: k}
}

// stubStar is starTree over n placeholder relations.
func stubStar(n int, f ScoreFunc) *JoinTree {
	rels := make([]Relation, n)
	for i := range rels {
		rels[i] = stubRel(fmt.Sprintf("s%d", i))
	}
	return starTree(rels, f, 1)
}

// nResult builds the JoinResult of one n-way combination.
func nResult(combo []Tuple, score float64) JoinResult {
	r := JoinResult{Left: combo[0], Right: combo[1], Score: score}
	if len(combo) > 2 {
		r.Rest = append([]Tuple(nil), combo[2:]...)
	}
	return r
}

// tuplesOf lists a result's tuples in leaf order.
func tuplesOf(r JoinResult) []Tuple {
	return append([]Tuple{r.Left, r.Right}, r.Rest...)
}

// runExec is the bounded top-k of a registered executor: a drain of its
// cursor to t.K results.
func runExec(c *kvstore.Cluster, name string, t *JoinTree, store *IndexStore, opts ExecOptions) (*Result, error) {
	ex, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("executor %q not registered", name)
	}
	return RunCursor(c, t.K, func() (Cursor, error) { return ex.Open(c, t, store, opts) })
}

// buildLists builds the inverse score list of every leaf of q
// (BuildISLRelation, once per relation) into a fresh store.
func buildLists(c *kvstore.Cluster, q *JoinTree) (*IndexStore, error) {
	store := NewIndexStore()
	for _, rel := range q.Relations {
		if _, ok := store.ISL.Get(rel.Name); ok {
			continue
		}
		idx, _, err := BuildISLRelation(c, rel)
		if err != nil {
			return nil, err
		}
		store.ISL.Put(rel.Name, idx)
	}
	return store, nil
}

// queryISL runs the isl executor over already-built lists.
func queryISL(c *kvstore.Cluster, q *JoinTree, lists *IndexStore, opts ExecOptions) (*Result, error) {
	return runExec(c, "isl", q, lists, opts)
}

// sliceRun drives one rank-join operator over in-memory leaves, each
// already in descending score order, one tuple per pull: round-robin
// (classic HRJN's alternation) or, with bounding set, from the leaf that
// bounds the threshold (HRJN*'s rule, the list cursor's schedule).
type sliceRun struct {
	op       *anyKOp
	leaves   [][]Tuple
	pos      []int
	leaf     int
	pulled   int
	bounding bool
}

func newSliceRun(tr *JoinTree, leaves ...[]Tuple) *sliceRun {
	return &sliceRun{op: newAnyKOp(tr), leaves: leaves, pos: make([]int, len(leaves))}
}

// newBoundingRun is newSliceRun on the threshold-driven schedule.
func newBoundingRun(tr *JoinTree, leaves ...[]Tuple) *sliceRun {
	s := newSliceRun(tr, leaves...)
	s.bounding = true
	return s
}

// take releases up to k more results, pulling only the input they need.
func (s *sliceRun) take(k int) []JoinResult {
	var out []JoinResult
	for len(out) < k {
		for !s.op.releasable() {
			if s.op.allDone() {
				return out
			}
			s.pull()
		}
		out = append(out, s.op.pop())
	}
	return out
}

// pull makes one scheduling step — a tuple, an exhaustion mark, or (in
// round-robin) a skipped drained leaf — and returns the leaf it visited.
func (s *sliceRun) pull() int {
	i := s.leaf
	if s.bounding {
		i = s.op.bounding()
	} else {
		s.leaf = (s.leaf + 1) % len(s.leaves)
	}
	switch {
	case s.op.done[i]:
	case s.pos[i] == len(s.leaves[i]):
		s.op.exhaust(i)
	default:
		s.op.push(i, s.leaves[i][s.pos[i]])
		s.pos[i]++
		s.pulled++
	}
	return i
}
