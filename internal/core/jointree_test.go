package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/kvstore"
)

// numTuples generates n tuples whose join values are numeric strings —
// usable by both equi and band predicates.
func numTuples(prefix string, n, joinCard int, rng *rand.Rand) []Tuple {
	out := make([]Tuple, 0, n)
	for i := 0; i < n; i++ {
		score := float64(rng.Intn(1000)) / 1000
		out = append(out, Tuple{
			RowKey:    fmt.Sprintf("%s%05d", prefix, i),
			JoinValue: strconv.Itoa(rng.Intn(joinCard)),
			Score:     score,
		})
	}
	return out
}

// randomTreeEnv builds a random acyclic tree over 2-5 leaves with mixed
// equi/band edges, loads its relations, and returns the raw tuples for
// independent recomputation.
func randomTreeEnv(t *testing.T, c *kvstore.Cluster, rng *rand.Rand, k int) (*JoinTree, [][]Tuple) {
	t.Helper()
	n := 2 + rng.Intn(4)
	rels := make([]Relation, n)
	tuples := make([][]Tuple, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("jt%d", i)
		tuples[i] = numTuples(name, 20+rng.Intn(30), 6, rng)
		rels[i] = loadRelation(t, c, name, tuples[i])
	}
	// Random tree shape: each later leaf attaches to a random earlier
	// one, which generates chains, stars, and everything between.
	edges := make([]TreeEdge, 0, n-1)
	for i := 1; i < n; i++ {
		e := TreeEdge{A: rng.Intn(i), B: i, Kind: PredEqui}
		if rng.Intn(2) == 0 {
			e.Kind = PredBand
			e.Band = []float64{0, 1, 2}[rng.Intn(3)]
		}
		edges = append(edges, e)
	}
	tr := &JoinTree{Relations: rels, Edges: edges, Score: Sum, K: k}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr, tuples
}

// skewedEquiTreeEnv is randomTreeEnv restricted to what the isl executor
// accepts — 2-4 leaves, equi edges only — with leaf sizes that differ by
// up to 8x, so reading every list to the same count and reading every
// list to the same score depth are different schedules.
func skewedEquiTreeEnv(t *testing.T, c *kvstore.Cluster, rng *rand.Rand, k int) (*JoinTree, [][]Tuple) {
	t.Helper()
	n := 2 + rng.Intn(3)
	base := []int{0, 0, 24, 10, 5}[n] // keeps the brute force's n-fold product small
	rels := make([]Relation, n)
	tuples := make([][]Tuple, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("se%d", i)
		tuples[i] = numTuples(name, base*(1+rng.Intn(8)), 4, rng)
		rels[i] = loadRelation(t, c, name, tuples[i])
	}
	edges := make([]TreeEdge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, TreeEdge{A: rng.Intn(i), B: i, Kind: PredEqui})
	}
	tr := &JoinTree{Relations: rels, Edges: edges, Score: Sum, K: k}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr, tuples
}

// bruteForceTreeTopK recomputes a tree query's exact answer from raw
// tuples with full cartesian enumeration and a plain sort — sharing no
// code with NaiveTreeTopK or the any-k operator (no walk orders, no
// leaf indexes, an independently-written predicate check).
func bruteForceTreeTopK(tr *JoinTree, tuples [][]Tuple, k int) []JoinResult {
	n := len(tuples)
	holds := func(e *TreeEdge, va, vb string) bool {
		if e.Kind != PredBand {
			return va == vb
		}
		fa, errA := strconv.ParseFloat(va, 64)
		fb, errB := strconv.ParseFloat(vb, 64)
		if errA != nil || errB != nil {
			return false
		}
		return math.Abs(fa-fb) <= e.Band
	}
	type assignment struct {
		Tuples []Tuple
		Score  float64
	}
	var all []assignment
	combo := make([]Tuple, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			for ei := range tr.Edges {
				e := &tr.Edges[ei]
				if !holds(e, combo[e.A].JoinValue, combo[e.B].JoinValue) {
					return
				}
			}
			scores := make([]float64, n)
			for j, tp := range combo {
				scores[j] = tp.Score
			}
			all = append(all, assignment{
				Tuples: append([]Tuple(nil), combo...),
				Score:  tr.Score.Fn(scores),
			})
			return
		}
		for _, tp := range tuples[i] {
			combo[i] = tp
			rec(i + 1)
		}
	}
	rec(0)
	sort.Slice(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score > all[b].Score
		}
		for i := range all[a].Tuples {
			if all[a].Tuples[i].RowKey != all[b].Tuples[i].RowKey {
				return all[a].Tuples[i].RowKey < all[b].Tuples[i].RowKey
			}
		}
		return false
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]JoinResult, len(all))
	for i, a := range all {
		out[i] = nResult(a.Tuples, a.Score)
	}
	return out
}

// assertTreeResultsByteMatch requires got to equal want tuple-for-tuple:
// same row keys, join values, scores, and aggregate, in the same order.
func assertTreeResultsByteMatch(t *testing.T, label string, got, want []JoinResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := tuplesOf(got[i]), tuplesOf(want[i])
		if len(g) != len(w) {
			t.Fatalf("%s: result %d has %d tuples, want %d", label, i, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("%s: result %d leaf %d = %+v, want %+v", label, i, j, g[j], w[j])
			}
		}
		if d := got[i].Score - want[i].Score; d > 1e-12 || d < -1e-12 {
			t.Fatalf("%s: result %d score %v, want %v", label, i, got[i].Score, want[i].Score)
		}
	}
}

// TestAnyKMatchesOracleRandomTrees: the randomized join-tree oracle.
// Any-k over random acyclic trees — chains, stars, and mixed shapes
// with equi and band edges — must byte-match an independent
// materialize-and-sort recompute, as must the naive tree reference, and
// its list cursor must pull from each leaf exactly what the in-memory
// bounding schedule pulls.
func TestAnyKMatchesOracleRandomTrees(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newTestCluster(t)
		k := []int{1, 7, 25}[rng.Intn(3)]
		tr, tuples := randomTreeEnv(t, c, rng, k)
		want := bruteForceTreeTopK(tr, tuples, k)

		naive, err := NaiveTreeTopK(c, tr)
		if err != nil {
			t.Fatalf("seed %d: NaiveTreeTopK: %v", seed, err)
		}
		assertTreeResultsByteMatch(t, fmt.Sprintf("seed %d naive", seed), naive.Results, want)
		checkListCursor(t, fmt.Sprintf("seed %d isl (n=%d)", seed, len(tr.Relations)), c, tr, tuples, want)
	}
}

// TestISLMatchesOracleSkewedEquiTrees: the same oracle over all-equi
// trees of unequal leaves. Results must byte-match the brute force and
// follow the bounding schedule — over the set, strictly fewer pulls
// than alternation needs for the same results.
func TestISLMatchesOracleSkewedEquiTrees(t *testing.T) {
	var pulled, alternating int
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newTestCluster(t)
		k := []int{1, 7, 25}[rng.Intn(3)]
		tr, tuples := skewedEquiTreeEnv(t, c, rng, k)
		label := fmt.Sprintf("seed %d isl (n=%d)", seed, len(tr.Relations))
		pulled += checkListCursor(t, label, c, tr, tuples, bruteForceTreeTopK(tr, tuples, k))

		sorted := make([][]Tuple, len(tuples))
		for i := range tuples {
			sorted[i] = descending(tuples[i])
		}
		rr := newSliceRun(tr, sorted...)
		rr.take(k)
		alternating += rr.pulled
	}
	if pulled >= alternating {
		t.Errorf("isl pulled %d tuples over the set, alternation needs %d: want strictly fewer", pulled, alternating)
	}
}

// checkListCursor builds the isl executor's index for tr, drains
// its cursor to tr.K results and requires them to byte-match want, and
// every leaf's pulled count to equal what the in-memory bounding
// schedule pulls from the same tuples. It does so at ISL batch sizes 1,
// 2 and 5: the small batches recycle the scanners' row blocks every
// tuple or two, under tuples the operator has kept. It returns the
// tuples pulled over all leaves, which no batch size changes.
func checkListCursor(t *testing.T, label string, c *kvstore.Cluster, tr *JoinTree, tuples [][]Tuple, want []JoinResult) int {
	t.Helper()
	ex, _ := Lookup("isl")
	store := NewIndexStore()
	if err := ex.EnsureIndex(c, tr, store, IndexBuildConfig{}.WithDefaults()); err != nil {
		t.Fatalf("%s: EnsureIndex: %v", label, err)
	}
	sorted := make([][]Tuple, len(tuples))
	for i := range tuples {
		sorted[i] = descending(tuples[i])
	}
	model := newBoundingRun(tr, sorted...)
	model.take(tr.K)
	pulled := 0
	for _, batch := range []int{1, 2, 5} {
		label := fmt.Sprintf("%s batch %d", label, batch)
		cur, err := ex.Open(c, tr, store, ExecOptions{ISLBatch: batch})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var got []JoinResult
		for len(got) < tr.K {
			r, err := cur.Next()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if r == nil {
				break
			}
			got = append(got, *r)
		}
		assertTreeResultsByteMatch(t, label, got, want)

		pulled = 0
		for i, li := range cur.(*listCursor).op.join.leaves {
			if int(li.n) != model.pos[i] {
				t.Errorf("%s: pulled %d tuples from leaf %d (%d rows), the bounding schedule pulls %d",
					label, li.n, i, len(tuples[i]), model.pos[i])
			}
			pulled += int(li.n)
		}
		cur.Close()
	}
	return pulled
}

// TestAnyKTreePagesMatchBatch: draining one any-k cursor in small pages
// over a mixed-shape tree must concatenate to exactly the batch result.
func TestAnyKTreePagesMatchBatch(t *testing.T) {
	const page, total = 3, 21
	rng := rand.New(rand.NewSource(99))
	c := newTestCluster(t)
	tr, tuples := randomTreeEnv(t, c, rng, page)
	store := NewIndexStore()
	ex, _ := Lookup("isl")
	if err := ex.EnsureIndex(c, tr, store, IndexBuildConfig{}.WithDefaults()); err != nil {
		t.Fatal(err)
	}
	opts := ExecOptions{ISLBatch: 7}.WithDefaults()

	batchT := *tr
	batchT.K = total
	batch, err := runExec(c, "isl", &batchT, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ex.Open(c, tr, store, opts) // K = page hint
	if err != nil {
		t.Fatal(err)
	}
	paged := drainPages(t, cur, page, total)
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if len(paged) != len(batch.Results) {
		t.Fatalf("paged %d results, batch %d", len(paged), len(batch.Results))
	}
	want := bruteForceTreeTopK(tr, tuples, len(paged))
	assertTreeResultsByteMatch(t, "paged", paged, want)
	assertTreeResultsByteMatch(t, "batch", batch.Results[:len(paged)], want)
}

// TestAnyKTreeEarlyCloseChargesNothing: closing an any-k tree cursor
// stops its read-unit spend — the early-close billing contract every
// two-way cursor honors extends to tree queries.
func TestAnyKTreeEarlyCloseChargesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := newTestCluster(t)
	tr, _ := randomTreeEnv(t, c, rng, 3)
	store := NewIndexStore()
	ex, _ := Lookup("isl")
	if err := ex.EnsureIndex(c, tr, store, IndexBuildConfig{}.WithDefaults()); err != nil {
		t.Fatal(err)
	}
	cur, err := ex.Open(c, tr, store, ExecOptions{ISLBatch: 5}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics().Snapshot()
	if _, err := cur.Next(); err != ErrCursorClosed {
		t.Fatalf("Next after Close = %v, want ErrCursorClosed", err)
	}
	delta := c.Metrics().Snapshot().Sub(before)
	if delta.KVReads != 0 || delta.NetworkBytes != 0 {
		t.Fatalf("closed cursor charged reads=%d net=%d", delta.KVReads, delta.NetworkBytes)
	}
}

// TestTreeIDDistinctness: the satellite audit of derived-query IDs.
// Legacy shapes keep their legacy IDs (so existing indexes and cache
// entries stay valid), while any two tree shapes that can produce
// different results must never share an ID — planner-cache and
// page-token entries key on it.
func TestTreeIDDistinctness(t *testing.T) {
	a, b, c3 := stubRel("a"), stubRel("b"), stubRel("c")

	// The two-way query keeps the ID — and so the isl_/ijlmr_ index
	// table names — it had as a query form of its own.
	if got := binaryTree(a, b, Sum, 10).ID(); got != "a_b_sum" {
		t.Errorf("binary tree ID %q, want the persisted form a_b_sum", got)
	}
	star := starTree([]Relation{a, b, c3}, Sum, 10)
	if got := star.ID(); got != "a_b_c_sum" {
		t.Errorf("star tree ID %q, want the persisted form a_b_c_sum", got)
	}

	// An all-equi chain is semantically the star (one shared join
	// value), so sharing the ID — and the cache entries — is correct.
	equiChain := &JoinTree{
		Relations: []Relation{a, b, c3},
		Edges:     []TreeEdge{{A: 0, B: 1}, {A: 1, B: 2}},
		Score:     Sum, K: 10,
	}
	if equiChain.ID() != star.ID() {
		t.Errorf("all-equi chain ID %q != star ID %q (semantically identical shapes)", equiChain.ID(), star.ID())
	}

	// A band edge changes semantics: the ID must diverge.
	bandChain := &JoinTree{
		Relations: []Relation{a, b, c3},
		Edges:     []TreeEdge{{A: 0, B: 1}, {A: 1, B: 2, Kind: PredBand, Band: 0.5}},
		Score:     Sum, K: 10,
	}
	if bandChain.ID() == star.ID() {
		t.Errorf("band chain shares ID %q with the equi star", star.ID())
	}
	// Different band widths are different predicates.
	wider := *bandChain
	wider.Edges = append([]TreeEdge(nil), bandChain.Edges...)
	wider.Edges[1].Band = 1.5
	if wider.ID() == bandChain.ID() {
		t.Errorf("band widths 0.5 and 1.5 share ID %q", wider.ID())
	}
	// Same predicates listed in a different order canonicalize to the
	// same ID (same semantics, same cache entry).
	reordered := &JoinTree{
		Relations: []Relation{a, b, c3},
		Edges:     []TreeEdge{{A: 2, B: 1, Kind: PredBand, Band: 0.5}, {A: 1, B: 0}},
		Score:     Sum, K: 10,
	}
	if reordered.ID() != bandChain.ID() {
		t.Errorf("reordered edges change ID: %q vs %q", reordered.ID(), bandChain.ID())
	}
	// A band tree's ID is the all-equi ID of its leaves and aggregate
	// plus its edge list.
	if !strings.HasPrefix(bandChain.ID(), star.ID()+"@") {
		t.Errorf("band chain ID %q does not extend star ID %q", bandChain.ID(), star.ID())
	}
}

// TestJoinTreeValidateShapes: malformed shapes must come back as typed
// *ShapeError values carrying a diagnostic, never panic.
func TestJoinTreeValidateShapes(t *testing.T) {
	rels := []Relation{stubRel("a"), stubRel("b"), stubRel("c"), stubRel("d")}
	cases := []struct {
		name  string
		edges []TreeEdge
	}{
		{"cycle", []TreeEdge{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 0}}},
		{"disconnected", []TreeEdge{{A: 0, B: 1}, {A: 2, B: 3}, {A: 3, B: 2, Kind: PredBand, Band: 1}}},
		{"too-few-edges", []TreeEdge{{A: 0, B: 1}}},
		{"self-loop", []TreeEdge{{A: 0, B: 0}, {A: 1, B: 2}, {A: 2, B: 3}}},
		{"out-of-range", []TreeEdge{{A: 0, B: 9}, {A: 1, B: 2}, {A: 2, B: 3}}},
		{"duplicate-edge", []TreeEdge{{A: 0, B: 1}, {A: 1, B: 0}, {A: 2, B: 3}}},
		{"bad-kind", []TreeEdge{{A: 0, B: 1, Kind: "theta"}, {A: 1, B: 2}, {A: 2, B: 3}}},
		{"bad-band", []TreeEdge{{A: 0, B: 1, Kind: PredBand, Band: math.NaN()}, {A: 1, B: 2}, {A: 2, B: 3}}},
	}
	for _, tc := range cases {
		tr := &JoinTree{Relations: rels, Edges: tc.edges, Score: Sum, K: 5}
		err := tr.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if _, ok := err.(*ShapeError); !ok {
			t.Errorf("%s: error %T (%v), want *ShapeError", tc.name, err, err)
		}
	}
}
