package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/kvstore"
)

// loadTree loads one relation per tuple list and joins them by edges.
func loadTree(t *testing.T, c *kvstore.Cluster, tuples [][]Tuple, edges []TreeEdge, k int) *JoinTree {
	t.Helper()
	tr := &JoinTree{Edges: edges, Score: Sum, K: k}
	for i := range tuples {
		tr.Relations = append(tr.Relations, loadRelation(t, c, fmt.Sprintf("lt%d", i), tuples[i]))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// openAnyK opens an isl cursor on tr, building its index in store
// the first time.
func openAnyK(t *testing.T, c *kvstore.Cluster, tr *JoinTree, store *IndexStore, batch int) Cursor {
	t.Helper()
	ex, _ := Lookup("isl")
	if err := ex.EnsureIndex(c, tr, store, IndexBuildConfig{}); err != nil {
		t.Fatal(err)
	}
	cur, err := ex.Open(c, tr, store, ExecOptions{ISLBatch: batch})
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

// TestLeafIndexMatchesEdgePredicate: under random interleavings of add
// and probe, a leaf index must return exactly the ordinals whose tuples
// satisfy TreeEdge.Match — through either of two band edges of
// different widths and an equi edge on the same leaf, with duplicate,
// negative, fractional, non-finite and unparseable join values, and
// across many chunk splits.
func TestLeafIndexMatchesEdgePredicate(t *testing.T) {
	ints := func(rng *rand.Rand) string { return strconv.Itoa(rng.Intn(41) - 20) }
	cases := []struct {
		name   string
		w0, w1 float64
		gen    func(*rand.Rand) string
	}{
		{"integers", 0, 1, ints},
		// One-decimal values put many pairs exactly on a band boundary,
		// where a-b and b+band round differently (0.3-0.1 < 0.2 < 0.1+0.2).
		{"boundaries", 0.2, 0.1, func(rng *rand.Rand) string {
			return strconv.FormatFloat(float64(rng.Intn(61)-30)/10, 'f', 1, 64)
		}},
		{"tiny-and-wide", 1e-9, 1e9, func(rng *rand.Rand) string {
			return strconv.FormatFloat(rng.NormFloat64()*50, 'g', 6, 64)
		}},
		// Three distinct values: runs of equal entries longer than a chunk.
		{"few-values", 0, 1, func(rng *rand.Rand) string { return strconv.Itoa(rng.Intn(3)) }},
		{"specials", 1, 2.5, func(rng *rand.Rand) string {
			if rng.Intn(6) == 0 {
				odd := []string{"NaN", "Inf", "-Inf", "+Inf", "abc", "", "1e999", "-0", "0x10"}
				return odd[rng.Intn(len(odd))]
			}
			return ints(rng)
		}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci)))
			tr := &JoinTree{
				Relations: make([]Relation, 4),
				Edges: []TreeEdge{
					{A: 0, B: 1, Kind: PredBand, Band: tc.w0},
					{A: 1, B: 2, Kind: PredBand, Band: tc.w1},
					{A: 3, B: 1, Kind: PredEqui},
				},
			}
			li := newLeafIndex(tr, 1)
			var added []Tuple
			var buf []int32
			for len(added) < 1500 {
				tp := Tuple{RowKey: strconv.Itoa(len(added)), JoinValue: tc.gen(rng)}
				if ord := li.add(tp); int(ord) != len(added) {
					t.Fatalf("add returned ordinal %d, want %d", ord, len(added))
				}
				added = append(added, tp)
				if rng.Intn(10) != 0 {
					continue
				}
				for ei := range tr.Edges {
					e := &tr.Edges[ei]
					other := e.A + e.B - 1
					from := newLeafIndex(tr, other)
					probe := tc.gen(rng)
					buf = li.candidates(e, from, from.add(Tuple{JoinValue: probe}), buf[:0])
					got := append([]int32(nil), buf...)
					sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
					var want []int32
					for ord, a := range added {
						va, vb := probe, a.JoinValue
						if e.A == 1 {
							va, vb = vb, va
						}
						if e.Match(va, vb) {
							want = append(want, int32(ord))
						}
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("after %d adds, edge %d probe %q:\n got %v\nwant %v", len(added), ei, probe, got, want)
					}
				}
			}
			if tc.name != "specials" && len(li.band.chunks) < 4 {
				t.Fatalf("only %d band chunks after %d adds: the splits went untested", len(li.band.chunks), len(added))
			}
		})
	}
}

// TestBandTreeUnmatchableJoinValues: "NaN" parses as a float, and a NaN
// in a sorted structure breaks its order for every later insert. Band
// trees whose leaves carry NaN, infinite and unparseable join values
// must still byte-match the brute-force oracle on both the any-k and
// the naive executor: none of those values satisfies |a-b| <= Band.
func TestBandTreeUnmatchableJoinValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	odd := []string{"NaN", "Inf", "-Inf", "n/a"}
	tuples := make([][]Tuple, 3)
	for i := range tuples {
		tuples[i] = numTuples(fmt.Sprintf("u%d", i), 120, 40, rng)
		for j := range tuples[i] {
			if rng.Intn(10) == 0 {
				tuples[i][j].JoinValue = odd[rng.Intn(len(odd))]
			}
		}
	}
	const k = 25
	c := newTestCluster()
	tr := loadTree(t, c, tuples, []TreeEdge{
		{A: 0, B: 1, Kind: PredBand, Band: 1},
		{A: 1, B: 2, Kind: PredBand, Band: 0},
	}, k)
	want := bruteForceTreeTopK(tr, tuples, k)
	if len(want) != k {
		t.Fatalf("oracle found %d results, want a full %d", len(want), k)
	}

	naive, err := NaiveTreeTopK(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	assertTreeResultsByteMatch(t, "naive", naive.Results, want)

	cur := openAnyK(t, c, tr, NewIndexStore(), 5)
	defer cur.Close()
	assertTreeResultsByteMatch(t, "anyk", drainPages(t, cur, k, k), want)
}

// TestAnyKTieOrder: with scores quantised to one decimal most results
// tie, so the emitted order is decided by the row-key tie-break the
// ready heap evaluates through the leaf arenas. The full enumeration
// must equal a sort of the brute-force join by JoinResult.less,
// whether drained in one go or in pages.
func TestAnyKTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tuples := make([][]Tuple, 3)
	for i := range tuples {
		tuples[i] = numTuples(fmt.Sprintf("q%d", i), 40, 8, rng)
		for j := range tuples[i] {
			tuples[i][j].Score = float64(rng.Intn(4)) / 10
		}
	}
	c := newTestCluster()
	tr := loadTree(t, c, tuples, []TreeEdge{
		{A: 0, B: 1, Kind: PredBand, Band: 1},
		{A: 1, B: 2, Kind: PredEqui},
	}, 10)
	want := bruteForceTreeTopK(tr, tuples, 1<<30)
	ties := 0
	for i := 1; i < len(want); i++ {
		if want[i].Score == want[i-1].Score {
			ties++
		}
	}
	if len(want) < 200 || ties < len(want)/2 {
		t.Fatalf("oracle: %d results, %d tied with their predecessor — not a tie test", len(want), ties)
	}
	for i := 1; i < len(want); i++ {
		if !want[i-1].less(&want[i]) {
			t.Fatalf("oracle order disagrees with JoinResult.less at %d", i)
		}
	}
	store := NewIndexStore()
	for _, page := range []int{len(want) + 1, 7} {
		cur := openAnyK(t, c, tr, store, 5)
		got := drainPages(t, cur, page, len(want)+1)
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		assertTreeResultsByteMatch(t, fmt.Sprintf("pages of %d", page), got, want)
	}
	tieAtThreshold(t)
}

// tieAtThreshold is TestAnyKTieOrder's crafted case: a result that ties
// the threshold must
// wait, because an unseen result can tie it and sort earlier on row
// keys. Here (a9,b1) is assembled first and scores exactly the
// threshold, while (a5,b9) — same score, earlier row key — still needs
// a5 pulled. Through the isl executor, binary and as a 3-leaf star, at
// every batch size the order must be naive's down to the row keys, for
// k=1 (where releasing early returns the wrong result) and drained.
func tieAtThreshold(t *testing.T) {
	leaves := [][]Tuple{
		{{RowKey: "a9", JoinValue: "x", Score: 0.75}, {RowKey: "a3", JoinValue: "z", Score: 0.5}, {RowKey: "a5", JoinValue: "y", Score: 0.5}},
		{{RowKey: "b9", JoinValue: "y", Score: 0.5}, {RowKey: "b1", JoinValue: "x", Score: 0.25}},
		{{RowKey: "c1", JoinValue: "x", Score: 0.5}, {RowKey: "c2", JoinValue: "y", Score: 0.5}},
	}
	for n := 2; n <= 3; n++ {
		c := newTestCluster()
		tr := loadTree(t, c, leaves[:n], starEdges(n), 5)
		naive, err := NaiveTreeTopK(c, tr)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Results
		if len(want) != 2 || want[0].Score != want[1].Score || want[0].Left.RowKey != "a5" {
			t.Fatalf("%d leaves: naive = %+v, want two tied results led by a5", n, want)
		}
		isl, _ := Lookup("isl")
		store := NewIndexStore()
		if err := isl.EnsureIndex(c, tr, store, IndexBuildConfig{}); err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 2, 100} {
			for _, k := range []int{1, 5} {
				bounded := *tr
				bounded.K = k
				res, err := runExec(c, "isl", &bounded, store, ExecOptions{ISLBatch: batch})
				if err != nil {
					t.Fatal(err)
				}
				assertTreeResultsByteMatch(t, fmt.Sprintf("%d leaves, batch %d, k=%d", n, batch, k),
					res.Results, want[:min(k, len(want))])
			}
		}
	}
}

// TestAnyKCursorCloseReleasesOperator: a closed cursor may stay
// referenced (a Rows kept for its Cost, an evicted page cursor), so
// Close must let go of the leaf indexes, the ready heap and the
// scanners; it stays idempotent and Next keeps failing typed.
func TestAnyKCursorCloseReleasesOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := newTestCluster()
	tr, _ := randomTreeEnv(t, c, rng, 3)
	cur := openAnyK(t, c, tr, NewIndexStore(), 5)
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	ak, ok := cur.(*listCursor)
	if !ok {
		t.Fatalf("unbudgeted any-k cursor is a %T", cur)
	}
	if ak.op == nil || ak.streams == nil {
		t.Fatal("open cursor holds no operator")
	}
	for i := 0; i < 2; i++ {
		if err := cur.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
		if ak.op != nil || ak.streams != nil {
			t.Fatalf("Close #%d left op=%v streams=%v", i+1, ak.op != nil, ak.streams != nil)
		}
		if _, err := cur.Next(); err != ErrCursorClosed {
			t.Fatalf("Next after Close #%d = %v, want ErrCursorClosed", i+1, err)
		}
	}
}

// TestAnyKSteadyStateAllocations: the per-tuple paths must not
// allocate — a probe writes into the caller's buffer, and a push that
// completes no combination only touches structures that grow by
// amortised appends.
func TestAnyKSteadyStateAllocations(t *testing.T) {
	tree := bandChain(4)
	leaves := chainLeaves(4, 2000)
	op := newAnyKOp(tree)
	// Leaf 3 stays empty: pushes expand through leaves 0-2 but no
	// combination ever completes.
	for i := 0; i < 3; i++ {
		for _, tp := range leaves[i][:1000] {
			op.push(i, tp)
		}
	}
	next := 1000
	if avg := testing.AllocsPerRun(900, func() {
		for i := 0; i < 3; i++ {
			op.push(i, leaves[i][next])
		}
		if next++; len(op.ready) != 0 {
			t.Fatal("a combination completed without leaf 3")
		}
	}); avg != 0 {
		t.Errorf("push closing no combination: %v allocs per 3 pushes, want 0", avg)
	}

	// The binary rank join: two equi leaves, about one partner per
	// tuple, so most pushes do complete a combination and park it.
	two := newAnyKOp(stubBinary(Sum))
	for i := 0; i < 2; i++ {
		for _, tp := range leaves[i][:1000] {
			two.push(i, tp)
		}
	}
	next = 1000
	if avg := testing.AllocsPerRun(900, func() {
		for i := 0; i < 2; i++ {
			two.push(i, leaves[i][next])
		}
		next++
		two.releasable()
	}); avg != 0 {
		t.Errorf("two-leaf equi push: %v allocs per 2 pushes and a threshold check, want 0", avg)
	}
	if len(two.ready) < 500 {
		t.Fatalf("only %d combinations parked: the equi pushes joined nothing", len(two.ready))
	}

	li, from := op.join.leaves[1], op.join.leaves[0]
	buf := make([]int32, 0, 64)
	probes := 0
	if avg := testing.AllocsPerRun(1000, func() {
		buf = li.candidates(&tree.Edges[0], from, int32(probes%1000), buf[:0])
		probes++
	}); avg != 0 {
		t.Errorf("candidates probe: %v allocs, want 0", avg)
	}
}
