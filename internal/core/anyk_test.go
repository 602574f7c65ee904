package core

import (
	"fmt"
	"math"
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
// satisfy TreeEdge.Match — through up to three band edges of different
// (or equal) widths and an equi edge on the same leaf, with duplicate,
// negative, fractional, signed-zero, non-finite and unparseable join
// values, strings equal as floats but not as strings, values whose
// cells straddle zero, and values so far from zero that their band
// cells are finer than the floats there — while each band grid's table
// and the equi table grow. A band probe must visit a bounded number of
// cells at every magnitude.
func TestLeafIndexMatchesEdgePredicate(t *testing.T) {
	ints := func(rng *rand.Rand) string { return strconv.Itoa(rng.Intn(41) - 20) }
	tenths := func(n int) func(*rand.Rand) string {
		return func(rng *rand.Rand) string {
			return strconv.FormatFloat(float64(rng.Intn(2*n+1)-n)/10, 'f', 1, 64)
		}
	}
	// Bounds a probe's cells: three, normally, and about twenty at
	// |v|/width near 2^52 and up (bandGrid.window).
	const maxProbeCells = 24
	cases := []struct {
		name   string
		widths []float64
		gen    func(*rand.Rand) string
		// grew is how many of the leaf's grids must have grown their
		// table at least twice from its first size; equiGrew is whether
		// its equi table must have.
		grew     int
		equiGrew bool
	}{
		// Two band edges of width 1 share one grid.
		{"integers", []float64{0, 1, 1}, ints, 2, true},
		// One-decimal values put many pairs exactly on a band boundary,
		// where a-b and b+band round differently (0.3-0.1 < 0.2 < 0.1+0.2).
		{"boundaries", []float64{0.2, 0.1}, tenths(30), 2, true},
		{"tiny-and-wide", []float64{1e-9, 1e9}, func(rng *rand.Rand) string {
			return strconv.FormatFloat(rng.NormFloat64()*50, 'g', 6, 64)
		}, 1, true},
		// Three distinct values: long cell chains.
		{"few-values", []float64{0, 1}, func(rng *rand.Rand) string { return strconv.Itoa(rng.Intn(3)) }, 0, false},
		{"specials", []float64{1, 2.5}, func(rng *rand.Rand) string {
			if rng.Intn(6) == 0 {
				odd := []string{"NaN", "Inf", "-Inf", "+Inf", "abc", "", "1e999", "-0", "0x10"}
				return odd[rng.Intn(len(odd))]
			}
			return ints(rng)
		}, 2, true},
		{"three-widths", []float64{0.5, 2, 7}, func(rng *rand.Rand) string {
			return strconv.FormatFloat(float64(rng.Intn(81)-40)/2, 'g', -1, 64)
		}, 2, true},
		// Cells on both sides of zero: -0.5 lies in cell ⌊-0.5/1+1/2⌋ = 0
		// and -0.6 in cell -1; at width 0.7, -0.3 in 0 and -0.4 in -1.
		{"cross-zero", []float64{1, 0.7}, tenths(300), 2, true},
		// At band 0, "-0", "0" and "0.0" are one value; so are the
		// denormals' neighbours of zero at the tiniest width.
		{"signed-zero", []float64{0, 5e-324}, func(rng *rand.Rand) string {
			// The denormals in hex: strconv parses decimal ones slowly.
			zs := []string{"-0", "0", "+0", "0.0", "-0.0", "1", "-1", "0x1p-1074", "-0x1p-1074", "0x1p-1073"}
			return zs[rng.Intn(len(zs))]
		}, 0, false},
		// A partner a hair beyond fv±band by exact arithmetic that
		// |a-fv| rounds into the band, in the next cell over: at band 2,
		// 0.9999999999999998 matches 3 (|a-3| rounds to 2) but lies in
		// cell 0 and 3-2 in cell 1. Only the window's widening finds it.
		{"edge-rounding", []float64{2, 0.4, 3}, func(rng *rand.Rand) string {
			vs := []string{"3", "0.9999999999999998", "1", "0.2", "-0.20000000000000004", "-0.2",
				"1.5", "-1.5000000000000002", "-1.5", "5", "5.000000000000001"}
			return vs[rng.Intn(len(vs))]
		}, 0, false},
		// |v|/band >= 2^52, up to, across and past the ±2^62 cell clamp
		// at band 1e-3 (and the int64 range, were cells not clamped): a
		// few ulps around each base.
		{"huge-ratio", []float64{1e-3, 1, 0}, func(rng *rand.Rand) string {
			bases := []float64{1e13, -3e14, 4.5e15, 0x1p62 * 1e-3, -0x1p63 * 1e-3, 0x1p53, -1e17, 5e18}
			v := bases[rng.Intn(len(bases))]
			for k := rng.Intn(9) - 4; k != 0; k -= sign(k) {
				v = math.Nextafter(v, math.Inf(sign(k)))
			}
			return strconv.FormatFloat(v, 'g', -1, 64)
		}, 2, true},
		// Equi-heavy: strings equal as floats but not as strings (the
		// width-0 band edge matches them, the equi edge must not),
		// non-numeric and empty strings, and enough distinct values to
		// grow the equi table several times.
		{"equi-strings", []float64{0, 1}, func(rng *rand.Rand) string {
			if rng.Intn(3) == 0 {
				odd := []string{"1", "01", "1.0", "+1", "1e0", "0x1p0", "-0", "0", "+0", "", "abc", "ABC", "abc ", "NaN"}
				return odd[rng.Intn(len(odd))]
			}
			return strconv.Itoa(rng.Intn(400))
		}, 2, true},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci)))
			// Leaf 0 is probed: through an equi edge from leaf 1 and a
			// band edge from each later leaf, in both orientations.
			tr := &JoinTree{
				Relations: make([]Relation, 2+len(tc.widths)),
				Edges:     []TreeEdge{{A: 1, B: 0, Kind: PredEqui}},
			}
			distinct := map[float64]bool{}
			for i, w := range tc.widths {
				e := TreeEdge{A: 0, B: 2 + i, Kind: PredBand, Band: w}
				if i%2 == 1 {
					e.A, e.B = e.B, e.A
				}
				tr.Edges = append(tr.Edges, e)
				distinct[w] = true
			}
			li := newLeafIndex(tr, 0)
			if len(li.grids) != len(distinct) {
				t.Fatalf("%d band grids for widths %v", len(li.grids), tc.widths)
			}
			// Fresh tables, not pooled ones, so growth starts from
			// the first size.
			for i, g := range li.grids {
				li.grids[i] = &bandGrid{width: g.width, inv: g.inv}
			}
			li.equi = &chainTable{}
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
					from := newLeafIndex(tr, e.A+e.B)
					probe := tc.gen(rng)
					buf = li.candidates(e, from, from.add(Tuple{JoinValue: probe}), buf[:0])
					got := append([]int32(nil), buf...)
					sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
					var want []int32
					for ord, a := range added {
						va, vb := probe, a.JoinValue
						if e.A == 0 {
							va, vb = vb, va
						}
						if e.Match(va, vb) {
							want = append(want, int32(ord))
						}
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("after %d adds, edge %d probe %q:\n got %v\nwant %v", len(added), ei, probe, got, want)
					}
					if fv := bandValue(probe); e.Kind == PredBand && !math.IsNaN(fv) {
						if n := len(li.grid(e.Band).window(fv)); n > maxProbeCells {
							t.Fatalf("probe %q at width %v visits %d cells", probe, e.Band, n)
						}
					}
				}
			}
			grew := 0
			for _, g := range li.grids {
				if g.used*4 > len(g.slots)*3 {
					t.Fatalf("width %v: %d cells in %d slots", g.width, g.used, len(g.slots))
				}
				if len(g.slots) >= 4*minGridSlots {
					grew++
				}
			}
			if grew < tc.grew {
				t.Fatalf("%d grids grew their table twice, want %d: the growth went untested", grew, tc.grew)
			}
			if eq := li.equi; eq.used*4 > len(eq.slots)*3 {
				t.Fatalf("equi table: %d cells in %d slots", eq.used, len(eq.slots))
			} else if tc.equiGrew && len(eq.slots) < 4*minGridSlots {
				t.Fatalf("equi table has %d slots: it did not grow twice, and the growth went untested", len(eq.slots))
			}
		})
	}
}

// FuzzLeafIndex decodes equi edges, band widths, join values and
// probes from the fuzz bytes and holds a leaf's candidates to a
// brute-force TreeEdge.Match scan of every tuple added so far. Values
// come as quarters near zero, as a neighbour of the last value (one
// width away, give or take a few ulps: the band's edge), as one of a
// few strings that are equal as floats but not as strings or are no
// number at all, or as raw float64 bits, NaN and infinities included.
// Each input ends by releasing the leaves, so later inputs probe equi
// tables and grids that came back from the pool.
func FuzzLeafIndex(f *testing.F) {
	f.Add([]byte{0, 2, 10, 20, 11, 120, 121, 30, 31})
	f.Add([]byte{2, 1, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 3, 60, 150, 151, 152, 61, 153, 155, 2, 30, 3, 30})
	f.Add([]byte{1, 7, 5, 210, 0x43, 0x30, 0, 0, 0, 0, 0, 0, 160, 161, 162, 163, 164, 165})
	f.Add([]byte{1, 3, 8, 0, 190, 0, 191, 0, 199, 1, 190, 1, 192, 0, 185, 1, 185, 1, 50})
	widths := []float64{0, 0.1, 0.5, 1, 2.5, 1e-9, 1e9, 5e-324, 1e-3}
	words := []string{"1", "01", "1.0", "+1", "1e0", "0x1p0", "-0", "0", "", "abc", "NaN", "Inf"}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		raw := func() float64 {
			var u uint64
			for i := 0; i < 8; i++ {
				u = u<<8 | uint64(next())
			}
			return math.Float64frombits(u)
		}
		tr := &JoinTree{Relations: make([]Relation, 4)}
		for i := 1 + int(next()%3); i > 0; i-- {
			e := TreeEdge{A: len(tr.Edges) + 1, B: 0, Kind: PredEqui}
			if sel := next(); sel%4 != 3 {
				e.Kind, e.Band = PredBand, widths[int(sel/4)%len(widths)]
				if next()%2 == 1 {
					if r := math.Abs(raw()); !math.IsNaN(r) && !math.IsInf(r, 0) {
						e.Band = r
					}
				}
			}
			tr.Edges = append(tr.Edges, e)
		}
		li := newLeafIndex(tr, 0)
		from := make([]*leafIndex, len(tr.Edges))
		for i := range from {
			from[i] = newLeafIndex(tr, i+1)
		}
		var added []string
		last := 0.0
		for len(data) > 0 {
			op, tag := next(), next()
			e := &tr.Edges[int(op>>1)%len(tr.Edges)]
			var s string
			v := math.NaN()
			if tag >= 180 && tag < 220 {
				s = words[int(tag)%len(words)]
			} else {
				switch {
				case tag < 90:
					v = float64(int(tag)-45) / 4
				case tag < 180:
					v = last + e.Band*float64(int(tag%3)-1)
					for k := int(tag/3%5) - 2; k != 0; k -= sign(k) {
						v = math.Nextafter(v, math.Inf(sign(k)))
					}
				default:
					v = raw()
				}
				// Extreme magnitudes in hex: strconv parses their
				// decimal forms slowly, and the oracle parses every
				// value per probe.
				format := byte('g')
				if a := math.Abs(v); a != 0 && (a < 1e-20 || a > 1e20) {
					format = 'x'
				}
				s = strconv.FormatFloat(v, format, -1, 64)
			}
			if op&1 == 0 {
				li.add(Tuple{JoinValue: s})
				added = append(added, s)
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					last = v
				}
				continue
			}
			fl := from[e.A-1]
			got := li.candidates(e, fl, fl.add(Tuple{JoinValue: s}), nil)
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			var want []int32
			for ord, a := range added {
				if e.Match(s, a) {
					want = append(want, int32(ord))
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s edge, width %v, probe %q over %q:\n got %v\nwant %v", e.Kind, e.Band, s, added, got, want)
			}
			if fv := bandValue(s); e.Kind == PredBand && !math.IsNaN(fv) {
				if n := len(li.grid(e.Band).window(fv)); n > 24 {
					t.Fatalf("width %v, probe %s visits %d cells", e.Band, s, n)
				}
			}
		}
		li.release()
		for _, fl := range from {
			fl.release()
		}
	})
}

// TestEquiChainKeepsCollidingValuesApart: join values whose hashes
// collide share one chain of the equi table, and a probe for any of
// them must still return exactly its own ordinals, latest first. The
// collision is made by hand: every ordinal is linked into one cell's
// chain, and each value's cell leads to that chain's latest arrival.
func TestEquiChainKeepsCollidingValuesApart(t *testing.T) {
	tr := stubBinary(Sum)
	li, from := newLeafIndex(tr, 1), newLeafIndex(tr, 0)
	vals := []string{"7", "x", "07", "x", "7", "", "7", "07", "x"}
	shared := &chainTable{}
	li.equi = nil // add fills the arena only; the chains come below
	want := map[string][]int32{}
	for _, v := range vals {
		ord := li.add(Tuple{RowKey: v, JoinValue: v})
		shared.link(0)
		want[v] = append([]int32{ord}, want[v]...)
	}
	latest := shared.slot(0).last
	for v := range want {
		c := equiCell(v)
		s := shared.slot(c)
		if s.last == 0 {
			shared.used++
		}
		*s = gridSlot{cell: c, last: latest}
	}
	li.equi = shared
	for v, w := range want {
		got := li.candidates(&tr.Edges[0], from, from.add(Tuple{JoinValue: v}), nil)
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("probe %q: got ordinals %v, want %v", v, got, w)
		}
	}
	if got := li.candidates(&tr.Edges[0], from, from.add(Tuple{JoinValue: "y"}), nil); len(got) != 0 {
		t.Errorf("probe %q, a value never added: got ordinals %v", "y", got)
	}
}

func sign(k int) int {
	if k < 0 {
		return -1
	}
	return 1
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
	c := newTestCluster(t)
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
	c := newTestCluster(t)
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
		c := newTestCluster(t)
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
	c := newTestCluster(t)
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
