package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTopKListOrderingAndTrim(t *testing.T) {
	top := NewTopKList(3)
	add := func(score float64, l, r string) bool {
		return top.Add(JoinResult{
			Left:  Tuple{RowKey: l},
			Right: Tuple{RowKey: r},
			Score: score,
		})
	}
	if top.Full() {
		t.Fatal("empty list reports full")
	}
	if !math.IsInf(top.KthScore(), -1) {
		t.Fatal("KthScore of non-full list must be -Inf")
	}
	if !add(0.5, "a", "x") || !add(0.9, "b", "y") || !add(0.1, "c", "z") {
		t.Fatal("adds into non-full list must succeed")
	}
	if !top.Full() {
		t.Fatal("list should be full")
	}
	if top.KthScore() != 0.1 {
		t.Fatalf("KthScore = %g", top.KthScore())
	}
	if add(0.05, "d", "w") {
		t.Fatal("below-k add accepted")
	}
	if !add(0.7, "e", "v") {
		t.Fatal("above-k add rejected")
	}
	rs := top.Results()
	if len(rs) != 3 || rs[0].Score != 0.9 || rs[1].Score != 0.7 || rs[2].Score != 0.5 {
		t.Fatalf("results = %v", scoresOf(rs))
	}
}

func TestTopKListDeterministicTies(t *testing.T) {
	a := NewTopKList(2)
	b := NewTopKList(2)
	r1 := JoinResult{Left: Tuple{RowKey: "a"}, Right: Tuple{RowKey: "x"}, Score: 0.5}
	r2 := JoinResult{Left: Tuple{RowKey: "b"}, Right: Tuple{RowKey: "y"}, Score: 0.5}
	r3 := JoinResult{Left: Tuple{RowKey: "c"}, Right: Tuple{RowKey: "z"}, Score: 0.5}
	a.Add(r1)
	a.Add(r2)
	a.Add(r3)
	b.Add(r3)
	b.Add(r2)
	b.Add(r1)
	ra, rb := a.Results(), b.Results()
	for i := range ra {
		if ra[i].Left.RowKey != rb[i].Left.RowKey {
			t.Fatalf("tie-break not insertion-order independent: %v vs %v", ra, rb)
		}
	}
	// Ties keep the lexicographically smallest row keys.
	if ra[0].Left.RowKey != "a" || ra[1].Left.RowKey != "b" {
		t.Fatalf("tie order = %s, %s", ra[0].Left.RowKey, ra[1].Left.RowKey)
	}
}

func TestTupleCodecRoundTrip(t *testing.T) {
	f := func(rowKey, joinValue string, score float64) bool {
		if math.IsNaN(score) {
			return true
		}
		in := Tuple{RowKey: rowKey, JoinValue: joinValue, Score: score}
		out, err := DecodeTuple(EncodeTuple(in))
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if _, err := DecodeTuple([]byte{1, 2}); err == nil {
		t.Error("truncated tuple accepted")
	}
}

func TestJoinResultCodecRoundTrip(t *testing.T) {
	in := JoinResult{
		Left:  Tuple{RowKey: "l1", JoinValue: "j", Score: 0.25},
		Right: Tuple{RowKey: "r1", JoinValue: "j", Score: 0.75},
		Score: 1.0,
	}
	out, err := DecodeJoinResult(EncodeJoinResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Left != in.Left || out.Right != in.Right || out.Score != in.Score || len(out.Rest) != 0 {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	buf := EncodeJoinResult(in)
	for _, cut := range []int{0, 3, 10, len(buf) - 1} {
		if _, err := DecodeJoinResult(buf[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestQueryValidate(t *testing.T) {
	rel := func(name string) Relation {
		return Relation{Name: name, Table: "t_" + name, Family: "d", JoinQual: "j", ScoreQual: "s"}
	}
	q := binaryTree(rel("l"), rel("r"), Sum, 5)
	if err := q.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := withK(q, 0).Validate(); err == nil {
		t.Error("k=0 accepted")
	}
	if err := binaryTree(rel("l"), rel("r"), ScoreFunc{}, 5).Validate(); err == nil {
		t.Error("nil score fn accepted")
	}
	noTable := rel("r")
	noTable.Table = ""
	if err := binaryTree(rel("l"), noTable, Sum, 5).Validate(); err == nil {
		t.Error("empty table accepted")
	}
	if q.ID() != "l_r_sum" {
		t.Errorf("ID = %q", q.ID())
	}
}

func TestScoreFuncs(t *testing.T) {
	if Sum.Fn([]float64{0.3, 0.4}) != 0.7 {
		t.Error("Sum broken")
	}
	if Product.Fn([]float64{0.5, 0.5}) != 0.25 {
		t.Error("Product broken")
	}
	// Monotonicity spot checks (required by the rank-join framework).
	for _, f := range []ScoreFunc{Sum, Product} {
		at := func(a, b float64) float64 { return f.Fn([]float64{a, b}) }
		if at(0.5, 0.5) > at(0.6, 0.5) || at(0.5, 0.5) > at(0.5, 0.6) {
			t.Errorf("%s not monotone", f.Name)
		}
		if got, ok := ScoreByName(f.Name); !ok || got.Name != f.Name {
			t.Errorf("ScoreByName(%q) = %q, %v", f.Name, got.Name, ok)
		}
	}
	for _, name := range []string{"", "Sum", "max"} {
		if _, ok := ScoreByName(name); ok {
			t.Errorf("ScoreByName(%q) resolved", name)
		}
	}
}

// TestPairScoreNoAllocations pins what lets the two-way executors use
// the n-ary aggregate: evaluating it on two scores allocates nothing,
// and gives exactly a+b and a*b.
func TestPairScoreNoAllocations(t *testing.T) {
	for _, tc := range []struct {
		f    ScoreFunc
		want func(a, b float64) float64
	}{
		{Sum, func(a, b float64) float64 { return a + b }},
		{Product, func(a, b float64) float64 { return a * b }},
	} {
		score := tc.f.pair()
		var got float64
		if n := testing.AllocsPerRun(1000, func() { got = score.of(0.1, 0.7) }); n != 0 {
			t.Errorf("%s: %v allocations per two-score evaluation, want 0", tc.f.Name, n)
		}
		if want := tc.want(0.1, 0.7); got != want {
			t.Errorf("%s(0.1, 0.7) = %v, want exactly %v", tc.f.Name, got, want)
		}
	}
}

func TestMergeTopK(t *testing.T) {
	var values [][]byte
	for i := 0; i < 10; i++ {
		values = append(values, EncodeJoinResult(JoinResult{
			Left:  Tuple{RowKey: string(rune('a' + i))},
			Right: Tuple{RowKey: "x"},
			Score: float64(i) / 10,
		}))
	}
	top, err := mergeTopK(3, values)
	if err != nil {
		t.Fatal(err)
	}
	got := scoresOf(top.Results())
	want := []float64{0.9, 0.8, 0.7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v", got)
		}
	}
	if _, err := mergeTopK(3, [][]byte{{1}}); err == nil {
		t.Error("corrupt value accepted")
	}
}
