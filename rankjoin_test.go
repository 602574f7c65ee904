package rankjoin

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/transport"
)

// mustOpen builds a fresh in-memory DB, failing the test on setup
// errors (disk-mode scratch dir creation).
func mustOpen(t testing.TB, cfg Config) *DB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func loadTwoRelations(t testing.TB, db *DB, n int) ([]Tuple, []Tuple) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	mk := func(prefix string) []Tuple {
		var out []Tuple
		for i := 0; i < n; i++ {
			out = append(out, Tuple{
				RowKey:    fmt.Sprintf("%s%04d", prefix, i),
				JoinValue: fmt.Sprintf("j%d", rng.Intn(30)),
				Score:     float64(rng.Intn(1000)) / 1000,
			})
		}
		return out
	}
	left, right := mk("l"), mk("r")
	lh, err := db.DefineRelation("left")
	if err != nil {
		t.Fatal(err)
	}
	rh, err := db.DefineRelation("right")
	if err != nil {
		t.Fatal(err)
	}
	if err := lh.BulkLoad(left); err != nil {
		t.Fatal(err)
	}
	if err := rh.BulkLoad(right); err != nil {
		t.Fatal(err)
	}
	return left, right
}

func refTopK(left, right []Tuple, f ScoreFunc, k int) []float64 {
	var scores []float64
	for _, lt := range left {
		for _, rt := range right {
			if lt.JoinValue == rt.JoinValue {
				scores = append(scores, f.Fn([]float64{lt.Score, rt.Score}))
			}
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	if len(scores) > k {
		scores = scores[:k]
	}
	return scores
}

func TestPublicAPIAllAlgorithmsAgree(t *testing.T) {
	db := mustOpen(t, Config{})
	left, right := loadTwoRelations(t, db, 200)
	q, err := db.NewQuery("left", "right", Sum, 15)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, Algorithms()...); err != nil {
		t.Fatal(err)
	}
	want := refTopK(left, right, Sum, 15)
	for _, algo := range append(Algorithms(), AlgoNaive) {
		res, err := db.TopK(q, algo, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Results) != len(want) {
			t.Fatalf("%s: %d results, want %d", algo, len(res.Results), len(want))
		}
		for i, r := range res.Results {
			if d := r.Score - want[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("%s: score[%d] = %f, want %f", algo, i, r.Score, want[i])
			}
		}
		if res.Cost.KVReads == 0 && algo != AlgoNaive {
			t.Errorf("%s: zero KV reads reported", algo)
		}
	}
}

func TestPublicAPIWithK(t *testing.T) {
	db := mustOpen(t, Config{})
	left, right := loadTwoRelations(t, db, 150)
	q, err := db.NewQuery("left", "right", Product, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoISL, AlgoBFHM); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 25} {
		qk := q.WithK(k)
		if qk.K() != k {
			t.Fatalf("WithK(%d).K() = %d", k, qk.K())
		}
		want := refTopK(left, right, Product, k)
		for _, algo := range []Algorithm{AlgoISL, AlgoBFHM} {
			res, err := db.TopK(qk, algo, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Results) != len(want) {
				t.Fatalf("%s k=%d: %d results, want %d", algo, k, len(res.Results), len(want))
			}
		}
	}
}

func TestPublicAPIOnlineUpdates(t *testing.T) {
	db := mustOpen(t, Config{})
	left, right := loadTwoRelations(t, db, 100)
	q, err := db.NewQuery("left", "right", Sum, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoIJLMR, AlgoISL, AlgoBFHM); err != nil {
		t.Fatal(err)
	}
	// A new top pair must appear in every index-based algorithm.
	lh, rh := db.Relation("left"), db.Relation("right")
	if lh == nil || rh == nil {
		t.Fatal("relations lost")
	}
	if err := lh.Insert("lHOT", "hotkey", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := rh.Insert("rHOT", "hotkey", 1.0); err != nil {
		t.Fatal(err)
	}
	left = append(left, Tuple{RowKey: "lHOT", JoinValue: "hotkey", Score: 1.0})
	right = append(right, Tuple{RowKey: "rHOT", JoinValue: "hotkey", Score: 1.0})
	want := refTopK(left, right, Sum, 5)
	if want[0] != 2.0 {
		t.Fatal("setup broken")
	}
	for _, algo := range []Algorithm{AlgoIJLMR, AlgoISL, AlgoBFHM} {
		res, err := db.TopK(q, algo, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Results[0].Score != 2.0 {
			t.Fatalf("%s: top score %f after insert, want 2.0", algo, res.Results[0].Score)
		}
	}
	// Delete the pair; it must vanish everywhere.
	if err := lh.Delete("lHOT", "hotkey", 1.0); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoIJLMR, AlgoISL, AlgoBFHM} {
		res, err := db.TopK(q, algo, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Results[0].Score == 2.0 {
			t.Fatalf("%s: deleted pair still ranked first", algo)
		}
	}
	// Offline write-back must report reconstructed buckets.
	if n, err := lh.WriteBackBFHM(); err != nil || n == 0 {
		t.Fatalf("WriteBackBFHM = %d, %v", n, err)
	}
}

func TestPublicAPIErrors(t *testing.T) {
	db := mustOpen(t, Config{})
	if _, err := db.NewQuery("none", "none", Sum, 5); err == nil {
		t.Error("undefined relation accepted")
	}
	if _, err := db.DefineRelation(""); err == nil {
		t.Error("empty relation name accepted")
	}
	if _, err := db.DefineRelation("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineRelation("dup"); err == nil {
		t.Error("duplicate relation accepted")
	}
	if _, err := db.DefineRelation("other"); err != nil {
		t.Fatal(err)
	}
	q, err := db.NewQuery("dup", "other", Sum, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.TopK(q, AlgoBFHM, nil); err == nil {
		t.Error("query without index accepted")
	}
	if _, err := db.TopK(q, Algorithm("bogus"), nil); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if err := db.EnsureIndexes(q, Algorithm("bogus")); err == nil {
		t.Error("bogus algorithm index accepted")
	}
	if names := db.RelationNames(); len(names) != 2 || names[0] != "dup" {
		t.Errorf("RelationNames = %v", names)
	}
}

// TestNewQueryRejectsSelfJoin: every constructor is the same builder, so
// the two-way form rejects a relation listed twice exactly as the tree
// and star forms do (index families are named after relations; ijlmr
// used to answer such a query with an empty result).
func TestNewQueryRejectsSelfJoin(t *testing.T) {
	db := mustOpen(t, Config{})
	d := openLoopbackCluster(t, 1)
	for _, define := range []func(string) error{
		func(n string) error { _, err := db.DefineRelation(n); return err },
		func(n string) error { _, err := d.DefineRelation(n); return err },
	} {
		if err := define("a"); err != nil {
			t.Fatal(err)
		}
	}
	for name, newQuery := range map[string]func(l, r string, f ScoreFunc, k int) (Query, error){
		"DB": db.NewQuery, "Distributed": d.NewQuery,
	} {
		_, err := newQuery("a", "a", Sum, 3)
		if err == nil || !strings.Contains(err.Error(), "listed twice") {
			t.Errorf("%s.NewQuery(a, a): err = %v, want the listed-twice error", name, err)
		}
	}
	_, treeErr := db.NewTreeQuery([]string{"a", "a"}, []TreeEdge{{A: 0, B: 1}}, Sum, 3)
	_, pairErr := db.NewQuery("a", "a", Sum, 3)
	if treeErr == nil || pairErr == nil || treeErr.Error() != pairErr.Error() {
		t.Errorf("NewTreeQuery: %v; NewQuery: %v; want the same error", treeErr, pairErr)
	}
}

// TestScoreNamesAgreeAcrossEntryPoints: one function maps a score name
// to an aggregate, so a JSON tree spec and a node request naming a
// two-way join (Left/Right) or a band tree accept exactly the same
// non-empty names. An unknown name is a plain error from ParseTreeSpec
// (no shape diagnostic) and a typed bad request on a node.
func TestScoreNamesAgreeAcrossEntryPoints(t *testing.T) {
	db := mustOpen(t, Config{})
	for _, name := range []string{"a", "b"} {
		if _, err := db.DefineRelation(name); err != nil {
			t.Fatal(err)
		}
	}
	node := NewNodeService("n", db)
	pairReq := transport.QueryRequest{Left: "a", Right: "b"}
	pair := pairReq.Shape()
	tree := transport.TreeData{Relations: []string{"a", "b"}, Edges: []TreeEdge{{A: 0, B: 1, Kind: PredBand, Band: 1}}}
	for _, name := range []string{"sum", "product", "Sum", "PRODUCT", "max", "theta", " sum"} {
		_, specErr := ParseTreeSpec([]byte(fmt.Sprintf(`{"relations":["a","b"],"score":%q}`, name)))
		_, pairErr := node.queryFromWire(pair, name, 5)
		_, treeErr := node.queryFromWire(tree, name, 5)
		if (specErr == nil) != (pairErr == nil) || (specErr == nil) != (treeErr == nil) {
			t.Errorf("score %q: ParseTreeSpec err %v, two-way wire err %v, tree wire err %v; want all or none",
				name, specErr, pairErr, treeErr)
		}
		if specErr == nil {
			continue
		}
		var se *ShapeError
		if errors.As(specErr, &se) {
			t.Errorf("score %q: ParseTreeSpec reports a shape error: %v", name, specErr)
		}
		for _, err := range []error{pairErr, treeErr} {
			var te *transport.Error
			if !errors.As(err, &te) || te.Kind != transport.KindBadRequest {
				t.Errorf("score %q: node error %v, want transport.KindBadRequest", name, err)
			}
		}
	}
	// The empty name is TreeSpec's default, applied before the lookup;
	// the wire always carries a name.
	if spec, err := ParseTreeSpec([]byte(`{"relations":["a","b"]}`)); err != nil {
		t.Errorf("empty score name: %v", err)
	} else if q, err := db.NewTreeQueryFromSpec(spec); err != nil || q.ID() != "a_b_sum" {
		t.Errorf("empty score name built %q, %v; want a_b_sum", q.ID(), err)
	}
	if _, err := node.queryFromWire(pair, "", 5); err == nil {
		t.Error("node accepted an empty score name")
	}
}

func TestIndexDiskSizes(t *testing.T) {
	db := mustOpen(t, Config{})
	loadTwoRelations(t, db, 300)
	// The DRJN matrix is data-independent (buckets x partitions); size
	// it for the test's tiny data volume the way the paper sizes it for
	// billions of rows (where 500 buckets = 8.5 MB vs 85 GB ISL lists).
	db.SetIndexConfig(IndexConfig{DRJNBuckets: 20, DRJNJoinParts: 8})
	q, err := db.NewQuery("left", "right", Sum, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoIJLMR, AlgoISL, AlgoBFHM, AlgoDRJN); err != nil {
		t.Fatal(err)
	}
	sizes := map[Algorithm]uint64{}
	for _, algo := range []Algorithm{AlgoIJLMR, AlgoISL, AlgoBFHM, AlgoDRJN} {
		sizes[algo] = db.IndexDiskSize(q, algo)
		if sizes[algo] == 0 {
			t.Errorf("%s index size = 0", algo)
		}
	}
	// Section 7.2: DRJN's histogram is far smaller than the full
	// inverted lists; BFHM (with reverse mappings) is the largest.
	if !(sizes[AlgoDRJN] < sizes[AlgoISL]) {
		t.Errorf("DRJN (%d) should be smaller than ISL (%d)", sizes[AlgoDRJN], sizes[AlgoISL])
	}
	if !(sizes[AlgoBFHM] > sizes[AlgoISL]) {
		t.Errorf("BFHM (%d) should exceed ISL (%d) — it adds reverse mappings", sizes[AlgoBFHM], sizes[AlgoISL])
	}
	if db.IndexDiskSize(q, AlgoHive) != 0 {
		t.Error("index-free algorithm reported a size")
	}
}

func TestEnsureIndexesIdempotent(t *testing.T) {
	db := mustOpen(t, Config{})
	loadTwoRelations(t, db, 100)
	q, _ := db.NewQuery("left", "right", Sum, 5)
	if err := db.EnsureIndexes(q, AlgoISL, AlgoBFHM); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics().Snapshot()
	if err := db.EnsureIndexes(q, AlgoISL, AlgoBFHM); err != nil {
		t.Fatal(err)
	}
	delta := db.Metrics().Snapshot().Sub(before)
	if delta.KVWrites != 0 {
		t.Errorf("second EnsureIndexes rebuilt indexes (%d writes)", delta.KVWrites)
	}
}

// TestBulkBuildsEndSealed checks where bulk builds leave their cells.
// In memory mode BulkLoad and every index EnsureIndexes builds end in
// sorted runs, while an online write stays in the memtable through a
// repeated EnsureIndexes that builds nothing. In disk mode nothing is
// sealed: the cells wait for the flush threshold.
func TestBulkBuildsEndSealed(t *testing.T) {
	db := mustOpen(t, Config{})
	defer db.Close()
	loadTwoRelations(t, db, 200)
	c := db.Cluster()
	memCells := func(table string) int {
		regions, err := c.TableRegions(table)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range regions {
			n += r.MemtableCells()
		}
		return n
	}
	base := c.TableNames()
	q, err := db.NewQuery("left", "right", Sum, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, Algorithms()...); err != nil {
		t.Fatal(err)
	}
	var indexes []string
	for _, name := range c.TableNames() {
		if !slices.Contains(base, name) {
			indexes = append(indexes, name)
		}
	}
	if len(indexes) != 7 {
		t.Fatalf("index tables %v, want IJLMR for the pair, ISL, BFHM and DRJN for each relation", indexes)
	}
	sealed := !c.DiskBacked()
	for _, name := range append(slices.Clone(base), indexes...) {
		if n := memCells(name); (n == 0) != sealed {
			t.Errorf("table %q holds %d memtable cells after its bulk build (memory mode: %v)", name, n, sealed)
		}
	}

	if err := db.Relation("left").Insert("lNEW", "j1", 0.999); err != nil {
		t.Fatal(err)
	}
	written := map[string]int{}
	for _, name := range c.TableNames() {
		written[name] = memCells(name)
	}
	for _, name := range indexes {
		if strings.HasSuffix(name, "_left") || strings.HasSuffix(name, "_left_right_sum") {
			if written[name] == 0 {
				t.Errorf("table %q: the insert's maintenance write is not in the memtable", name)
			}
		}
	}
	if err := db.EnsureIndexes(q, Algorithms()...); err != nil {
		t.Fatal(err)
	}
	for name, n := range written {
		if got := memCells(name); got != n {
			t.Errorf("table %q: a no-op EnsureIndexes moved its memtable cells %d -> %d", name, n, got)
		}
	}
}
