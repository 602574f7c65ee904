// Freshness under live writes: every executor must see online inserts,
// updates, and deletes immediately — no index rebuilds, no write-backs —
// because the write path maintains every registered index synchronously
// (Section 6 as a write-through pipeline).
package rankjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// everyExecutor is every registered strategy, the planner mode excluded.
func everyExecutor() []Algorithm {
	return append(Algorithms(), AlgoNaive)
}

func assertTopKFresh(t *testing.T, db *DB, q Query, left, right []Tuple, f ScoreFunc, label string) {
	t.Helper()
	assertTopKFreshOn(t, db, q, everyExecutor(), left, right, f, label)
}

func assertTopKFreshOn(t *testing.T, db *DB, q Query, algos []Algorithm, left, right []Tuple, f ScoreFunc, label string) {
	t.Helper()
	want := refTopK(left, right, f, q.K())
	for _, algo := range algos {
		res := topKLeavesStore(t, db, q, algo, nil, label)
		if len(res.Results) != len(want) {
			t.Fatalf("%s/%s: %d results, want %d", label, algo, len(res.Results), len(want))
		}
		for i, r := range res.Results {
			if d := r.Score - want[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("%s/%s: score[%d] = %v, want %v", label, algo, i, r.Score, want[i])
			}
		}
	}
}

// scratchWriters are the executors whose reads bill KV writes: Hive and
// Pig materialize MapReduce stages and DRJN the tuples it pulls above its
// band floors, each in scratch tables the query creates and drops (the
// paper's cost model).
var scratchWriters = map[Algorithm]bool{AlgoHive: true, AlgoPig: true, AlgoDRJN: true}

// topKLeavesStore runs one TopK and requires that it left the store as it
// found it: the same tables, and every table's mutation sequence where it
// was. Both are free introspection, billing nothing. An executor outside
// scratchWriters must also bill no KV write at all.
func topKLeavesStore(t *testing.T, db *DB, q Query, algo Algorithm, opts *QueryOptions, label string) *Result {
	t.Helper()
	c := db.Cluster()
	seqs := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, name := range c.TableNames() {
			st, err := c.TableStats(name)
			if err != nil {
				t.Fatalf("%s/%s: %v", label, algo, err)
			}
			out[name] = st.MutSeq
		}
		return out
	}
	before := seqs()
	res, err := db.TopK(q, algo, opts)
	if err != nil {
		t.Fatalf("%s/%s: %v", label, algo, err)
	}
	if after := seqs(); !reflect.DeepEqual(after, before) {
		t.Fatalf("%s/%s: a read moved the store: tables and mutation sequences %v before, %v after", label, algo, before, after)
	}
	if w := res.Cost.KVWrites; w != 0 && !scratchWriters[algo] {
		t.Fatalf("%s/%s: a read billed %d KV writes", label, algo, w)
	}
	return res
}

// TestMaintainAllIndexesAcrossQueries is the regression for the
// last-match-wins maintainer bug: a relation participating in TWO
// queries has two ISL and two IJLMR index tables, and a write must
// maintain both — the old assembly kept only whichever index the store
// walk visited last, leaving the other query's results stale.
func TestMaintainAllIndexesAcrossQueries(t *testing.T) {
	db := mustOpen(t, Config{})
	rng := rand.New(rand.NewSource(41))
	rels := map[string][]Tuple{"a": nil, "b": nil, "c": nil}
	handles := map[string]*RelationHandle{}
	for _, name := range []string{"a", "b", "c"} {
		h, err := db.DefineRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		handles[name] = h
		var tuples []Tuple
		for i := 0; i < 120; i++ {
			tuples = append(tuples, Tuple{
				RowKey:    fmt.Sprintf("%s%04d", name, i),
				JoinValue: fmt.Sprintf("j%d", rng.Intn(25)),
				Score:     float64(rng.Intn(1000)) / 1000,
			})
		}
		if err := h.BulkLoad(tuples); err != nil {
			t.Fatal(err)
		}
		rels[name] = tuples
	}
	q1, err := db.NewQuery("a", "b", Sum, 8)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := db.NewQuery("a", "c", Sum, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{q1, q2} {
		if err := db.EnsureIndexes(q, AlgoIJLMR, AlgoISL); err != nil {
			t.Fatal(err)
		}
	}

	// One write to "a" must reach q1's AND q2's inverse lists.
	if err := handles["a"].Insert("aHOT", "hotjoin", 1.0); err != nil {
		t.Fatal(err)
	}
	rels["a"] = append(rels["a"], Tuple{RowKey: "aHOT", JoinValue: "hotjoin", Score: 1.0})
	if err := handles["b"].Insert("bHOT", "hotjoin", 0.99); err != nil {
		t.Fatal(err)
	}
	rels["b"] = append(rels["b"], Tuple{RowKey: "bHOT", JoinValue: "hotjoin", Score: 0.99})
	if err := handles["c"].Insert("cHOT", "hotjoin", 0.98); err != nil {
		t.Fatal(err)
	}
	rels["c"] = append(rels["c"], Tuple{RowKey: "cHOT", JoinValue: "hotjoin", Score: 0.98})

	for _, tc := range []struct {
		q           Query
		left, right []Tuple
		label       string
		topScore    float64
	}{
		{q1, rels["a"], rels["b"], "q1", 1.99},
		{q2, rels["a"], rels["c"], "q2", 1.98},
	} {
		want := refTopK(tc.left, tc.right, Sum, tc.q.K())
		if want[0] != tc.topScore {
			t.Fatalf("%s setup broken: oracle top %v", tc.label, want[0])
		}
		for _, algo := range []Algorithm{AlgoIJLMR, AlgoISL} {
			res, err := db.TopK(tc.q, algo, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.label, algo, err)
			}
			if res.Results[0].Score != tc.topScore {
				t.Fatalf("%s/%s: top score %v after insert, want %v (index not maintained)",
					tc.label, algo, res.Results[0].Score, tc.topScore)
			}
		}
	}
}

// TestReinsertChangedScoreNoPhantoms is the regression for the stale
// inverse-score-list entry: inserting over an existing row key with a
// changed score used to leave the old EncodeScoreDesc(oldScore) entry
// live, so the tuple ranked at BOTH scores. Insert now upserts (and
// Update exists for the explicit form), retiring old entries under the
// same timestamp.
func TestReinsertChangedScoreNoPhantoms(t *testing.T) {
	db := mustOpen(t, Config{})
	db.SetIndexConfig(IndexConfig{DRJNBuckets: 10, DRJNJoinParts: 16})
	left, right := loadTwoRelations(t, db, 120)
	q, err := db.NewQuery("left", "right", Sum, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, Algorithms()...); err != nil {
		t.Fatal(err)
	}
	lh := db.Relation("left")

	// Plant a pair at the very top...
	if err := lh.Insert("lPH", "phantom", 0.999); err != nil {
		t.Fatal(err)
	}
	rh := db.Relation("right")
	if err := rh.Insert("rPH", "phantom", 0.999); err != nil {
		t.Fatal(err)
	}
	right = append(right, Tuple{RowKey: "rPH", JoinValue: "phantom", Score: 0.999})

	// ...then re-insert the left side demoted to the bottom. The old
	// 0.999 entry must be gone: if it survives, the pair still ranks
	// first as a phantom.
	if err := lh.Insert("lPH", "phantom", 0.001); err != nil {
		t.Fatal(err)
	}
	left = append(left, Tuple{RowKey: "lPH", JoinValue: "phantom", Score: 0.001})
	assertTopKFresh(t, db, q, left, right, Sum, "reinsert")

	// The explicit Update spelling behaves identically.
	if err := lh.Update("lPH", "phantom2", 0.5); err != nil {
		t.Fatal(err)
	}
	left[len(left)-1] = Tuple{RowKey: "lPH", JoinValue: "phantom2", Score: 0.5}
	assertTopKFresh(t, db, q, left, right, Sum, "update")

	// Updating a missing row is an error; Get reports absence.
	if err := lh.Update("lMISSING", "x", 0.5); err == nil {
		t.Error("Update of a missing row accepted")
	}
	if _, ok, err := lh.Get("lMISSING"); err != nil || ok {
		t.Errorf("Get(lMISSING) = ok=%v err=%v", ok, err)
	}
}

// TestFreshnessOracle is the acceptance oracle: after a randomized
// sequence of online inserts, deletes, updates, and re-inserts, TopK via
// every executor — DRJN included, with NO manual rebuild — must equal a
// from-scratch computation over the live tuples.
func TestFreshnessOracle(t *testing.T) {
	db := mustOpen(t, Config{})
	db.SetIndexConfig(IndexConfig{DRJNBuckets: 12, DRJNJoinParts: 16, BFHMBuckets: 10})
	left, right := loadTwoRelations(t, db, 150)
	q, err := db.NewQuery("left", "right", Sum, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, Algorithms()...); err != nil {
		t.Fatal(err)
	}
	lh, rh := db.Relation("left"), db.Relation("right")

	rng := rand.New(rand.NewSource(2026))
	sides := []struct {
		h      *RelationHandle
		tuples *[]Tuple
		prefix string
	}{{lh, &left, "l"}, {rh, &right, "r"}}
	newKey := 10_000
	for op := 0; op < 80; op++ {
		s := sides[rng.Intn(2)]
		switch k := rng.Intn(10); {
		case k < 4: // insert a fresh key
			tp := Tuple{
				RowKey:    fmt.Sprintf("%s%05d", s.prefix, newKey),
				JoinValue: fmt.Sprintf("j%d", rng.Intn(30)),
				Score:     float64(rng.Intn(1000)) / 1000,
			}
			newKey++
			if err := s.h.Insert(tp.RowKey, tp.JoinValue, tp.Score); err != nil {
				t.Fatal(err)
			}
			*s.tuples = append(*s.tuples, tp)
		case k < 6: // blind re-insert of a live key with new score/join
			i := rng.Intn(len(*s.tuples))
			tp := Tuple{
				RowKey:    (*s.tuples)[i].RowKey,
				JoinValue: fmt.Sprintf("j%d", rng.Intn(30)),
				Score:     float64(rng.Intn(1000)) / 1000,
			}
			if err := s.h.Insert(tp.RowKey, tp.JoinValue, tp.Score); err != nil {
				t.Fatal(err)
			}
			(*s.tuples)[i] = tp
		case k < 8: // explicit update
			i := rng.Intn(len(*s.tuples))
			tp := Tuple{
				RowKey:    (*s.tuples)[i].RowKey,
				JoinValue: (*s.tuples)[i].JoinValue,
				Score:     float64(rng.Intn(1000)) / 1000,
			}
			if err := s.h.Update(tp.RowKey, tp.JoinValue, tp.Score); err != nil {
				t.Fatal(err)
			}
			(*s.tuples)[i] = tp
		default: // delete
			i := rng.Intn(len(*s.tuples))
			tp := (*s.tuples)[i]
			if rng.Intn(2) == 0 {
				err = s.h.Delete(tp.RowKey, tp.JoinValue, tp.Score)
			} else {
				err = s.h.DeleteKey(tp.RowKey)
			}
			if err != nil {
				t.Fatal(err)
			}
			*s.tuples = append((*s.tuples)[:i], (*s.tuples)[i+1:]...)
		}
		// BFHM is checked after every write: its indexes answer from the
		// buckets they decoded for the previous check, so each check reads
		// warm filters beside one freshly written bucket row.
		assertTopKFreshOn(t, db, q, []Algorithm{AlgoBFHM}, left, right, Sum, fmt.Sprintf("op%d", op))
		// Interleave a spot check so divergence is caught near its op,
		// not only at the end.
		if op%27 == 26 {
			assertTopKFresh(t, db, q, left, right, Sum, fmt.Sprintf("op%d", op))
		}
	}
	assertTopKFresh(t, db, q, left, right, Sum, "final")
}

// TestWriteVisibleImmediately is the CI freshness smoke: a write
// followed by an immediate query must be seen by all eight executors.
func TestWriteVisibleImmediately(t *testing.T) {
	db := mustOpen(t, Config{})
	db.SetIndexConfig(IndexConfig{DRJNBuckets: 10, DRJNJoinParts: 16})
	_, _ = loadTwoRelations(t, db, 100)
	q, err := db.NewQuery("left", "right", Sum, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, Algorithms()...); err != nil {
		t.Fatal(err)
	}
	if err := db.Relation("left").Insert("lFRESH", "freshjoin", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := db.Relation("right").Insert("rFRESH", "freshjoin", 1.0); err != nil {
		t.Fatal(err)
	}
	for _, algo := range everyExecutor() {
		res, err := db.TopK(q, algo, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Results) == 0 || res.Results[0].Score != 2.0 {
			t.Fatalf("%s: write not visible (top = %+v)", algo, res.Results)
		}
	}
}

// TestBatchedMaintenanceFewerWriteRPCs asserts the group-write economy:
// the maintenance pipeline must issue measurably fewer write RPCs than
// the per-cell puts it replaced (which paid one round trip per written
// cell — KVWrites counts exactly those cells).
func TestBatchedMaintenanceFewerWriteRPCs(t *testing.T) {
	db := mustOpen(t, Config{})
	db.SetIndexConfig(IndexConfig{DRJNBuckets: 10, DRJNJoinParts: 16})
	_, _ = loadTwoRelations(t, db, 100)
	q, err := db.NewQuery("left", "right", Sum, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, Algorithms()...); err != nil {
		t.Fatal(err)
	}
	lh := db.Relation("left")

	// Single maintained upsert: one existence read + one group write.
	before := db.Metrics().Snapshot()
	if err := lh.Insert("lone", "j1", 0.5); err != nil {
		t.Fatal(err)
	}
	d := db.Metrics().Snapshot().Sub(before)
	if d.KVWrites < 6 {
		t.Fatalf("maintained insert wrote %d cells, want >= 6 (base x2, ijlmr, isl, bfhm x2, drjn)", d.KVWrites)
	}
	if d.RPCCalls > 2 {
		t.Errorf("maintained insert cost %d RPCs, want <= 2 (read + one group write); per-cell puts would cost %d",
			d.RPCCalls, d.KVWrites)
	}

	// Batch load with maintenance: one group write per chunk.
	var batch []Tuple
	for i := 0; i < 100; i++ {
		batch = append(batch, Tuple{
			RowKey:    fmt.Sprintf("lbatch%04d", i),
			JoinValue: fmt.Sprintf("j%d", i%30),
			Score:     float64(i%1000) / 1000,
		})
	}
	before = db.Metrics().Snapshot()
	if err := lh.BatchInsert(batch); err != nil {
		t.Fatal(err)
	}
	d = db.Metrics().Snapshot().Sub(before)
	if d.RPCCalls != 1 {
		t.Errorf("BatchInsert(100) cost %d RPCs, want 1", d.RPCCalls)
	}
	if d.KVWrites < 600 {
		t.Errorf("BatchInsert(100) wrote %d cells, want >= 600", d.KVWrites)
	}
	if d.RPCCalls*10 >= d.KVWrites {
		t.Errorf("batched path not measurably cheaper: %d RPCs for %d cells", d.RPCCalls, d.KVWrites)
	}
}

// TestMultiwayISLMaintained: the inverse lists of a three-leaf tree are
// part of "every index built over the relation" — a write must reach
// them too, or an n-way TopK silently serves stale results.
func TestMultiwayISLMaintained(t *testing.T) {
	db := mustOpen(t, Config{})
	rng := rand.New(rand.NewSource(53))
	handles := map[string]*RelationHandle{}
	for _, name := range []string{"ma", "mb", "mc"} {
		h, err := db.DefineRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		handles[name] = h
		var tuples []Tuple
		for i := 0; i < 80; i++ {
			tuples = append(tuples, Tuple{
				RowKey:    fmt.Sprintf("%s%04d", name, i),
				JoinValue: fmt.Sprintf("j%d", rng.Intn(15)),
				Score:     float64(rng.Intn(900)) / 1000, // < 0.9: planted pairs rank first
			})
		}
		if err := h.BulkLoad(tuples); err != nil {
			t.Fatal(err)
		}
	}
	mq, err := db.NewTreeQuery([]string{"ma", "mb", "mc"}, starEdges(3), Sum, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(mq, AlgoISL); err != nil {
		t.Fatal(err)
	}

	// Plant a fresh 3-way top pair: every side written AFTER the index
	// build, visible only if the inverse lists are maintained.
	for _, name := range []string{"ma", "mb", "mc"} {
		if err := handles[name].Insert(name+"HOT", "hot3", 1.0); err != nil {
			t.Fatal(err)
		}
	}
	for _, algo := range []Algorithm{AlgoISL, AlgoNaive} {
		res, err := db.TopK(mq, algo, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Results) == 0 || res.Results[0].Score != 3.0 {
			t.Fatalf("%s: planted 3-way pair not visible (top = %+v)", algo, res.Results)
		}
	}

	// Demote one side: the old-score list entry must be retired, or the
	// pair keeps ranking first as a phantom.
	if err := handles["ma"].Update("maHOT", "hot3", 0.0); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoISL, AlgoNaive} {
		res, err := db.TopK(mq, algo, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Results) > 0 && res.Results[0].Score >= 2.9 {
			t.Fatalf("%s: demoted 3-way pair still ranks first (%+v)", algo, res.Results[0])
		}
	}

	// Delete another side: the join must disappear entirely.
	if err := handles["mb"].DeleteKey("mbHOT"); err != nil {
		t.Fatal(err)
	}
	res, err := db.TopK(mq, AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Results {
		for _, tp := range append([]Tuple{r.Left, r.Right}, r.Rest...) {
			if tp.RowKey == "mbHOT" {
				t.Fatalf("deleted mbHOT still joined: %+v", r)
			}
		}
	}
}

// TestOneInverseScoreListIndex: every tree over a relation reads the
// same inverse score list. A Sum pair under isl and anyk, a Product pair
// under isl and a band pair under anyk, all over left and right, build
// one list table per relation, all report the same size, a write to left
// maintains its one list with one cell (two base cells + one list cell
// = 3 KV writes), and every tree sees that write.
func TestOneInverseScoreListIndex(t *testing.T) {
	db := mustOpen(t, Config{})
	loadTwoRelations(t, db, 120)
	sum, err := db.NewQuery("left", "right", Sum, 5)
	if err != nil {
		t.Fatal(err)
	}
	product, err := db.NewQuery("left", "right", Product, 5)
	if err != nil {
		t.Fatal(err)
	}
	band, err := db.NewTreeQuery([]string{"left", "right"}, []TreeEdge{{A: 0, B: 1, Kind: PredBand, Band: 0.5}}, Sum, 5)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name string
		q    Query
		algo Algorithm
	}
	runs := []run{
		{"sum/isl", sum, AlgoISL}, {"sum/anyk", sum, AlgoAnyK},
		{"product/isl", product, AlgoISL}, {"band/anyk", band, AlgoAnyK},
	}
	for _, r := range runs {
		if err := db.EnsureIndexes(r.q, r.algo); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
	var indexTables []string
	for _, name := range db.Cluster().TableNames() {
		if !strings.HasPrefix(name, "rel_") {
			indexTables = append(indexTables, name)
		}
	}
	if want := []string{"isl_left", "isl_right"}; !slices.Equal(indexTables, want) {
		t.Fatalf("index tables %v, want exactly %v", indexTables, want)
	}
	size := db.IndexDiskSize(sum, AlgoISL)
	for _, r := range runs {
		if got := db.IndexDiskSize(r.q, r.algo); size == 0 || got != size {
			t.Errorf("%s: IndexDiskSize %d, want %d and non-zero", r.name, got, size)
		}
	}

	// The planted pair joins on a numeric value, so the band tree
	// matches it too; the other tuples' values ("j<n>") match no band.
	before := db.Metrics().Snapshot()
	if err := db.Relation("left").Insert("lHOT", "7", 1.0); err != nil {
		t.Fatal(err)
	}
	if w := db.Metrics().Snapshot().Sub(before).KVWrites; w != 3 {
		t.Errorf("one Insert billed %d KV writes, want 3", w)
	}
	if err := db.Relation("right").Insert("rHOT", "7", 1.0); err != nil {
		t.Fatal(err)
	}
	for _, r := range append(runs, run{"sum/naive", sum, AlgoNaive}, run{"band/naive", band, AlgoNaive}) {
		res, err := db.TopK(r.q, r.algo, nil)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(res.Results) == 0 || res.Results[0].Left.RowKey != "lHOT" || res.Results[0].Right.RowKey != "rHOT" {
			t.Errorf("%s: planted pair not first: %+v", r.name, res.Results)
		}
	}
}
