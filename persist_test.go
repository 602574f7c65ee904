// Cold-start recovery at the public API: a durable DB reopened from its
// directory must be indistinguishable from the one that wrote it — same
// relations, same index descriptors (no rebuild), same top-k results on
// every executor, and a write path that keeps maintaining every index.
package rankjoin

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestColdStartFreshnessOracle runs a randomized workload on a durable
// DB, closes it, reopens the directory, and requires all seven
// executors to match the in-memory oracle — with NO EnsureIndexes call
// after reopen, so a recovered catalog (not a rebuild) is what answers.
func TestColdStartFreshnessOracle(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenAt(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.SetIndexConfig(IndexConfig{DRJNBuckets: 12, DRJNJoinParts: 16, BFHMBuckets: 10})
	left, right := loadTwoRelations(t, db, 120)
	q, err := db.NewQuery("left", "right", Sum, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, Algorithms()...); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(4077))
	lh, rh := db.Relation("left"), db.Relation("right")
	sides := []struct {
		h      *RelationHandle
		tuples *[]Tuple
		prefix string
	}{{lh, &left, "l"}, {rh, &right, "r"}}
	for op := 0; op < 40; op++ {
		s := sides[rng.Intn(2)]
		switch {
		case rng.Intn(3) == 0 && len(*s.tuples) > 1: // delete
			i := rng.Intn(len(*s.tuples))
			tp := (*s.tuples)[i]
			if err := s.h.Delete(tp.RowKey, tp.JoinValue, tp.Score); err != nil {
				t.Fatal(err)
			}
			*s.tuples = append((*s.tuples)[:i], (*s.tuples)[i+1:]...)
		default: // insert or overwrite
			tp := Tuple{
				RowKey:    fmt.Sprintf("%sn%04d", s.prefix, op),
				JoinValue: fmt.Sprintf("j%d", rng.Intn(30)),
				Score:     float64(rng.Intn(1000)) / 1000,
			}
			if err := s.h.Insert(tp.RowKey, tp.JoinValue, tp.Score); err != nil {
				t.Fatal(err)
			}
			*s.tuples = append(*s.tuples, tp)
		}
	}
	assertTopKFresh(t, db, q, left, right, Sum, "pre-close")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenAt(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.RelationNames(); len(got) != 2 || got[0] != "left" || got[1] != "right" {
		t.Fatalf("recovered relations %v, want [left right]", got)
	}
	q2, err := db2.NewQuery("left", "right", Sum, 10)
	if err != nil {
		t.Fatal(err)
	}
	// No EnsureIndexes here: the recovered catalog must be enough.
	assertTopKFresh(t, db2, q2, left, right, Sum, "recovered")

	// The recovered maintainer must keep every index fresh: a
	// score-1.0 insert on both sides creates a new top pair that all
	// seven executors must see immediately.
	if err := db2.Relation("left").Insert("lHOT", "hotjoin", 1.0); err != nil {
		t.Fatal(err)
	}
	left = append(left, Tuple{RowKey: "lHOT", JoinValue: "hotjoin", Score: 1.0})
	if err := db2.Relation("right").Insert("rHOT", "hotjoin", 0.99); err != nil {
		t.Fatal(err)
	}
	right = append(right, Tuple{RowKey: "rHOT", JoinValue: "hotjoin", Score: 0.99})
	assertTopKFresh(t, db2, q2, left, right, Sum, "post-recovery write")
}

// TestOpenAtValidation covers the config edge: OpenAt without a
// directory is an error, not a silent fall-back to a memory DB.
func TestOpenAtValidation(t *testing.T) {
	if _, err := OpenAt(Config{}); err == nil {
		t.Fatal("OpenAt with empty Dir accepted")
	}
}

// TestCatalogPersistsMultiwayIndexes checks the n-way path: an ISLN
// index built before close serves n-way queries after reopen without
// another EnsureIndexes.
func TestCatalogPersistsMultiwayIndexes(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenAt(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, name := range []string{"x", "y", "z"} {
		h, err := db.DefineRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		var tuples []Tuple
		for i := 0; i < 60; i++ {
			tuples = append(tuples, Tuple{
				RowKey:    fmt.Sprintf("%s%04d", name, i),
				JoinValue: fmt.Sprintf("j%d", rng.Intn(12)),
				Score:     float64(rng.Intn(1000)) / 1000,
			})
		}
		if err := h.BulkLoad(tuples); err != nil {
			t.Fatal(err)
		}
	}
	mq, err := db.NewMultiQuery([]string{"x", "y", "z"}, SumN, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(mq, AlgoISL); err != nil {
		t.Fatal(err)
	}
	want, err := db.TopK(mq, AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenAt(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	mq2, err := db2.NewMultiQuery([]string{"x", "y", "z"}, SumN, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.TopK(mq2, AlgoISL, nil) // no EnsureIndexes
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("recovered n-way top-k has %d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i].Score != want.Results[i].Score {
			t.Fatalf("result %d: score %v, want %v", i, got.Results[i].Score, want.Results[i].Score)
		}
	}
}
