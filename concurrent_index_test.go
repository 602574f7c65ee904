package rankjoin

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentEnsureIndexesAndSetIndexConfig races index builds
// against config writes — the db.idxCfg read used to happen outside
// db.mu and trip the race detector. Run with -race (CI does).
func TestConcurrentEnsureIndexesAndSetIndexConfig(t *testing.T) {
	db := mustOpen(t, Config{})
	loadTwoRelations(t, db, 120)
	q, err := db.NewQuery("left", "right", Sum, 5)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			db.SetIndexConfig(IndexConfig{BFHMBuckets: 50 + i, DRJNBuckets: 50 + i})
		}(i)
		go func() {
			defer wg.Done()
			if err := db.EnsureIndexes(q, AlgoBFHM, AlgoDRJN, AlgoISL, AlgoIJLMR); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if _, err := db.TopK(q, AlgoBFHM, nil); err != nil {
		t.Fatalf("BFHM after concurrent builds: %v", err)
	}
}

// TestConcurrentEnsureIndexesBFHMWidths drives many concurrent
// EnsureIndexes calls over relation pairs sharing one relation. Without
// single-flight build serialization, two racing builders could each see
// "no index", auto-size filters independently, and persist BFHM pairs
// with mismatched widths — which QueryBFHM rejects. With the build
// scopes, every relation ends up with one index and one shared width.
func TestConcurrentEnsureIndexesBFHMWidths(t *testing.T) {
	db := mustOpen(t, Config{})
	names := []string{"shared", "ra", "rb", "rc"}
	for _, n := range names {
		h, err := db.DefineRelation(n)
		if err != nil {
			t.Fatal(err)
		}
		var tuples []Tuple
		for i := 0; i < 150; i++ {
			tuples = append(tuples, Tuple{
				RowKey:    fmt.Sprintf("%s%04d", n, i),
				JoinValue: fmt.Sprintf("j%d", i%25),
				Score:     float64(i%150) / 150,
			})
		}
		if err := h.BulkLoad(tuples); err != nil {
			t.Fatal(err)
		}
	}
	// Three queries all joining against "shared": their BFHM builds
	// must agree on the filter width.
	var queries []Query
	for _, n := range []string{"ra", "rb", "rc"} {
		q, err := db.NewQuery("shared", n, Sum, 5)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}

	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q Query) {
				defer wg.Done()
				if err := db.EnsureIndexes(q, AlgoBFHM); err != nil {
					t.Error(err)
				}
			}(q)
		}
	}
	wg.Wait()

	var width uint64
	for _, n := range names {
		idx, ok := db.store.BFHM.Get(n)
		if !ok {
			t.Fatalf("relation %s has no BFHM index after concurrent builds", n)
		}
		if width == 0 {
			width = idx.MBits
		}
		if idx.MBits != width {
			t.Fatalf("relation %s built with filter width %d, want shared width %d", n, idx.MBits, width)
		}
	}
	// The widths must actually interoperate.
	for _, q := range queries {
		if _, err := db.TopK(q, AlgoBFHM, nil); err != nil {
			t.Fatalf("BFHM query after concurrent builds: %v", err)
		}
	}
}
