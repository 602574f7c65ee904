package rankjoin

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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

// TestConcurrentSharedListBuilds races EnsureIndexes for two band
// chains that share c1 and c2. Inverse score lists are per relation, so
// the chains' builds meet on those two lists: each must be built once,
// by whichever build gets there first, and the other must find it
// rather than fail creating a table that already exists. Both chains
// then match naive. Run with -race (CI does).
func TestConcurrentSharedListBuilds(t *testing.T) {
	db := mustOpen(t, Config{})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("c%d", i)
		h, err := db.DefineRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		var tuples []Tuple
		for j := 0; j < 80; j++ {
			tuples = append(tuples, Tuple{
				RowKey:    fmt.Sprintf("%s_%03d", name, j),
				JoinValue: fmt.Sprint(rng.Intn(40)),
				Score:     float64(rng.Intn(1000)) / 1000,
			})
		}
		if err := h.BulkLoad(tuples); err != nil {
			t.Fatal(err)
		}
	}
	chain := func(names ...string) Query {
		var edges []TreeEdge
		for i := 1; i < len(names); i++ {
			edges = append(edges, TreeEdge{A: i - 1, B: i, Kind: PredBand, Band: 1})
		}
		q, err := db.NewTreeQuery(names, edges, Sum, 10)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	chains := []Query{chain("c0", "c1", "c2"), chain("c1", "c2", "c3", "c4")}

	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, q := range chains {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := db.EnsureIndexes(q, AlgoAnyK); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()

	var lists []string
	for _, name := range db.Cluster().TableNames() {
		if strings.HasPrefix(name, "isl_") {
			lists = append(lists, name)
		}
	}
	if want := []string{"isl_c0", "isl_c1", "isl_c2", "isl_c3", "isl_c4"}; !slices.Equal(lists, want) {
		t.Fatalf("list tables %v, want %v", lists, want)
	}
	for i, q := range chains {
		want, err := db.TopK(q, AlgoNaive, nil)
		if err != nil || len(want.Results) == 0 {
			t.Fatalf("chain %d: naive returned %v, %v", i, want, err)
		}
		got, err := db.TopK(q, AlgoAnyK, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("chain %d", i), got.Results, want.Results)
	}
}
