// Cold-start recovery at the public API: a durable DB reopened from its
// directory must be indistinguishable from the one that wrote it — same
// relations, same index descriptors (no rebuild), same top-k results on
// every executor, and a write path that keeps maintaining every index.
package rankjoin

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/sim"
)

// TestColdStartFreshnessOracle runs a randomized workload on a durable
// DB, closes it, reopens the directory, and requires all eight
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
	// eight executors must see immediately.
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

// TestCloseClosesParkedCursors: streams parked behind page tokens — an
// ISL page whose scanners bill as read-ahead, and an any-k page — are
// closed by DB.Close before the store they read is, and their tokens
// forgotten.
func TestCloseClosesParkedCursors(t *testing.T) {
	db, err := OpenAt(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	loadTwoRelations(t, db, 300)
	q, err := db.NewQuery("left", "right", Sum, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoISL, AlgoAnyK); err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		algo Algorithm
		opts *QueryOptions
	}{{AlgoISL, &QueryOptions{Parallelism: 2}}, {AlgoAnyK, nil}} {
		res, err := db.TopK(q, p.algo, p.opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.NextPageToken == "" {
			t.Fatalf("%s: no page parked", p.algo)
		}
	}
	db.cursors.mu.Lock()
	var parked []*Rows
	for _, rows := range db.cursors.entries.All() {
		parked = append(parked, rows)
	}
	db.cursors.mu.Unlock()
	if len(parked) != 2 {
		t.Fatalf("%d streams parked, want 2", len(parked))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db.cursors.mu.Lock()
	left := db.cursors.entries.Len()
	db.cursors.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d cursor-cache entries survive Close", left)
	}
	for _, rows := range parked {
		if !rows.closed {
			t.Errorf("%s: parked stream still open after Close", rows.algo)
		}
	}
}

// TestOpenAtValidation covers the config edge: OpenAt without a
// directory is an error, not a silent fall-back to a memory DB.
func TestOpenAtValidation(t *testing.T) {
	if _, err := OpenAt(Config{}); err == nil {
		t.Fatal("OpenAt with empty Dir accepted")
	}
}

// TestCatalogPersistsMultiwayIndexes checks the n-way path: the inverse
// score lists of a three-leaf tree, and of a pair that shares two of
// them, built before close, serve the same rows after reopen without
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
	// Two trees share y and z's lists: a Sum star under isl and a
	// Product pair under anyk.
	trees := func(db *DB) (star, pair Query) {
		star, err := db.NewTreeQuery([]string{"x", "y", "z"}, starEdges(3), Sum, 5)
		if err != nil {
			t.Fatal(err)
		}
		pair, err = db.NewQuery("z", "y", Product, 5)
		if err != nil {
			t.Fatal(err)
		}
		return star, pair
	}
	star, pair := trees(db)
	if err := db.EnsureIndexes(star, AlgoISL); err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(pair, AlgoAnyK); err != nil {
		t.Fatal(err)
	}
	wantStar, err := db.TopK(star, AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPair, err := db.TopK(pair, AlgoAnyK, nil)
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
	star2, pair2 := trees(db2)
	// No EnsureIndexes: the recovered catalog answers.
	gotStar, err := db2.TopK(star2, AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "recovered n-way top-k", gotStar.Results, wantStar.Results)
	gotPair, err := db2.TopK(pair2, AlgoAnyK, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "recovered pair sharing the star's lists", gotPair.Results, wantPair.Results)
}

// TestOpenAtRefusesOtherCatalogVersions: a catalog of any format version
// but 2 fails OpenAt with a FormatVersionError naming the catalog and
// that version, and no DB. The cases are the catalogs written before
// the two inverse-score-list index types merged — two-way indexes as
// {Table, LeftFamily, RightFamily} under "ISL" in isl_<id>, n-way ones
// under "ISLN" in isln_<leaves>_<aggregate>, or both for the same
// leaves — version 1, whose lists are keyed by a tree's leaves and
// aggregate, one table isl_<leaves>_<aggregate> with a family per
// leaf, a current-shape catalog without its Version, and a version-3
// one. The refused store is left as it was: the same tables, the
// legacy ones included, and the same catalog.
func TestOpenAtRefusesOtherCatalogVersions(t *testing.T) {
	const (
		islEntry  = `"ISL":{"left_right_sum":{"Table":"isl_left_right_sum","LeftFamily":"left","RightFamily":"right"}}`
		islnEntry = `"ISLN":{"left_right_sum":{"Table":"isln_left_right_sum","Families":["left","right"]}}`
		v1Entry   = `"Version":1,"ISL":{"left_right_sum":{"Table":"isl_left_right_sum","Families":["left","right"]}}`
	)
	// current renders the catalog this build saves for an isl index over
	// left and right, with its Version replaced (nil: removed).
	current := func(t *testing.T, db *DB, version any) string {
		q, err := db.NewQuery("left", "right", Sum, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.EnsureIndexes(q, AlgoISL); err != nil {
			t.Fatal(err)
		}
		var cat map[string]any
		if err := json.Unmarshal([]byte(db.cluster.Meta(catalogMetaKey)), &cat); err != nil {
			t.Fatal(err)
		}
		if cat["Version"] != float64(catalogVersion) {
			t.Fatalf("saved catalog has Version %v, want %d", cat["Version"], catalogVersion)
		}
		delete(cat, "Version")
		if version != nil {
			cat["Version"] = version
		}
		raw, err := json.Marshal(cat)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	legacy := func(entries string) func(*testing.T, *DB) string {
		return func(*testing.T, *DB) string { return `{"Relations":["left","right"],` + entries + `}` }
	}
	for _, tc := range []struct {
		name    string
		tables  []string // legacy index tables the old store holds
		catalog func(*testing.T, *DB) string
		version uint32
	}{
		{"ISL only", []string{"isl_left_right_sum"}, legacy(islEntry), 0},
		{"ISLN only", []string{"isln_left_right_sum"}, legacy(islnEntry), 0},
		{"both", []string{"isl_left_right_sum", "isln_left_right_sum"}, legacy(islEntry + "," + islnEntry), 0},
		{"version 1", []string{"isl_left_right_sum"}, legacy(v1Entry), 1},
		{"unversioned", nil, func(t *testing.T, db *DB) string { return current(t, db, nil) }, 0},
		{"version 3", nil, func(t *testing.T, db *DB) string { return current(t, db, 3) }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			old, err := OpenAt(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			loadTwoRelations(t, old, 120)
			for _, table := range tc.tables {
				if _, err := old.cluster.CreateTable(table, []string{"left", "right"}, nil); err != nil {
					t.Fatal(err)
				}
				for _, rel := range []string{"left", "right"} {
					cell := kvstore.Cell{Row: kvstore.EncodeScoreDesc(0.5), Family: rel, Qualifier: rel + "0", Value: []byte("j0")}
					if err := old.cluster.Put(table, cell); err != nil {
						t.Fatal(err)
					}
				}
			}
			catalog := tc.catalog(t, old)
			if err := old.cluster.SetMeta(catalogMetaKey, catalog); err != nil {
				t.Fatal(err)
			}
			tables := old.cluster.TableNames()
			if err := old.Close(); err != nil {
				t.Fatal(err)
			}

			db, err := OpenAt(Config{Dir: dir})
			var fve *FormatVersionError
			if !errors.As(err, &fve) || db != nil {
				t.Fatalf("OpenAt = %v, %v; want no DB and a FormatVersionError", db, err)
			}
			if want := (FormatVersionError{Path: "catalog", Version: tc.version, Supported: 2}); *fve != want {
				t.Errorf("error %+v, want %+v", *fve, want)
			}

			c, err := kvstore.OpenCluster(sim.LC(), dir)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got := c.TableNames(); !slices.Equal(got, tables) {
				t.Errorf("tables after the refused open %v, want %v", got, tables)
			}
			if got := c.Meta(catalogMetaKey); got != catalog {
				t.Errorf("catalog after the refused open %s, want %s", got, catalog)
			}
		})
	}
}
