package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/sim"
)

// dispatchShape is one join shape the executor-table test runs every
// row against.
type dispatchShape struct {
	name string
	t    *JoinTree
}

// dispatchShapes loads three relations with numeric join values and
// builds a two-leaf equi tree, a three-leaf star and a three-leaf band
// chain over them.
func dispatchShapes(t *testing.T, c *kvstore.Cluster) []dispatchShape {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	rels := make([]Relation, 3)
	for i := range rels {
		tuples := make([]Tuple, 40)
		for j := range tuples {
			tuples[j] = Tuple{
				RowKey:    fmt.Sprintf("d%d_%02d", i, j),
				JoinValue: strconv.Itoa(rng.Intn(8)),
				Score:     rng.Float64(),
			}
		}
		rels[i] = loadRelation(t, c, fmt.Sprintf("D%d", i), tuples)
	}
	chain := &JoinTree{
		Relations: rels,
		Edges:     []TreeEdge{{A: 0, B: 1, Kind: PredBand, Band: 1}, {A: 1, B: 2, Kind: PredBand, Band: 2}},
		Score:     Sum,
		K:         3,
	}
	return []dispatchShape{
		{"two-leaf", binaryTree(rels[0], rels[1], Sum, 3)},
		{"star", starTree(rels, Sum, 3)},
		{"band-chain", chain},
	}
}

// TestExecutorTableDispatch runs every row of the executor table against
// each dispatch shape through the one dispatch point. On a supported
// shape, Open before EnsureIndex fails, at no cost, with the one
// missing-index error naming the row's index family; after EnsureIndex,
// Open's first result is NaiveTreeTopK's. On an unsupported shape,
// EnsureIndex and Open return the shape error at no cost, and the row
// reports no index and no index bytes.
func TestExecutorTableDispatch(t *testing.T) {
	c := newTestCluster()
	store := NewIndexStore()
	cfg := IndexBuildConfig{BFHMBuckets: 8, DRJNBuckets: 8, DRJNJoinParts: 16}
	opts := ExecOptions{ISLBatch: 5}
	for _, sh := range dispatchShapes(t, c) {
		naive, err := NaiveTreeTopK(c, sh.t)
		if err != nil {
			t.Fatalf("%s: naive: %v", sh.name, err)
		}
		if len(naive.Results) == 0 {
			t.Fatalf("%s: the fixture joins nothing", sh.name)
		}
		for _, ex := range Executors() {
			label := ex.Name() + "/" + sh.name
			lane := sim.NewLane(c.Metrics())
			lc := c.WithMetrics(lane)
			if !ex.Supports(sh.t) {
				want := unsupportedShape(ex.Name(), sh.t).Error()
				errEnsure := ex.EnsureIndex(lc, sh.t, store, cfg)
				_, errOpen := ex.Open(lc, sh.t, store, opts)
				for _, err := range []error{errEnsure, errOpen} {
					if err == nil || err.Error() != want {
						t.Errorf("%s: err = %v, want %q", label, err, want)
					}
				}
				if ex.HasIndex(sh.t, store) || ex.IndexSize(c, sh.t, store) != 0 {
					t.Errorf("%s: an unsupported shape reports an index", label)
				}
				if cost := lane.Snapshot(); cost != (sim.Snapshot{}) {
					t.Errorf("%s: refusing the shape cost %+v", label, cost)
				}
				continue
			}
			if ex.index != nil {
				want := fmt.Sprintf("rankjoin: no %s index for %s; call EnsureIndexes first", ex.index.name(), sh.t.ID())
				if _, err := ex.Open(lc, sh.t, NewIndexStore(), opts); err == nil || err.Error() != want {
					t.Errorf("%s: Open before EnsureIndex: err = %v, want %q", label, err, want)
				}
				if cost := lane.Snapshot(); cost != (sim.Snapshot{}) {
					t.Errorf("%s: the missing-index error cost %+v", label, cost)
				}
			}
			if err := ex.EnsureIndex(c, sh.t, store, cfg); err != nil {
				t.Fatalf("%s: EnsureIndex: %v", label, err)
			}
			if !ex.HasIndex(sh.t, store) || (ex.index != nil) != (ex.IndexSize(c, sh.t, store) > 0) {
				t.Errorf("%s: HasIndex %v, IndexSize %d after EnsureIndex", label,
					ex.HasIndex(sh.t, store), ex.IndexSize(c, sh.t, store))
			}
			cur, err := ex.Open(c, sh.t, store, opts)
			if err != nil {
				t.Fatalf("%s: Open: %v", label, err)
			}
			r, err := cur.Next()
			if err != nil || r == nil {
				t.Fatalf("%s: first result %v, %v", label, r, err)
			}
			cur.Close()
			assertTreeResultsByteMatch(t, label, []JoinResult{*r}, naive.Results[:1])
		}
	}
}
