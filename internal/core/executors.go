package core

import (
	"fmt"

	"repro/internal/kvstore"
)

// The paper's seven algorithms plus the any-k tree executor as registry
// executors. This file is the single dispatch surface: one Executor
// implementation per strategy. Every executor consumes the JoinTree
// form; the two-way-only strategies accept its two-leaf all-equi shape
// (requireBinary) and read the two relations as leaves 0 and 1. isl and
// anyk share one rank-join operator, one list cursor and one index
// (anyk.go, isl.go); the batch-shaped strategies stream through the
// materializing adapter (materialize).

func init() {
	Register(naiveExec{})
	Register(hiveExec{})
	Register(pigExec{})
	Register(ijlmrExec{})
	Register(islExec{})
	Register(bfhmExec{})
	Register(drjnExec{})
	Register(anykExec{})
}

// tableSize returns a table's stored bytes, 0 when it does not exist.
func tableSize(c *kvstore.Cluster, table string) uint64 {
	sz, _ := c.TableDiskSize(table)
	return sz
}

// unsupportedShape is the dispatch error for a hand-picked executor
// that cannot run the tree's shape.
func unsupportedShape(name string, t *JoinTree) error {
	return fmt.Errorf("rankjoin: algorithm %q does not support join shape %s (try %s or %s)",
		name, t.ID(), "naive", "anyk")
}

// isBinary reports the two-leaf all-equi shape, the paper's two-way
// rank join.
func isBinary(t *JoinTree) bool {
	return len(t.Relations) == 2 && t.AllEqui()
}

// requireBinary validates t for a two-way-only strategy: any shape but
// the two-leaf all-equi one fails with a shape diagnostic.
func requireBinary(name string, t *JoinTree) error {
	if !isBinary(t) {
		return unsupportedShape(name, t)
	}
	return t.Validate()
}

// withK returns a copy of t with a different result target (the depth
// of one materializing run).
func withK(t *JoinTree, k int) *JoinTree {
	tt := *t
	tt.K = k
	return &tt
}

// materialize adapts a batch-shaped top-k function to Open's streaming
// contract: the cursor materializes the top t.K, then re-runs at
// doubled depths when drained deeper. The budget wrap makes Next
// enforce the query's deadline/read cap between results; the budget
// also fires inside run itself via the cluster guard, since a
// materializing executor does nearly all its work there.
func materialize(t *JoinTree, b *Budget, run func(k int) (*Result, error)) (Cursor, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return WrapBudget(NewMaterializedCursor(t.K, run), b), nil
}

// ---- Naive ----

type naiveExec struct{}

func (naiveExec) Name() string            { return "naive" }
func (naiveExec) Supports(*JoinTree) bool { return true }
func (naiveExec) EnsureIndex(*kvstore.Cluster, *JoinTree, *IndexStore, IndexBuildConfig) error {
	return nil
}
func (naiveExec) HasIndex(*JoinTree, *IndexStore) bool                      { return true }
func (naiveExec) IndexSize(*kvstore.Cluster, *JoinTree, *IndexStore) uint64 { return 0 }
func (naiveExec) Estimate(st *PlanStats) CostEstimate                       { return estimateNaive(st) }
func (naiveExec) Incremental() bool                                         { return false }
func (naiveExec) Open(c *kvstore.Cluster, t *JoinTree, _ *IndexStore, opts ExecOptions) (Cursor, error) {
	return materialize(t, opts.Budget, func(k int) (*Result, error) {
		if isBinary(t) {
			return NaiveTopK(c, withK(t, k))
		}
		return NaiveTreeTopK(c, withK(t, k))
	})
}

// ---- Hive ----

type hiveExec struct{}

func (hiveExec) Name() string              { return "hive" }
func (hiveExec) Supports(t *JoinTree) bool { return isBinary(t) }
func (hiveExec) EnsureIndex(_ *kvstore.Cluster, t *JoinTree, _ *IndexStore, _ IndexBuildConfig) error {
	if !isBinary(t) {
		return unsupportedShape("hive", t)
	}
	return nil
}
func (hiveExec) HasIndex(t *JoinTree, _ *IndexStore) bool                  { return isBinary(t) }
func (hiveExec) IndexSize(*kvstore.Cluster, *JoinTree, *IndexStore) uint64 { return 0 }
func (hiveExec) Estimate(st *PlanStats) CostEstimate                       { return estimateHive(st) }
func (hiveExec) Incremental() bool                                         { return false }
func (hiveExec) Open(c *kvstore.Cluster, t *JoinTree, _ *IndexStore, opts ExecOptions) (Cursor, error) {
	if err := requireBinary("hive", t); err != nil {
		return nil, err
	}
	return materialize(t, opts.Budget, func(k int) (*Result, error) {
		return QueryHive(c, withK(t, k))
	})
}

// ---- Pig ----

type pigExec struct{}

func (pigExec) Name() string              { return "pig" }
func (pigExec) Supports(t *JoinTree) bool { return isBinary(t) }
func (pigExec) EnsureIndex(_ *kvstore.Cluster, t *JoinTree, _ *IndexStore, _ IndexBuildConfig) error {
	if !isBinary(t) {
		return unsupportedShape("pig", t)
	}
	return nil
}
func (pigExec) HasIndex(t *JoinTree, _ *IndexStore) bool                  { return isBinary(t) }
func (pigExec) IndexSize(*kvstore.Cluster, *JoinTree, *IndexStore) uint64 { return 0 }
func (pigExec) Estimate(st *PlanStats) CostEstimate                       { return estimatePig(st) }
func (pigExec) Incremental() bool                                         { return false }
func (pigExec) Open(c *kvstore.Cluster, t *JoinTree, _ *IndexStore, opts ExecOptions) (Cursor, error) {
	if err := requireBinary("pig", t); err != nil {
		return nil, err
	}
	return materialize(t, opts.Budget, func(k int) (*Result, error) {
		return QueryPig(c, withK(t, k))
	})
}

// ---- IJLMR ----

type ijlmrExec struct{}

func (ijlmrExec) Name() string              { return "ijlmr" }
func (ijlmrExec) Supports(t *JoinTree) bool { return isBinary(t) }

func (ijlmrExec) EnsureIndex(c *kvstore.Cluster, t *JoinTree, store *IndexStore, _ IndexBuildConfig) error {
	if err := requireBinary("ijlmr", t); err != nil {
		return err
	}
	lock := store.BuildScope("ijlmr/" + t.ID())
	lock.Lock()
	defer lock.Unlock()
	if _, ok := store.IJLMR(t.ID()); ok {
		return nil
	}
	idx, _, err := BuildIJLMR(c, t)
	if err != nil {
		return err
	}
	store.PutIJLMR(t.ID(), idx)
	return nil
}

func (ijlmrExec) HasIndex(t *JoinTree, store *IndexStore) bool {
	if !isBinary(t) {
		return false
	}
	_, ok := store.IJLMR(t.ID())
	return ok
}

func (ijlmrExec) IndexSize(c *kvstore.Cluster, t *JoinTree, store *IndexStore) uint64 {
	if !isBinary(t) {
		return 0
	}
	idx, ok := store.IJLMR(t.ID())
	if !ok {
		return 0
	}
	return tableSize(c, idx.Table)
}

func (ijlmrExec) Estimate(st *PlanStats) CostEstimate { return estimateIJLMR(st) }
func (ijlmrExec) Incremental() bool                   { return false }

func (ijlmrExec) Open(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (Cursor, error) {
	if err := requireBinary("ijlmr", t); err != nil {
		return nil, err
	}
	idx, ok := store.IJLMR(t.ID())
	if !ok {
		return nil, fmt.Errorf("rankjoin: no IJLMR index for %s; call EnsureIndexes first", t.ID())
	}
	return materialize(t, opts.Budget, func(k int) (*Result, error) {
		return QueryIJLMR(c, withK(t, k), idx)
	})
}

// ---- ISL ----

// islExec is the paper's ISL coordinator (Section 4.2.3) on all-equi
// trees of any leaf count (any connected all-equi tree is semantically
// a star), over the same inverse-score-list index the anyk executor
// reads. Band-predicate trees are out of scope — use any-k.
type islExec struct{}

func (islExec) Name() string              { return "isl" }
func (islExec) Supports(t *JoinTree) bool { return t.AllEqui() }

func (islExec) EnsureIndex(c *kvstore.Cluster, t *JoinTree, store *IndexStore, _ IndexBuildConfig) error {
	if !t.AllEqui() {
		return unsupportedShape("isl", t)
	}
	return EnsureISL(c, t, store)
}

func (islExec) HasIndex(t *JoinTree, store *IndexStore) bool {
	_, ok := store.ISL(t.LeafID())
	return ok && t.AllEqui()
}

func (islExec) IndexSize(c *kvstore.Cluster, t *JoinTree, store *IndexStore) uint64 {
	if !t.AllEqui() {
		return 0
	}
	return islIndexSize(c, t, store)
}

func (islExec) Estimate(st *PlanStats) CostEstimate { return estimateLists(st) }
func (islExec) Incremental() bool                   { return true }

func (islExec) Open(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (Cursor, error) {
	if !t.AllEqui() {
		return nil, unsupportedShape("isl", t)
	}
	// ISL reads the list that bounds the threshold (HRJN*), not in turns.
	return openLists(c, t, store, "ISL", opts, false)
}

// ---- BFHM ----

type bfhmExec struct{}

func (bfhmExec) Name() string              { return "bfhm" }
func (bfhmExec) Supports(t *JoinTree) bool { return isBinary(t) }

// EnsureIndex builds both relations' BFHM indexes with a shared filter
// width (intersection requires equal widths; the first build auto-sizes
// from its heaviest bucket, the second inherits). All BFHM builds
// serialize on one family-wide scope: concurrent EnsureIndex calls for
// overlapping relation pairs would otherwise race the width handshake
// and persist filters that can never be intersected.
func (bfhmExec) EnsureIndex(c *kvstore.Cluster, t *JoinTree, store *IndexStore, cfg IndexBuildConfig) error {
	if err := requireBinary("bfhm", t); err != nil {
		return err
	}
	cfg = cfg.WithDefaults()
	lock := store.BuildScope("bfhm")
	lock.Lock()
	defer lock.Unlock()
	var shared uint64
	if idx, ok := store.BFHM(t.Relations[0].Name); ok {
		shared = idx.MBits
	} else if idx, ok := store.BFHM(t.Relations[1].Name); ok {
		shared = idx.MBits
	}
	for _, rel := range t.Relations {
		if _, ok := store.BFHM(rel.Name); ok {
			continue
		}
		idx, _, err := BuildBFHM(c, rel, BFHMOptions{
			NumBuckets: cfg.BFHMBuckets,
			FPP:        cfg.BFHMFPP,
			MBits:      shared,
		})
		if err != nil {
			return err
		}
		shared = idx.MBits
		store.PutBFHM(rel.Name, idx)
	}
	return nil
}

func (bfhmExec) HasIndex(t *JoinTree, store *IndexStore) bool {
	if !isBinary(t) {
		return false
	}
	_, okA := store.BFHM(t.Relations[0].Name)
	_, okB := store.BFHM(t.Relations[1].Name)
	return okA && okB
}

func (bfhmExec) IndexSize(c *kvstore.Cluster, t *JoinTree, store *IndexStore) uint64 {
	if !isBinary(t) {
		return 0
	}
	var total uint64
	for i := range t.Relations {
		if idx, ok := store.BFHM(t.Relations[i].Name); ok {
			total += tableSize(c, idx.Table)
		}
	}
	return total
}

func (bfhmExec) Estimate(st *PlanStats) CostEstimate { return estimateBFHM(st) }
func (bfhmExec) Incremental() bool                   { return false }

// Open materializes: BFHM's estimation/reverse-mapping pipeline is
// k-driven end to end (the histogram walk targets the k'th estimate),
// so deeper pulls re-run the bounded query at doubled k.
func (bfhmExec) Open(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (Cursor, error) {
	if err := requireBinary("bfhm", t); err != nil {
		return nil, err
	}
	idxA, okA := store.BFHM(t.Relations[0].Name)
	idxB, okB := store.BFHM(t.Relations[1].Name)
	if !okA || !okB {
		return nil, fmt.Errorf("rankjoin: missing BFHM index for %s; call EnsureIndexes first", t.ID())
	}
	return materialize(t, opts.Budget, func(k int) (*Result, error) {
		return QueryBFHM(c, withK(t, k), idxA, idxB, opts.Parallelism)
	})
}

// ---- DRJN ----

type drjnExec struct{}

func (drjnExec) Name() string              { return "drjn" }
func (drjnExec) Supports(t *JoinTree) bool { return isBinary(t) }

func (drjnExec) EnsureIndex(c *kvstore.Cluster, t *JoinTree, store *IndexStore, cfg IndexBuildConfig) error {
	if err := requireBinary("drjn", t); err != nil {
		return err
	}
	cfg = cfg.WithDefaults()
	// One family-wide scope: both relations' matrices must agree on the
	// join-partition count for the band dot products.
	lock := store.BuildScope("drjn")
	lock.Lock()
	defer lock.Unlock()
	for _, rel := range t.Relations {
		if _, ok := store.DRJN(rel.Name); ok {
			continue
		}
		idx, _, err := BuildDRJN(c, rel, DRJNOptions{
			NumBuckets: cfg.DRJNBuckets,
			JoinParts:  cfg.DRJNJoinParts,
		})
		if err != nil {
			return err
		}
		store.PutDRJN(rel.Name, idx)
	}
	return nil
}

func (drjnExec) HasIndex(t *JoinTree, store *IndexStore) bool {
	if !isBinary(t) {
		return false
	}
	_, okA := store.DRJN(t.Relations[0].Name)
	_, okB := store.DRJN(t.Relations[1].Name)
	return okA && okB
}

func (drjnExec) IndexSize(c *kvstore.Cluster, t *JoinTree, store *IndexStore) uint64 {
	if !isBinary(t) {
		return 0
	}
	var total uint64
	for i := range t.Relations {
		if idx, ok := store.DRJN(t.Relations[i].Name); ok {
			total += tableSize(c, idx.Table)
		}
	}
	return total
}

func (drjnExec) Estimate(st *PlanStats) CostEstimate { return estimateDRJN(st) }
func (drjnExec) Incremental() bool                   { return true }

func (drjnExec) Open(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (Cursor, error) {
	if err := requireBinary("drjn", t); err != nil {
		return nil, err
	}
	idxA, okA := store.DRJN(t.Relations[0].Name)
	idxB, okB := store.DRJN(t.Relations[1].Name)
	if !okA || !okB {
		return nil, fmt.Errorf("rankjoin: missing DRJN index for %s; call EnsureIndexes first", t.ID())
	}
	cur, err := OpenDRJN(c, t, idxA, idxB)
	if err != nil {
		return nil, err
	}
	return WrapBudget(cur, opts.Budget), nil
}
