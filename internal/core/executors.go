package core

import (
	"fmt"

	"repro/internal/kvstore"
)

// The paper's seven algorithms plus the any-k tree executor as registry
// executors. This file is the single dispatch surface: one Executor
// implementation per strategy. Every executor consumes the JoinTree
// form; the two-way-only strategies project it back to a binary Query
// through requireBinary. isl and anyk share one rank-join operator and
// one list cursor (anyk.go, isl.go); the batch-shaped strategies stream
// through the materializing adapter (materialize).

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

// requireBinary projects the tree onto the two-way Query form the
// binary-only executors consume, or fails with a shape diagnostic.
func requireBinary(name string, t *JoinTree) (Query, error) {
	q, ok := t.Binary()
	if !ok {
		return Query{}, unsupportedShape(name, t)
	}
	return q, nil
}

// isBinary reports the two-leaf all-equi shape.
func isBinary(t *JoinTree) bool {
	_, ok := t.Binary()
	return ok
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
func (naiveExec) NeedsIndex() bool        { return false }
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
		tt := *t
		tt.K = k
		if q, ok := tt.Binary(); ok {
			return NaiveTopK(c, q)
		}
		return NaiveTreeTopK(c, &tt)
	})
}

// ---- Hive ----

type hiveExec struct{}

func (hiveExec) Name() string              { return "hive" }
func (hiveExec) NeedsIndex() bool          { return false }
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
	q, err := requireBinary("hive", t)
	if err != nil {
		return nil, err
	}
	return materialize(t, opts.Budget, func(k int) (*Result, error) {
		qq := q
		qq.K = k
		return QueryHive(c, qq)
	})
}

// ---- Pig ----

type pigExec struct{}

func (pigExec) Name() string              { return "pig" }
func (pigExec) NeedsIndex() bool          { return false }
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
	q, err := requireBinary("pig", t)
	if err != nil {
		return nil, err
	}
	return materialize(t, opts.Budget, func(k int) (*Result, error) {
		qq := q
		qq.K = k
		return QueryPig(c, qq)
	})
}

// ---- IJLMR ----

type ijlmrExec struct{}

func (ijlmrExec) Name() string              { return "ijlmr" }
func (ijlmrExec) NeedsIndex() bool          { return true }
func (ijlmrExec) Supports(t *JoinTree) bool { return isBinary(t) }

func (ijlmrExec) EnsureIndex(c *kvstore.Cluster, t *JoinTree, store *IndexStore, _ IndexBuildConfig) error {
	q, err := requireBinary("ijlmr", t)
	if err != nil {
		return err
	}
	lock := store.BuildScope("ijlmr/" + q.ID())
	lock.Lock()
	defer lock.Unlock()
	if _, ok := store.IJLMR(q.ID()); ok {
		return nil
	}
	idx, _, err := BuildIJLMR(c, q)
	if err != nil {
		return err
	}
	store.PutIJLMR(q.ID(), idx)
	return nil
}

func (ijlmrExec) HasIndex(t *JoinTree, store *IndexStore) bool {
	q, ok := t.Binary()
	if !ok {
		return false
	}
	_, ok = store.IJLMR(q.ID())
	return ok
}

func (ijlmrExec) IndexSize(c *kvstore.Cluster, t *JoinTree, store *IndexStore) uint64 {
	q, ok := t.Binary()
	if !ok {
		return 0
	}
	idx, ok := store.IJLMR(q.ID())
	if !ok {
		return 0
	}
	return tableSize(c, idx.Table)
}

func (ijlmrExec) Estimate(st *PlanStats) CostEstimate { return estimateIJLMR(st) }
func (ijlmrExec) Incremental() bool                   { return false }

func (ijlmrExec) Open(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (Cursor, error) {
	q, err := requireBinary("ijlmr", t)
	if err != nil {
		return nil, err
	}
	idx, ok := store.IJLMR(q.ID())
	if !ok {
		return nil, fmt.Errorf("rankjoin: no IJLMR index for %s; call EnsureIndexes first", q.ID())
	}
	return materialize(t, opts.Budget, func(k int) (*Result, error) {
		qq := q
		qq.K = k
		return QueryIJLMR(c, qq, idx)
	})
}

// ---- ISL ----

// islExec is the paper's ISL coordinator (Section 4.2.3) on all-equi
// trees: the list cursor over the binary index for two-way trees and
// over the shared n-way index for larger ones (any connected all-equi
// tree is semantically a star). Band-predicate trees are out of scope —
// use any-k.
type islExec struct{}

func (islExec) Name() string              { return "isl" }
func (islExec) NeedsIndex() bool          { return true }
func (islExec) Supports(t *JoinTree) bool { return t.AllEqui() }

// islLists locates the inverse score lists ISL reads for t: the binary
// index's two families for a two-leaf tree, the shared n-way index's
// otherwise. ok is false when the index is not built or the shape is
// not ISL's.
func islLists(t *JoinTree, store *IndexStore) (table string, families []string, ok bool) {
	if q, ok := t.Binary(); ok {
		idx, ok := store.ISL(q.ID())
		if !ok {
			return "", nil, false
		}
		return idx.Table, []string{idx.LeftFamily, idx.RightFamily}, true
	}
	if !t.AllEqui() {
		return "", nil, false
	}
	idx, ok := store.ISLN(t.LeafID())
	if !ok {
		return "", nil, false
	}
	return idx.Table, idx.Families, true
}

func (islExec) EnsureIndex(c *kvstore.Cluster, t *JoinTree, store *IndexStore, _ IndexBuildConfig) error {
	if !t.AllEqui() {
		return unsupportedShape("isl", t)
	}
	q, ok := t.Binary()
	if !ok {
		return EnsureISLN(c, t, store)
	}
	lock := store.BuildScope("isl/" + q.ID())
	lock.Lock()
	defer lock.Unlock()
	if _, ok := store.ISL(q.ID()); ok {
		return nil
	}
	idx, _, err := BuildISL(c, q)
	if err != nil {
		return err
	}
	store.PutISL(q.ID(), idx)
	return nil
}

func (islExec) HasIndex(t *JoinTree, store *IndexStore) bool {
	_, _, ok := islLists(t, store)
	return ok
}

func (islExec) IndexSize(c *kvstore.Cluster, t *JoinTree, store *IndexStore) uint64 {
	table, _, ok := islLists(t, store)
	if !ok {
		return 0
	}
	return tableSize(c, table)
}

func (islExec) Estimate(st *PlanStats) CostEstimate { return estimateISL(st) }
func (islExec) Incremental() bool                   { return true }

func (islExec) Open(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (Cursor, error) {
	if !t.AllEqui() {
		return nil, unsupportedShape("isl", t)
	}
	table, families, ok := islLists(t, store)
	if !ok {
		return nil, fmt.Errorf("rankjoin: no ISL index for %s; call EnsureIndexes first", t.LeafID())
	}
	// A release keeps the cursor's place in the batch, as Algorithm 4 does.
	return openLists(c, t, table, families, opts.WithDefaults(), false)
}

// ---- BFHM ----

type bfhmExec struct{}

func (bfhmExec) Name() string              { return "bfhm" }
func (bfhmExec) NeedsIndex() bool          { return true }
func (bfhmExec) Supports(t *JoinTree) bool { return isBinary(t) }

// EnsureIndex builds both relations' BFHM indexes with a shared filter
// width (intersection requires equal widths; the first build auto-sizes
// from its heaviest bucket, the second inherits). All BFHM builds
// serialize on one family-wide scope: concurrent EnsureIndex calls for
// overlapping relation pairs would otherwise race the width handshake
// and persist filters that can never be intersected.
func (bfhmExec) EnsureIndex(c *kvstore.Cluster, t *JoinTree, store *IndexStore, cfg IndexBuildConfig) error {
	q, err := requireBinary("bfhm", t)
	if err != nil {
		return err
	}
	cfg = cfg.WithDefaults()
	lock := store.BuildScope("bfhm")
	lock.Lock()
	defer lock.Unlock()
	var shared uint64
	if idx, ok := store.BFHM(q.Left.Name); ok {
		shared = idx.MBits
	} else if idx, ok := store.BFHM(q.Right.Name); ok {
		shared = idx.MBits
	}
	for _, rel := range []Relation{q.Left, q.Right} {
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
	q, ok := t.Binary()
	if !ok {
		return false
	}
	_, okA := store.BFHM(q.Left.Name)
	_, okB := store.BFHM(q.Right.Name)
	return okA && okB
}

func (bfhmExec) IndexSize(c *kvstore.Cluster, t *JoinTree, store *IndexStore) uint64 {
	q, ok := t.Binary()
	if !ok {
		return 0
	}
	var total uint64
	for _, name := range []string{q.Left.Name, q.Right.Name} {
		if idx, ok := store.BFHM(name); ok {
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
	q, err := requireBinary("bfhm", t)
	if err != nil {
		return nil, err
	}
	idxA, okA := store.BFHM(q.Left.Name)
	idxB, okB := store.BFHM(q.Right.Name)
	if !okA || !okB {
		return nil, fmt.Errorf("rankjoin: missing BFHM index for %s; call EnsureIndexes first", q.ID())
	}
	return materialize(t, opts.Budget, func(k int) (*Result, error) {
		qq := q
		qq.K = k
		return QueryBFHM(c, qq, idxA, idxB, BFHMQueryOptions{
			WriteBack:   opts.BFHMWriteBack,
			Parallelism: opts.Parallelism,
		})
	})
}

// ---- DRJN ----

type drjnExec struct{}

func (drjnExec) Name() string              { return "drjn" }
func (drjnExec) NeedsIndex() bool          { return true }
func (drjnExec) Supports(t *JoinTree) bool { return isBinary(t) }

func (drjnExec) EnsureIndex(c *kvstore.Cluster, t *JoinTree, store *IndexStore, cfg IndexBuildConfig) error {
	q, err := requireBinary("drjn", t)
	if err != nil {
		return err
	}
	cfg = cfg.WithDefaults()
	// One family-wide scope: both relations' matrices must agree on the
	// join-partition count for the band dot products.
	lock := store.BuildScope("drjn")
	lock.Lock()
	defer lock.Unlock()
	for _, rel := range []Relation{q.Left, q.Right} {
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
	q, ok := t.Binary()
	if !ok {
		return false
	}
	_, okA := store.DRJN(q.Left.Name)
	_, okB := store.DRJN(q.Right.Name)
	return okA && okB
}

func (drjnExec) IndexSize(c *kvstore.Cluster, t *JoinTree, store *IndexStore) uint64 {
	q, ok := t.Binary()
	if !ok {
		return 0
	}
	var total uint64
	for _, name := range []string{q.Left.Name, q.Right.Name} {
		if idx, ok := store.DRJN(name); ok {
			total += tableSize(c, idx.Table)
		}
	}
	return total
}

func (drjnExec) Estimate(st *PlanStats) CostEstimate { return estimateDRJN(st) }
func (drjnExec) Incremental() bool                   { return true }

func (drjnExec) Open(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (Cursor, error) {
	q, err := requireBinary("drjn", t)
	if err != nil {
		return nil, err
	}
	idxA, okA := store.DRJN(q.Left.Name)
	idxB, okB := store.DRJN(q.Right.Name)
	if !okA || !okB {
		return nil, fmt.Errorf("rankjoin: missing DRJN index for %s; call EnsureIndexes first", q.ID())
	}
	cur, err := OpenDRJN(c, q, idxA, idxB)
	if err != nil {
		return nil, err
	}
	return WrapBudget(cur, opts.Budget), nil
}
