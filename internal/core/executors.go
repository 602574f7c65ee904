package core

import (
	"fmt"
	"slices"

	"repro/internal/kvstore"
	"repro/internal/sim"
)

// This file is the executor layer's one dispatch point: the paper's
// seven algorithms, each one row of a fixed table in the paper's
// evaluation order. A row states its strategy's facts — the join shapes
// it takes, whether it enumerates incrementally, its estimator, its
// index family and how it runs — and Executor's methods apply them
// alike for every row, so the shape check,
// t.Validate, the missing-index check and the budget wrap each happen
// once, here. The public API resolves algorithms with Lookup, and the
// planner (internal/plan) costs Executors in table order.
//
// The shapes follow "Ranked Enumeration for Database Queries": isl runs
// one any-k enumeration over every acyclic tree, the equi star being a
// special case; the paper's other strategies take the two-leaf equi
// join, which they read as leaves 0 and 1; naive, the reference, takes
// every tree.

// Executor is one rank-join strategy: a row of the executor table.
type Executor struct {
	name     string
	supports func(t *JoinTree) bool
	estimate func(st *PlanStats) sim.Snapshot
	// index is the family of indexes the strategy reads; nil for the
	// index-free ones.
	index indexFamily
	// Exactly one of run and open is set. run computes a bounded top-k
	// at t.K, and Open streams it by re-running at doubled depths; open
	// starts an incremental cursor, whose every Next pays only marginal
	// work.
	run  func(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (*Result, error)
	open func(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (Cursor, error)
}

// executors is the executor table.
var executors = []*Executor{
	{name: "naive", supports: anyTree, estimate: estimateNaive,
		run: func(c *kvstore.Cluster, t *JoinTree, _ *IndexStore, _ ExecOptions) (*Result, error) {
			if isBinary(t) {
				return NaiveTopK(c, t)
			}
			return NaiveTreeTopK(c, t)
		}},
	{name: "hive", supports: isBinary, estimate: estimateHive,
		run: func(c *kvstore.Cluster, t *JoinTree, _ *IndexStore, _ ExecOptions) (*Result, error) {
			return QueryHive(c, t)
		}},
	{name: "pig", supports: isBinary, estimate: estimatePig,
		run: func(c *kvstore.Cluster, t *JoinTree, _ *IndexStore, _ ExecOptions) (*Result, error) {
			return QueryPig(c, t)
		}},
	{name: "ijlmr", supports: isBinary, estimate: estimateIJLMR, index: ijlmrIndexes,
		run: func(c *kvstore.Cluster, t *JoinTree, store *IndexStore, _ ExecOptions) (*Result, error) {
			idx, _ := store.IJLMR.Get(t.ID())
			return QueryIJLMR(c, t, idx)
		}},
	// isl opens one list cursor, which reads the list that bounds the
	// threshold (HRJN*).
	{name: "isl", supports: anyTree, estimate: estimateLists, index: islIndexes,
		open: openLists},
	// bfhm materializes: its estimation and reverse-mapping pipeline is
	// k-driven end to end (the histogram walk targets the k'th estimate).
	{name: "bfhm", supports: isBinary, estimate: estimateBFHM, index: bfhmIndexes,
		run: func(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (*Result, error) {
			idxA, _ := store.BFHM.Get(t.Relations[0].Name)
			idxB, _ := store.BFHM.Get(t.Relations[1].Name)
			return QueryBFHM(c, t, idxA, idxB, opts.Parallelism)
		}},
	{name: "drjn", supports: isBinary, estimate: estimateDRJN, index: drjnIndexes,
		open: func(c *kvstore.Cluster, t *JoinTree, store *IndexStore, _ ExecOptions) (Cursor, error) {
			idxA, _ := store.DRJN.Get(t.Relations[0].Name)
			idxB, _ := store.DRJN.Get(t.Relations[1].Name)
			return OpenDRJN(c, t, idxA, idxB)
		}},
}

// Lookup returns the executor named name.
func Lookup(name string) (*Executor, bool) {
	for _, e := range executors {
		if e.name == name {
			return e, true
		}
	}
	return nil, false
}

// Executors returns every executor in table order.
func Executors() []*Executor { return slices.Clone(executors) }

// Name is the stable identifier ("isl", "bfhm", ...), matching the
// public Algorithm constants.
func (e *Executor) Name() string { return e.name }

// Supports reports whether the executor can run the tree's shape (leaf
// count and edge predicates). The planner skips unsupported candidates;
// EnsureIndex and Open reject them before spending any work.
func (e *Executor) Supports(t *JoinTree) bool { return e.supports(t) }

// Incremental reports whether Open enumerates natively — each Next pays
// only marginal work — as opposed to materializing bounded re-runs. The
// planner charges materializing executors the re-run penalty when
// costing deep pagination.
func (e *Executor) Incremental() bool { return e.open != nil }

// Estimate predicts the query's execution cost from planner statistics.
// It returns non-zero costs for any non-empty input, whether or not the
// index exists yet.
func (e *Executor) Estimate(st *PlanStats) sim.Snapshot { return e.estimate(st) }

// check admits t to EnsureIndex and Open: a supported shape, well formed.
func (e *Executor) check(t *JoinTree) error {
	if !e.supports(t) {
		return unsupportedShape(e.name, t)
	}
	return t.Validate()
}

// EnsureIndex idempotently builds the executor's index structures for
// the tree. Concurrent calls for overlapping scopes serialize
// (single-flight): exactly one caller builds, the rest observe the
// finished index.
func (e *Executor) EnsureIndex(c *kvstore.Cluster, t *JoinTree, store *IndexStore, cfg IndexBuildConfig) error {
	if err := e.check(t); err != nil || e.index == nil {
		return err
	}
	return e.index.ensure(c, t, store, cfg.WithDefaults())
}

// HasIndex reports whether Open's index requirements are met.
func (e *Executor) HasIndex(t *JoinTree, store *IndexStore) bool {
	return e.supports(t) && (e.index == nil || e.index.has(t, store))
}

// IndexSize returns the stored bytes of the executor's index(es) for the
// tree (0 for index-free executors, unsupported shapes or unbuilt
// indexes).
func (e *Executor) IndexSize(c *kvstore.Cluster, t *JoinTree, store *IndexStore) uint64 {
	if !e.supports(t) || e.index == nil {
		return 0
	}
	return e.index.size(c, t, store)
}

// Open starts an execution: the cursor yields join results one at a time
// in descending score order, with no fixed k; a bounded top-k is a drain
// of it to t.K results (RunCursor). For incremental executors t.K is
// irrelevant beyond validation; for materializing ones it is the initial
// batch depth (the page-size hint). The budget wrap makes Next enforce
// the query's deadline and read cap between results; the budget also
// fires inside a run or a pull through the cluster guard.
func (e *Executor) Open(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (Cursor, error) {
	if err := e.check(t); err != nil {
		return nil, err
	}
	if e.index != nil && !e.index.has(t, store) {
		return nil, fmt.Errorf("rankjoin: no %s index for %s; call EnsureIndexes first", e.index.name(), t.ID())
	}
	opts = opts.WithDefaults()
	var cur Cursor
	if e.open != nil {
		var err error
		if cur, err = e.open(c, t, store, opts); err != nil {
			return nil, err
		}
	} else {
		cur = NewMaterializedCursor(t.K, func(k int) (*Result, error) {
			return e.run(c, withK(t, k), store, opts)
		})
	}
	return WrapBudget(cur, opts.Budget), nil
}

// unsupportedShape is the dispatch error for a hand-picked executor
// that cannot run the tree's shape.
func unsupportedShape(name string, t *JoinTree) error {
	return fmt.Errorf("rankjoin: algorithm %q does not support join shape %s (try naive or isl)", name, t.ID())
}

// anyTree admits every tree shape.
func anyTree(*JoinTree) bool { return true }

// isBinary reports the two-leaf all-equi shape, the paper's two-way
// rank join.
func isBinary(t *JoinTree) bool {
	return len(t.Relations) == 2 && t.AllEqui()
}

// requireBinary validates t for a two-way-only strategy's entry point:
// any shape but the two-leaf all-equi one fails with a shape diagnostic.
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
