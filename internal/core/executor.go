package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/kvstore"
	"repro/internal/sim"
)

// This file defines the executor layer: every rank-join strategy sits
// behind one Executor interface and is held in a process-wide registry.
// The public API dispatches through registry lookups instead of the
// per-call switch statements the library grew up with, and the planner
// (internal/plan) walks the same registry to cost candidate plans.

// DefaultISLBatch is the ISL scanner caching default — the single
// source for the public QueryOptions, the executor layer, and the
// planner's estimates.
const DefaultISLBatch = 100

// ExecOptions tunes one query execution (the executor-layer mirror of
// the public QueryOptions).
type ExecOptions struct {
	// ISLBatch is the scanner caching size for ISL (default
	// DefaultISLBatch).
	ISLBatch int
	// Parallelism fans the client read path out (see QueryOptions).
	Parallelism int
	// Budget bounds the query's wall-clock and read-unit spend (nil =
	// unbounded). Executors wrap their cursors with it in Open and run
	// against a budget-guarded cluster view, so cancellation fires both
	// between results and inside long scans.
	Budget *Budget
}

// WithDefaults fills unset fields.
func (o ExecOptions) WithDefaults() ExecOptions {
	if o.ISLBatch < 1 {
		o.ISLBatch = DefaultISLBatch
	}
	return o
}

// IndexBuildConfig tunes index construction in EnsureIndex.
type IndexBuildConfig struct {
	// BFHMBuckets is the histogram resolution (default 100).
	BFHMBuckets int
	// BFHMFPP is the Bloom false-positive target (default 0.05).
	BFHMFPP float64
	// DRJNBuckets is the DRJN score-band count (default 100).
	DRJNBuckets int
	// DRJNJoinParts is the DRJN join-partition count (default 64).
	DRJNJoinParts int
}

// WithDefaults fills unset fields.
func (c IndexBuildConfig) WithDefaults() IndexBuildConfig {
	if c.BFHMBuckets == 0 {
		c.BFHMBuckets = 100
	}
	if c.BFHMFPP == 0 {
		c.BFHMFPP = 0.05
	}
	if c.DRJNBuckets == 0 {
		c.DRJNBuckets = 100
	}
	if c.DRJNJoinParts == 0 {
		c.DRJNJoinParts = 64
	}
	return c
}

// RelStats summarizes one input relation for the planner.
type RelStats struct {
	// Rows is the tuple count of the base table.
	Rows uint64
	// Bytes is the base table's stored size.
	Bytes uint64
	// Regions is the base table's region count.
	Regions int
}

// PlanStats is everything the planner knows when costing one query
// instance, per tree leaf in leaf order: live cluster table statistics
// plus join-cardinality and termination-depth estimates derived from
// whatever statistics structures exist (DRJN 2-D histograms first, BFHM
// hybrid filters second, uniform assumptions as a last resort). The
// two-way-only estimators read leaves 0 and 1.
type PlanStats struct {
	Profile sim.Profile
	K       int
	// Leaves holds the statistics of every tree leaf.
	Leaves []RelStats

	// JoinPairs estimates the full join-result cardinality.
	JoinPairs float64
	// LeafDepths estimates how many tuples each leaf must surface in
	// descending-score order before a top-k is provably complete (the
	// HRJN early-termination depth). Shared with the planner's stats
	// cache: read it, never write it.
	LeafDepths []float64
	// StatBands is how many leading histogram bands per side the stats
	// walk consumed to cover k; it drives DRJN/BFHM fetch-count
	// estimates. Zero when no histogram statistics were available.
	StatBands int
	// Source names the statistics origin: "drjn", "bfhm", or "uniform".
	Source string
	// BFHMBuckets / DRJNJoinParts describe built (or default) index
	// geometry the estimators size fetches with.
	BFHMBuckets   int
	DRJNJoinParts int

	// IndexBytes is the stored size of the candidate executor's index
	// (0 if absent), set by the planner before calling its Estimate.
	IndexBytes uint64
	// Exec carries the query options that shape runtime costs.
	Exec ExecOptions
}

// CostEstimate is a predicted query cost in the paper's three metrics.
type CostEstimate struct {
	SimTime      time.Duration
	NetworkBytes uint64
	KVReads      uint64
}

// Dollars prices the estimated read units per the paper's DynamoDB
// model (footnote 1), through the same formula measured costs use.
func (e CostEstimate) Dollars() float64 {
	return sim.DollarsForReads(e.KVReads)
}

// RelativeError returns |est-actual|/actual for one pair of values (the
// estimated-vs-actual error a Result's stamped estimate makes
// measurable per query). actual == 0 yields 0 when est is also 0, else 1.
func RelativeError(est, actual float64) float64 {
	if actual == 0 {
		if est == 0 {
			return 0
		}
		return 1
	}
	d := est - actual
	if d < 0 {
		d = -d
	}
	return d / actual
}

// Executor is one rank-join strategy behind the registry. Every
// executor consumes the JoinTree query form; two-way-only strategies
// accept its two-leaf all-equi shape and reject the others (see
// Supports).
type Executor interface {
	// Name is the stable identifier ("isl", "bfhm", ...), matching the
	// public Algorithm constants.
	Name() string
	// Supports reports whether this executor can run the tree's shape
	// (leaf count and edge predicates). The planner skips unsupported
	// candidates; EnsureIndex and Open reject an unsupported shape
	// (unsupportedShape) before spending any work.
	Supports(t *JoinTree) bool
	// EnsureIndex idempotently builds the executor's index structures
	// for the tree. Concurrent calls for overlapping scopes serialize
	// (single-flight): exactly one caller builds, the rest observe the
	// finished index.
	EnsureIndex(c *kvstore.Cluster, t *JoinTree, store *IndexStore, cfg IndexBuildConfig) error
	// HasIndex reports whether Open's index requirements are met.
	HasIndex(t *JoinTree, store *IndexStore) bool
	// IndexSize returns the stored bytes of the executor's index(es)
	// for the tree (0 for index-free executors or unbuilt indexes).
	IndexSize(c *kvstore.Cluster, t *JoinTree, store *IndexStore) uint64
	// Estimate predicts the query's execution cost from planner
	// statistics. It must return non-zero costs for any non-empty
	// input, whether or not the index exists yet.
	Estimate(st *PlanStats) CostEstimate
	// Open starts an execution: the cursor yields join results one at a
	// time in descending score order, with no fixed k; a bounded top-k
	// is a drain of it to t.K results (RunCursor). For
	// incremental executors t.K is irrelevant beyond validation; for
	// materializing ones it is the initial batch depth (the page-size
	// hint), with deeper pulls re-running at doubled depths.
	Open(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (Cursor, error)
	// Incremental reports whether Open enumerates natively — each Next
	// pays only marginal work — as opposed to materializing bounded
	// re-runs. The planner charges materializing executors the re-run
	// penalty when costing deep pagination.
	Incremental() bool
}

// ---- Registry ----

var (
	registryMu sync.RWMutex
	registry   = map[string]Executor{} // guarded by: registryMu
	// registryOrder preserves registration order (the paper's
	// evaluation order) for deterministic iteration.
	// guarded by: registryMu
	registryOrder []string
)

// Register adds an executor to the registry. Registering a duplicate
// name panics: names are the dispatch keys of the public API.
func Register(e Executor) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[e.Name()]; dup {
		panic(fmt.Sprintf("core: executor %q registered twice", e.Name()))
	}
	registry[e.Name()] = e
	registryOrder = append(registryOrder, e.Name())
}

// Lookup returns the executor registered under name.
func Lookup(name string) (Executor, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Executors returns every registered executor in registration order.
func Executors() []Executor {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Executor, 0, len(registryOrder))
	for _, n := range registryOrder {
		out = append(out, registry[n])
	}
	return out
}
