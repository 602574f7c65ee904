package core

import "repro/internal/sim"

// This file defines what the executor table (executors.go) is driven
// with: the execution and index-build options, and the planner's
// statistics and the relative error of its estimates.

// DefaultISLBatch is the ISL scanner caching default — the single
// source for the public QueryOptions, the executor layer, and the
// planner's estimates.
const DefaultISLBatch = 100

// ExecOptions tunes one query execution (the executor-layer mirror of
// the public QueryOptions).
type ExecOptions struct {
	// ISLBatch is the scanner caching size for the isl executor's list
	// scans: rows per scanner RPC (default DefaultISLBatch).
	ISLBatch int
	// Parallelism fans the client read path out (see QueryOptions).
	Parallelism int
	// Budget bounds the query's wall-clock and read-unit spend (nil =
	// unbounded). Executor.Open wraps every cursor with it, and
	// executors run against a budget-guarded cluster view, so
	// cancellation fires both between results and inside long scans.
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
