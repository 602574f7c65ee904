package rankjoin

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Query is a top-k rank-join over defined relations: an acyclic join
// tree (core.JoinTree), whichever constructor built it. NewQuery builds
// the two-leaf tree, NewMultiQuery the star, NewTreeQuery any acyclic
// shape; executors that only handle a subset of shapes reject the rest
// with a shape error.
type Query struct {
	t *core.JoinTree
}

// newQuery is the one query constructor behind NewQuery, NewTreeQuery
// and NewTreeQueryFromSpec, on DB and Distributed alike: relations are
// the leaves (each must satisfy defined and appear once), edges the
// join predicates, f the aggregate over all leaf scores, k the result
// target.
func newQuery(relations []string, edges []TreeEdge, f ScoreFunc, k int, defined func(name string) bool) (Query, error) {
	rels := make([]core.Relation, 0, len(relations))
	seen := map[string]bool{}
	for _, name := range relations {
		if !defined(name) {
			return Query{}, fmt.Errorf("rankjoin: relation %q not defined", name)
		}
		if seen[name] {
			return Query{}, fmt.Errorf("rankjoin: relation %q listed twice in tree query", name)
		}
		seen[name] = true
		rels = append(rels, relationFor(name))
	}
	t := &core.JoinTree{
		Relations: rels,
		Edges:     append([]TreeEdge(nil), edges...),
		Score:     f,
		K:         k,
	}
	if err := t.Validate(); err != nil {
		return Query{}, err
	}
	return Query{t: t}, nil
}

// binaryEdges is the edge list of the two-way query: one equi edge
// between leaves 0 and 1.
var binaryEdges = []TreeEdge{{A: 0, B: 1, Kind: PredEqui}}

// defined reports whether a relation name is defined on this DB.
func (db *DB) defined(name string) bool { return db.Relation(name) != nil }

// NewQuery builds a query joining two defined relations on their join
// attributes, ranking by the monotonic aggregate f, keeping k results.
func (db *DB) NewQuery(left, right string, f ScoreFunc, k int) (Query, error) {
	return newQuery([]string{left, right}, binaryEdges, f, k, db.defined)
}

// WithK derives a query with a different k (indexes are shared; the
// derived query's identity — and so its planner-cache and page-token
// keys — still carries the new k).
func (q Query) WithK(k int) Query {
	nt := *q.t
	nt.K = k
	return Query{t: &nt}
}

// K returns the query's result size target.
func (q Query) K() int { return q.t.K }

// ID returns the query's deterministic identifier. Distinct join
// shapes over the same relations get distinct IDs (band/theta edges
// are encoded), so cache entries never collide across shapes.
func (q Query) ID() string { return q.t.ID() }

// executorFor resolves a concrete (non-auto) algorithm to its executor.
func executorFor(algo Algorithm) (core.Executor, error) {
	ex, ok := core.Lookup(string(algo))
	if !ok {
		return nil, fmt.Errorf("rankjoin: unknown algorithm %q", algo)
	}
	return ex, nil
}

// checkShape rejects a hand-picked executor that cannot run the tree's
// shape, before any work is spent on it.
func checkShape(ex core.Executor, t *core.JoinTree) error {
	if !ex.Supports(t) {
		return fmt.Errorf("rankjoin: algorithm %q does not support join shape %s (try %s or %s)",
			ex.Name(), t.ID(), AlgoNaive, AlgoAnyK)
	}
	return nil
}

// indexConfig snapshots the DB's index-construction defaults under the
// lock (SetIndexConfig writes them there) and fills unset fields.
func (db *DB) indexConfig() core.IndexBuildConfig {
	db.mu.Lock()
	cfg := db.idxCfg
	db.mu.Unlock()
	return core.IndexBuildConfig{
		BFHMBuckets:   cfg.BFHMBuckets,
		BFHMFPP:       cfg.BFHMFPP,
		DRJNBuckets:   cfg.DRJNBuckets,
		DRJNJoinParts: cfg.DRJNJoinParts,
	}.WithDefaults()
}

// EnsureIndexes builds (idempotently) the index structures the listed
// algorithms need for this query. Index build costs are charged to the
// DB's metrics — snapshot before/after to measure them (Fig. 9).
//
// Concurrent EnsureIndexes calls are safe: builds serialize per index
// family (single-flight), so racing callers can never double-build an
// index or construct BFHM pairs with mismatched filter widths.
func (db *DB) EnsureIndexes(q Query, algos ...Algorithm) error {
	cfg := db.indexConfig()
	for _, algo := range algos {
		if algo == AlgoAuto {
			return fmt.Errorf("rankjoin: %s is a planner mode, not an index family; list concrete algorithms", AlgoAuto)
		}
		ex, err := executorFor(algo)
		if err != nil {
			return err
		}
		if err := ex.EnsureIndex(db.cluster, q.t, db.store, cfg); err != nil {
			return err
		}
	}
	return db.saveCatalog()
}

// SetIndexConfig overrides index-construction defaults for subsequent
// EnsureIndexes calls.
func (db *DB) SetIndexConfig(cfg IndexConfig) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.idxCfg = cfg
}

// IndexDiskSize reports the stored bytes of the named algorithm's
// index(es) for a query (the Section 7.2 index-size experiment). It
// returns zero for index-free algorithms.
func (db *DB) IndexDiskSize(q Query, algo Algorithm) uint64 {
	ex, err := executorFor(algo)
	if err != nil {
		return 0
	}
	return ex.IndexSize(db.cluster, q.t, db.store)
}

// Explain plans the query without running it: it gathers statistics
// (DRJN histograms, BFHM filter intersections, live table stats) and
// returns every registered executor ranked by predicted cost under the
// chosen objective. Plan.Chosen is what AlgoAuto would execute right
// now; Plan.Best additionally considers indexes not yet built.
func (db *DB) Explain(q Query, opts *ExplainOptions) (*Plan, error) {
	o := ExplainOptions{}
	if opts != nil {
		o = *opts
	}
	if o.Objective == "" {
		// Accept the objective via the embedded QueryOptions too — the
		// field TopK's auto mode reads — so either spelling works.
		o.Objective = o.Query.Objective
	}
	// Plan on a private metrics lane, like TopK: PlannerCost must stay
	// per-query even when concurrent queries share the DB, and the
	// planning work still folds into the DB-wide clock.
	qm := sim.NewLane(db.cluster.Metrics())
	p, err := plan.Explain(db.cluster.WithMetrics(qm), q.t, db.store, plan.Options{
		Objective: o.Objective,
		Exec:      o.Query.withDefaults().execOptions(),
		Cache:     db.planCache,
		Stream:    o.Stream,
	})
	db.cluster.Metrics().Advance(qm.SimTime())
	return p, err
}

// TopK executes the query with the chosen algorithm. Index-based
// algorithms require a prior EnsureIndexes call, while AlgoAuto plans
// the execution first: the cost-based planner ranks every registered
// executor and runs the cheapest one whose indexes are already built
// (or which needs none). The Result carries the ranked pairs, the
// resources consumed (the paper's three metrics: Cost.SimTime,
// Cost.NetworkBytes, Cost.KVReads / Dollars()), the executor that ran,
// and — for planned executions — the planner's cost estimate, making
// the estimated-vs-actual error measurable per query.
//
// Pagination: when exactly k results come back, Result.NextPageToken
// resumes the query where it stopped — pass it through
// QueryOptions.PageToken (with the same query) and the next k results
// are drained from the retained cursor, paying marginal cost for
// incremental executors (ISL, DRJN) instead of a from-scratch rerun.
// Tokens are single-use; each page hands out a fresh one.
//
// TopK is safe for concurrent callers sharing one DB: each execution
// meters a private per-query collector (so Result.Cost never includes a
// concurrent query's work) and folds its totals back into the DB-wide
// Metrics when it completes.
func (db *DB) TopK(q Query, algo Algorithm, opts *QueryOptions) (*Result, error) {
	o := QueryOptions{}
	if opts != nil {
		o = *opts
	}
	o = o.withDefaults()
	if o.PageToken != "" {
		return db.nextPage(q, algo, o)
	}
	// Per-query metrics lane: resource counters forward to the DB-wide
	// collector as they accrue; the query's clock stays isolated and is
	// folded in once, below, keeping the global clock a cumulative
	// busy-time total even when queries overlap.
	qm := sim.NewLane(db.cluster.Metrics())
	qc := db.cluster.WithMetrics(qm)
	res, cur, budget, err := db.topKOn(qc, q, algo, o)
	if err != nil {
		db.cluster.Metrics().Advance(qm.SimTime())
		return nil, err
	}
	db.cluster.Metrics().Advance(res.Cost.SimTime)
	db.stashOrClose(res, cur, qm, q, budget)
	return res, nil
}

// stashOrClose retains the drained cursor behind a fresh page token
// when more results may exist (the page came back full), else closes
// it.
func (db *DB) stashOrClose(res *Result, cur core.Cursor, lane *sim.Metrics, q Query, budget *core.Budget) {
	if len(res.Results) == q.K() && q.K() > 0 {
		res.NextPageToken = db.cursors.put(&pagedCursor{
			cur:     cur,
			lane:    lane,
			algo:    res.Algorithm,
			queryID: q.ID(),
			folded:  lane.SimTime(),
			budget:  budget,
		})
		return
	}
	_ = cur.Close()
}

// nextPage resumes a paged query from its retained cursor.
func (db *DB) nextPage(q Query, algo Algorithm, o QueryOptions) (*Result, error) {
	pc, err := db.cursors.take(o.PageToken)
	if err != nil {
		return nil, err
	}
	if pc.queryID != q.ID() {
		_ = pc.cur.Close()
		return nil, fmt.Errorf("rankjoin: page token belongs to query %s, not %s", pc.queryID, q.ID())
	}
	if algo != AlgoAuto && string(algo) != pc.algo {
		_ = pc.cur.Close()
		return nil, fmt.Errorf("rankjoin: page token was produced by %s, not %s", pc.algo, algo)
	}
	// This page runs under the resuming request's bounds, not the
	// (possibly long-dead) context of the request that opened the
	// cursor — an HTTP caller's first request context is canceled the
	// moment its response is written.
	pc.budget.Rebind(o.Context, o.Deadline, o.MaxReadUnits)
	before := pc.lane.Snapshot()
	results, err := drainCursor(pc.cur, q.K())
	if err != nil {
		// Fold the failed page's accrued clock time like every other
		// error path, so DB-wide SimTime stays consistent with the
		// resource counters that already forwarded.
		if d := pc.lane.SimTime() - pc.folded; d > 0 {
			db.cluster.Metrics().Advance(d)
		}
		_ = pc.cur.Close()
		return nil, attachPartials(err, results)
	}
	res := &Result{
		Results:   results,
		Cost:      pc.lane.Snapshot().Sub(before),
		Algorithm: pc.algo,
	}
	// Fold only this page's clock progress into the DB-wide metrics.
	if d := pc.lane.SimTime() - pc.folded; d > 0 {
		db.cluster.Metrics().Advance(d)
		pc.folded += d
	}
	db.stashOrClose(res, pc.cur, pc.lane, q, pc.budget)
	return res, nil
}

// drainCursor pulls up to k results. On error the results collected so
// far come back with it, so cancellation can surface them as partials.
func drainCursor(cur core.Cursor, k int) ([]JoinResult, error) {
	out := make([]JoinResult, 0, k)
	for len(out) < k {
		r, err := cur.Next()
		if err != nil {
			return out, err
		}
		if r == nil {
			break
		}
		out = append(out, *r)
	}
	return out, nil
}

// attachPartials records the results collected before a budget or
// cancellation error fired onto the typed error itself, so a caller
// holding only the error can still degrade gracefully.
func attachPartials(err error, partial []JoinResult) error {
	var ce *core.CanceledError
	if errors.As(err, &ce) {
		ce.Partial = partial
	}
	var be *core.BudgetExceededError
	if errors.As(err, &be) {
		be.Partial = partial
	}
	return err
}

// topKOn dispatches the query on the given cluster view, returning the
// result plus the still-open cursor that produced it (for pagination)
// and the budget the cursor runs under (for per-page rebinding; nil
// when the query is unbounded).
func (db *DB) topKOn(c *kvstore.Cluster, q Query, algo Algorithm, o QueryOptions) (*Result, core.Cursor, *core.Budget, error) {
	// One ExecOptions (and so one Budget) for the whole query: the same
	// instance drives the executor's per-result checks and, via the
	// guarded view, every metered RPC underneath — scans, index builds,
	// MapReduce tasks.
	eo := o.execOptions()
	c = eo.Budget.GuardedView(c)
	var ex core.Executor
	var p *plan.Plan
	var err error
	if algo == AlgoAuto {
		// The planner's statistics reads are charged to the same
		// per-query lane as the execution, so Result.Cost covers the
		// whole planned query; the planning share is reported
		// separately in Result.PlannerCost.
		ex, p, err = plan.Choose(c, q.t, db.store, plan.Options{
			Objective: o.Objective,
			Exec:      eo,
			Cache:     db.planCache,
		})
	} else {
		ex, err = executorFor(algo)
		if err == nil {
			err = checkShape(ex, q.t)
		}
	}
	if err != nil {
		return nil, nil, nil, err
	}
	before := c.Metrics().Snapshot()
	cur, err := ex.Open(c, q.t, db.store, eo)
	if err != nil {
		return nil, nil, nil, err
	}
	results, err := drainCursor(cur, q.K())
	if err != nil {
		_ = cur.Close()
		return nil, nil, nil, attachPartials(err, results)
	}
	res := &Result{
		Results:   results,
		Cost:      c.Metrics().Snapshot().Sub(before),
		Algorithm: ex.Name(),
	}
	if p != nil {
		est := p.ChosenEstimate()
		res.Estimate = &est
		res.PlannerCost = p.PlannerCost
		// The planner's reads accrued on the same lane before the
		// cursor's cost delta started; fold them into the total.
		res.Cost = res.Cost.Add(p.PlannerCost)
	}
	return res, cur, eo.Budget, nil
}
