package rankjoin

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Query is a top-k rank-join over defined relations: an acyclic join
// tree (core.JoinTree), whichever constructor built it. NewQuery builds
// the two-leaf tree, NewTreeQuery any acyclic shape; executors that only
// handle a subset of shapes reject the rest with a shape error.
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

// queryBuilder builds Query values over the relations its store has
// defined. DB and Distributed embed one, so NewQuery, NewTreeQuery and
// NewTreeQueryFromSpec exist once and give both stores the same Query
// values — Explain output, IDs and page-size semantics carry over.
type queryBuilder struct {
	// defined reports whether the store has a relation by that name.
	defined func(name string) bool
}

// NewQuery builds a query joining two defined relations on their join
// attributes, ranking by the monotonic aggregate f, keeping k results.
func (b *queryBuilder) NewQuery(left, right string, f ScoreFunc, k int) (Query, error) {
	return newQuery([]string{left, right}, binaryEdges, f, k, b.defined)
}

// NewTreeQuery builds a query over an acyclic join tree: relations are
// the leaves, edges the join predicates (indices into relations), f the
// monotonic aggregate over all leaf scores, k the result target. The
// tree must be connected and acyclic — exactly len(relations)-1 edges —
// or a *ShapeError is returned.
func (b *queryBuilder) NewTreeQuery(relations []string, edges []TreeEdge, f ScoreFunc, k int) (Query, error) {
	return newQuery(relations, edges, f, k, b.defined)
}

// NewTreeQueryFromSpec builds a tree query from a decoded spec against
// the store's defined relations.
func (b *queryBuilder) NewTreeQueryFromSpec(spec *TreeSpec) (Query, error) {
	return spec.query(b.defined)
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

// executorFor resolves a concrete (non-auto) algorithm to its executor;
// it is the one place the AlgoAnyK alias is mapped.
func executorFor(algo Algorithm) (*core.Executor, error) {
	if algo == AlgoAnyK {
		algo = AlgoISL
	}
	ex, ok := core.Lookup(string(algo))
	if !ok {
		return nil, fmt.Errorf("rankjoin: unknown algorithm %q", algo)
	}
	return ex, nil
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
// returns every executor ranked by predicted cost under the chosen
// objective. Plan.Chosen is what AlgoAuto would execute right
// now; Plan.Best additionally considers indexes not yet built.
func (db *DB) Explain(q Query, opts *ExplainOptions) (*Plan, error) {
	o := ExplainOptions{}
	if opts != nil {
		o = *opts
	}
	// Plan on a private metrics lane, like TopK: PlannerCost must stay
	// per-query even when concurrent queries share the DB, and the
	// planning work still folds into the DB-wide clock.
	qm := sim.NewLane(db.cluster.Metrics())
	p, err := plan.Explain(db.cluster.WithMetrics(qm), q.t, db.store, plan.Options{
		Objective: o.Query.Objective,
		Exec:      o.Query.withDefaults().execOptions(),
		Cache:     db.planCache,
		Stream:    o.Stream,
	})
	db.cluster.Metrics().Advance(qm.SimTime())
	return p, err
}

// TopK executes the query with the chosen algorithm. Index-based
// algorithms require a prior EnsureIndexes call, while AlgoAuto plans
// the execution first: the cost-based planner ranks every executor and
// runs the cheapest one whose indexes are already built (or which needs
// none). The Result carries the ranked pairs, the
// resources consumed (the paper's three metrics: Cost.SimTime,
// Cost.NetworkBytes, Cost.KVReads / Dollars()), the executor that ran,
// and — for planned executions — the planner's cost estimate, making
// the estimated-vs-actual error measurable per query.
//
// Pagination: when exactly k results come back, Result.NextPageToken
// resumes the query where it stopped — pass it through
// QueryOptions.PageToken (with the same query) and the next k results
// are drained from the retained stream, paying marginal cost for
// incremental executors (ISL, DRJN) instead of a from-scratch rerun.
// Tokens are single-use; each page hands out a fresh one.
//
// TopK is safe for concurrent callers sharing one DB: each execution
// meters a private per-query collector (so Result.Cost never includes a
// concurrent query's work) and folds its clock into the DB-wide Metrics
// as it goes.
func (db *DB) TopK(q Query, algo Algorithm, opts *QueryOptions) (*Result, error) {
	o := optionsOf(opts).withDefaults()
	if o.PageToken != "" {
		rows, err := db.resume(q, algo, o)
		if err != nil {
			return nil, err
		}
		return db.page(rows, q, rows.Cost())
	}
	rows, p, err := db.open(q, algo, o, false)
	if err != nil {
		return nil, err
	}
	// A first page bills everything on the stream's lane, the planner's
	// statistics reads included; Result.PlannerCost reports their share.
	res, err := db.page(rows, q, sim.Snapshot{})
	if err == nil && p != nil {
		est := p.ChosenEstimate()
		res.Estimate = &est
		res.PlannerCost = p.PlannerCost
	}
	return res, err
}

// optionsOf copies the caller's options (nil means none).
func optionsOf(opts *QueryOptions) QueryOptions {
	if opts == nil {
		return QueryOptions{}
	}
	return *opts
}

// open starts one execution of q as a stream, for TopK's first page and
// for Stream. It chooses the executor (AlgoAuto asks the planner, which
// ranks for deep enumeration when stream is set; a hand-picked one's
// Open rejects a shape it does not support before spending any work)
// and opens its cursor on a private metrics lane: resource counters
// forward to the DB-wide collector as they accrue, while the query's
// clock stays isolated and is folded in by the stream, so the global
// clock remains a busy-time total when queries overlap. One Budget
// serves the planner, the executor's per-result checks and, through the
// guarded view, every metered RPC underneath.
func (db *DB) open(q Query, algo Algorithm, o QueryOptions, stream bool) (*Rows, *plan.Plan, error) {
	lane := sim.NewLane(db.cluster.Metrics())
	eo := o.execOptions()
	c := eo.Budget.GuardedView(db.cluster.WithMetrics(lane))
	var ex *core.Executor
	var p *plan.Plan
	var err error
	if algo == AlgoAuto {
		ex, p, err = plan.Choose(c, q.t, db.store, plan.Options{
			Objective: o.Objective,
			Exec:      eo,
			Cache:     db.planCache,
			Stream:    stream,
		})
	} else {
		ex, err = executorFor(algo)
	}
	var cur core.Cursor
	if err == nil {
		cur, err = ex.Open(c, q.t, db.store, eo)
	}
	if err != nil {
		// No stream exists to fold what planning or the failed open
		// spent; the resource counters already forwarded.
		db.cluster.Metrics().Advance(lane.SimTime())
		return nil, nil, err
	}
	rows := &Rows{
		cursor: cursorSource{cur: cur, lane: lane},
		total:  db.cluster.Metrics(),
		budget: eo.Budget,
		algo:   ex.Name(),
	}
	rows.src = &rows.cursor
	rows.fold()
	return rows, p, nil
}

// resume takes the stream parked behind o.PageToken and puts it under
// the resuming request's bounds, not the (possibly long-dead) context
// of the request that opened it — an HTTP caller's first request
// context is canceled the moment its response is written.
func (db *DB) resume(q Query, algo Algorithm, o QueryOptions) (*Rows, error) {
	rows, err := db.cursors.take(o.PageToken)
	if err != nil {
		return nil, err
	}
	if rows.queryID != q.ID() {
		_ = rows.Close()
		return nil, fmt.Errorf("rankjoin: page token belongs to query %s, not %s", rows.queryID, q.ID())
	}
	// Compare executors, not names: AlgoAnyK resumes an isl token.
	if ex, err := executorFor(algo); algo != AlgoAuto && (err != nil || ex.Name() != rows.algo) {
		_ = rows.Close()
		return nil, fmt.Errorf("rankjoin: page token was produced by %s, not %s", rows.algo, algo)
	}
	rows.budget.Rebind(o.Context, o.Deadline, o.MaxReadUnits)
	return rows, nil
}

// page drains one page of q's k results from an open stream, billing
// what the stream spent since before, then parks the stream behind a
// fresh page token when more results may exist (the page came back
// full) and closes it otherwise.
func (db *DB) page(rows *Rows, q Query, before sim.Snapshot) (*Result, error) {
	k := q.K()
	results, err := rows.drain(k)
	if err != nil {
		_ = rows.Close()
		return nil, attachPartials(err, results)
	}
	res := &Result{
		Results:   results,
		Cost:      rows.Cost().Sub(before),
		Algorithm: rows.algo,
	}
	if len(results) == k && k > 0 {
		res.NextPageToken = db.cursors.put(rows, q.ID())
	} else {
		_ = rows.Close()
	}
	return res, nil
}

// Stream starts a streaming execution of q. The query's k acts only as
// a page-size hint for batch-shaped executors (and the planner); the
// stream itself yields results until the join is exhausted or the
// caller closes it. AlgoAuto plans with deep enumeration in mind: the
// planner ranks executors by the predicted cost of a multi-page
// enumeration (charging materializing executors their re-runs), so it
// can pick differently here than for a bounded TopK.
func (db *DB) Stream(q Query, algo Algorithm, opts *QueryOptions) (*Rows, error) {
	rows, _, err := db.open(q, algo, optionsOf(opts).withDefaults(), true)
	return rows, err
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
