package rankjoin

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Re-exported data types. These alias the engine types so values flow
// between the public API and the algorithm layer without copying.
type (
	// Tuple is one relation row: a unique row key, a join value, and a
	// normalized score in [0, 1].
	Tuple = core.Tuple
	// JoinResult is one joined pair with its aggregate score.
	JoinResult = core.JoinResult
	// Result is a completed query: the top-k list plus consumed
	// resources (simulated time, network bytes, KV read units).
	Result = core.Result
	// ScoreFunc is a named monotonic aggregate over the scores of the
	// joined tuples, one per relation in query order.
	ScoreFunc = core.ScoreFunc
	// Profile describes simulated cluster hardware.
	Profile = sim.Profile
	// Metrics accumulates the paper's three evaluation metrics.
	Metrics = sim.Metrics
	// PlanStats is the statistics snapshot a plan was built from.
	PlanStats = core.PlanStats
	// Plan is a ranked set of candidate executions for one query.
	Plan = plan.Plan
	// PlanCandidate is one costed executor inside a Plan.
	PlanCandidate = plan.Candidate
	// Objective selects the metric the planner minimizes.
	Objective = plan.Objective
	// VFS is the filesystem seam durable DBs open their files through;
	// wrap it (e.g. with internal/faultfs) to inject storage faults.
	VFS = kvstore.VFS
	// CanceledError reports a query stopped by its context or deadline,
	// carrying the partial results collected before it fired.
	CanceledError = core.CanceledError
	// BudgetExceededError reports a query stopped by MaxReadUnits,
	// carrying the partial results collected before the cap fired.
	BudgetExceededError = core.BudgetExceededError
	// CorruptionError reports on-disk data that failed checksum
	// verification, naming the file and offset.
	CorruptionError = kvstore.CorruptionError
	// IOError reports a storage operation that failed at the
	// filesystem layer after retries, naming the file and operation.
	IOError = kvstore.IOError
	// FormatVersionError reports a durable artifact of a format version
	// this build does not read: OpenAt over a store whose MANIFEST, its
	// rankjoin catalog or an SSTable was written in another version.
	FormatVersionError = kvstore.FormatVersionError
)

// Typed failure sentinels, matched with errors.Is.
var (
	// ErrCanceled matches any *CanceledError: the query's context was
	// canceled or its deadline elapsed.
	ErrCanceled = core.ErrCanceled
	// ErrCorruption matches any *CorruptionError: bytes on disk failed
	// their checksum and were not silently dropped.
	ErrCorruption = kvstore.ErrCorruption
)

// Planner objectives.
const (
	// ObjectiveTime minimizes predicted turnaround time (default).
	ObjectiveTime = plan.ObjectiveTime
	// ObjectiveNetwork minimizes predicted network bytes.
	ObjectiveNetwork = plan.ObjectiveNetwork
	// ObjectiveDollars minimizes predicted KV read units.
	ObjectiveDollars = plan.ObjectiveDollars
)

// Score aggregates.
var (
	// Sum adds the tuple scores (the paper's Q2).
	Sum = core.Sum
	// Product multiplies them (the paper's Q1).
	Product = core.Product
	// SumN is Sum under its name from when the n-way form had an
	// aggregate type of its own.
	SumN = Sum
)

// RelativeError returns |est-actual|/actual — the per-query planner
// estimation error when applied to a planned Result's Estimate and
// Cost fields.
var RelativeError = core.RelativeError

// Algorithm selects a rank-join strategy.
type Algorithm string

// Available algorithms.
const (
	AlgoNaive Algorithm = "naive"
	AlgoHive  Algorithm = "hive"
	AlgoPig   Algorithm = "pig"
	AlgoIJLMR Algorithm = "ijlmr"
	// AlgoISL is the inverse-score-list rank join, run as any-k ranked
	// enumeration: it enumerates the results of every acyclic join tree
	// (chains, stars, general shapes — see NewTreeQuery) in descending
	// score order with no k fixed up front, and is the only
	// index-backed executor for trees with band-predicate edges.
	AlgoISL  Algorithm = "isl"
	AlgoBFHM Algorithm = "bfhm"
	AlgoDRJN Algorithm = "drjn"
	// AlgoAnyK is an alias of AlgoISL, the any-k enumeration's name in
	// "Ranked Enumeration for Database Queries": it runs the isl
	// executor, results and page tokens report "isl", and a token
	// either name produced resumes under the other.
	AlgoAnyK Algorithm = "anyk"
	// AlgoAuto is not an algorithm but a planner mode: TopK runs the
	// cost-based planner and executes the cheapest strategy whose
	// indexes are already built (or which needs none). It works with no
	// prior EnsureIndexes call; building indexes first gives the
	// planner better strategies and better statistics to choose with.
	AlgoAuto Algorithm = "auto"
)

// Algorithms lists every implemented strategy in evaluation order
// (without the naive reference and the AlgoAnyK alias).
func Algorithms() []Algorithm {
	return []Algorithm{AlgoHive, AlgoPig, AlgoIJLMR, AlgoISL, AlgoBFHM, AlgoDRJN}
}

// Config configures a DB: its simulated hardware and, for a durable
// DB, its directory and filesystem (or, for OpenDistributed, its
// nodes). Every DB counts its costs in a collector of its own
// (DB.Metrics).
type Config struct {
	// Profile selects the simulated hardware; default sim.LC().
	Profile *Profile
	// Dir roots a durable DB: OpenAt stores SSTables, WALs, the
	// manifest, and the rankjoin catalog there, and reopening the same
	// directory recovers everything. Ignored by Open.
	Dir string
	// VFS overrides the filesystem a durable DB opens its files
	// through (nil = the real filesystem). Fault-injection tests point
	// it at an internal/faultfs schedule. Ignored by Open.
	VFS VFS
	// Topology describes a multi-node deployment; only OpenDistributed
	// reads it (Open/OpenAt build single-process stores and ignore it).
	// Per-node storage lives in each NodeSpec, so Dir/VFS above do not
	// apply to distributed opens.
	Topology *Topology
}

// IndexConfig tunes index construction in EnsureIndexes.
type IndexConfig struct {
	// BFHMBuckets is the histogram resolution (default 100).
	BFHMBuckets int
	// BFHMFPP is the Bloom false-positive target (default 0.05).
	BFHMFPP float64
	// DRJNBuckets is the DRJN score-band count (default 100).
	DRJNBuckets int
	// DRJNJoinParts is the DRJN join-partition count (default 64).
	DRJNJoinParts int
}

// QueryOptions tunes query execution. No option makes a query write:
// BFHM replays pending mutation records in memory, and persisting the
// reconstructed blobs is the offline pass, RelationHandle.WriteBackBFHM.
type QueryOptions struct {
	// ISLBatch is the scanner caching size for the isl executor's list
	// scans: rows per scanner RPC (default 100).
	ISLBatch int
	// Parallelism bills the client read path as a fan-out: BFHM's
	// reverse-mapping multi-gets count as per-region RPCs over that many
	// concurrent lanes, and at any value >= 2 ISL bills every leaf's
	// inverse-score-list batches as read-ahead, so their round trips
	// overlap (its fan-out is one list per leaf, so values above 2
	// change nothing there). The simulated clock advances by the
	// slowest lane; resource counters sum over every consumed batch. The
	// reads themselves run on the query's goroutine, and nothing is read
	// before it is consumed. 0 or 1 means sequential.
	Parallelism int
	// Objective is the metric AlgoAuto's planner minimizes (default
	// ObjectiveTime). Ignored for hand-picked algorithms.
	Objective Objective
	// PageToken resumes a previous TopK where it stopped: pass the
	// Result.NextPageToken of the prior page and the same query, and
	// the next k results come from the retained cursor — marginal cost
	// for incremental executors instead of a from-scratch re-run. A
	// resumed page reads its next batch when it resumes: the parked
	// cursor holds no read in flight. Tokens are single-use (each page returns a fresh one) and expire
	// when the DB's cursor cache evicts them.
	PageToken string
	// Context cancels the query cooperatively: cancellation is checked
	// between results and inside scans, index builds, and MapReduce
	// tasks. A canceled query returns a *CanceledError (matching
	// ErrCanceled) carrying the partial results collected so far.
	Context context.Context
	// Deadline bounds the query's wall-clock time without needing a
	// context. Zero = none. Behaves like Context expiry: typed error,
	// partial results.
	Deadline time.Time
	// MaxReadUnits caps the query's read-unit spend (the paper's
	// dollar-cost metric). 0 = unlimited. Exceeding it returns a
	// *BudgetExceededError carrying the partial results.
	MaxReadUnits uint64
}

// withDefaults fills unset query options — shared by TopK and the
// planner path; the default values themselves live in core (the
// executor layer) so estimates and executions can never disagree.
func (o QueryOptions) withDefaults() QueryOptions {
	if o.ISLBatch == 0 {
		o.ISLBatch = core.DefaultISLBatch
	}
	return o
}

// execOptions converts to the executor layer's option struct. The
// budget instance is shared between the executor (per-result checks)
// and the cluster guard the query layer installs (per-RPC checks).
func (o QueryOptions) execOptions() core.ExecOptions {
	return core.ExecOptions{
		ISLBatch:    o.ISLBatch,
		Parallelism: o.Parallelism,
		Budget:      core.NewBudget(o.Context, o.Deadline, o.MaxReadUnits),
	}
}

// ExplainOptions tunes DB.Explain.
type ExplainOptions struct {
	// Stream ranks candidates by the predicted cost of deep ranked
	// enumeration (what DB.Stream's auto mode uses) instead of the
	// bounded top-k: incremental cursors are priced at their marginal
	// per-page cost, materializing ones at their doubling re-runs.
	Stream bool
	// Query carries the objective the candidates are ranked by
	// (Query.Objective, default ObjectiveTime) and the execution options
	// cost estimates depend on (ISL batch size, parallelism).
	Query QueryOptions
}

// DB is a handle to an embedded NoSQL cluster with rank-join support.
type DB struct {
	queryBuilder
	mu        sync.Mutex
	cluster   *kvstore.Cluster
	relations map[string]*RelationHandle // guarded by: mu
	// store holds every built index the executor table reads —
	// per-query IJLMR lists, per-relation inverse score lists and
	// per-relation statistics structures — including the single-flight
	// build serialization.
	store *core.IndexStore
	// planCache memoizes the planner's statistics walks per (query, k)
	// until the input tables change.
	planCache *plan.Cache
	// cursors retains parked query streams between pages, keyed by
	// page token (see QueryOptions.PageToken).
	cursors *cursorCache
	idxCfg  IndexConfig // guarded by: mu
}

// Open creates a DB over a fresh simulated cluster. For a durable DB
// rooted at a directory, use OpenAt. It fails only when the
// KVSTORE_DISK env toggle is set and the scratch store cannot be
// created.
func Open(cfg Config) (*DB, error) {
	p := sim.LC()
	if cfg.Profile != nil {
		p = *cfg.Profile
	}
	cluster, err := kvstore.NewCluster(p)
	if err != nil {
		return nil, err
	}
	return newDB(cluster), nil
}

// newDB assembles a DB around an existing cluster (fresh or recovered).
func newDB(cluster *kvstore.Cluster) *DB {
	db := &DB{
		cluster:   cluster,
		relations: map[string]*RelationHandle{},
		store:     core.NewIndexStore(),
		planCache: plan.NewCache(),
		cursors:   newCursorCache(),
	}
	db.defined = func(name string) bool { return db.Relation(name) != nil }
	return db
}

// Metrics returns the DB's metric collector (cumulative across all
// operations; use Snapshot/Sub or the per-query Result.Cost for deltas).
func (db *DB) Metrics() *Metrics { return db.cluster.Metrics() }

// AggregateCost reports the resources the DB has consumed so far, under
// the name Distributed reports its nodes' sum by.
func (db *DB) AggregateCost() sim.Snapshot { return db.cluster.Metrics().Snapshot() }

// Cluster exposes the underlying store for advanced use (examples and
// the bench harness inspect region layouts and table sizes through it).
func (db *DB) Cluster() *kvstore.Cluster { return db.cluster }

// MaintenanceError reports a maintained write that failed part-way,
// naming the divergent index and carrying the batch timestamp. Passing
// that timestamp to the core package's Maintainer.Write re-applies the
// transition idempotently. That entry point is internal: the public
// relation handles offer no timestamped re-apply.
type MaintenanceError = core.MaintenanceError

// RelationHandle wraps one rank-join input relation of a DB or of a
// Distributed. Reads and maintained writes work alike on both: a DB's
// handle applies a write through the relation's own Section 6
// maintainer, a Distributed's hands it to the router, which replicates
// it. The engine-local calls need a DB's engine: on a Distributed's
// handle Delete and WriteBackBFHM fail with ErrEngineLocal, and
// DiskSize reports 0.
type RelationHandle struct {
	rel core.Relation
	// db is the store of a DB's handle, router that of a Distributed's;
	// the other is nil.
	db     *DB
	router *topology.Router
	// writeMu serializes a DB's maintained writes to this relation:
	// Insert, Update, and DeleteKey are read-check-write sequences, and
	// two racing writers of one row key could otherwise both observe the
	// old state and strand index entries (the phantom-result bug the
	// upsert exists to prevent). Reads never take it. The router
	// serializes a Distributed's writes itself.
	writeMu sync.Mutex
}

// ErrEngineLocal refuses an engine-local call (Delete, WriteBackBFHM)
// on a Distributed's relation handle: those reach one engine's tables
// directly, and a router reaches its replicas only through resolved,
// stamped writes.
var ErrEngineLocal = errors.New("rankjoin: engine-local call on a Distributed's relation handle; it needs a DB")

// DefineRelation creates the backing table for a new relation. Relation
// names must be unique and become part of index table names.
func (db *DB) DefineRelation(name string) (*RelationHandle, error) {
	if err := kvstore.ValidateKeyComponent(name); err != nil {
		return nil, err
	}
	db.mu.Lock()
	if _, dup := db.relations[name]; dup {
		db.mu.Unlock()
		return nil, fmt.Errorf("rankjoin: relation %q already defined", name)
	}
	rel := relationFor(name)
	if _, err := db.cluster.CreateTable(rel.Table, []string{rel.Family}, nil); err != nil {
		db.mu.Unlock()
		return nil, err
	}
	h := &RelationHandle{db: db, rel: rel}
	db.relations[name] = h
	db.mu.Unlock()
	if err := db.saveCatalog(); err != nil {
		return nil, err
	}
	return h, nil
}

// Relation returns a previously defined relation handle, or nil.
func (db *DB) Relation(name string) *RelationHandle {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.relations[name]
}

// RelationNames lists defined relations in sorted order.
func (db *DB) RelationNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []string
	for n := range db.relations {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Name returns the relation's name.
func (h *RelationHandle) Name() string { return h.rel.Name }

// maintainer assembles the Section 6 update interceptor for the indexes
// currently built over this relation — ALL of them: a relation joined in
// several IJLMR queries has one IJLMR table per query, and each gets the
// mutation; its inverse score list, BFHM and DRJN index are one table
// each, however many trees read them.
func (h *RelationHandle) maintainer() *core.Maintainer {
	m := &core.Maintainer{C: h.db.cluster, Rel: h.rel}
	h.db.store.IJLMR.Each(func(_ string, idx *core.IJLMRIndex) {
		if slices.Contains(idx.Families, h.rel.Name) {
			m.IJLMR = append(m.IJLMR, core.BoundIJLMR{Idx: idx, Family: h.rel.Name})
		}
	})
	if idx, ok := h.db.store.ISL.Get(h.rel.Name); ok {
		m.ISL = idx
	}
	if idx, ok := h.db.store.BFHM.Get(h.rel.Name); ok {
		m.BFHM = idx
	}
	if idx, ok := h.db.store.DRJN.Get(h.rel.Name); ok {
		m.DRJN = idx
	}
	return m
}

// ScoreError refuses a write whose score is not a number in [0, 1]:
// NaN, ±Inf or out of range. Insert, Update, BatchInsert and BulkLoad
// return one before anything is written, on a DB and a Distributed
// alike: BFHM and DRJN lay their score histograms over [0, 1], so
// executors would disagree on how to rank any other score, and the TCP
// wire cannot carry a non-finite one.
type ScoreError struct {
	Relation string
	RowKey   string
	Score    float64
}

func (e *ScoreError) Error() string {
	return fmt.Sprintf("rankjoin: relation %q row %q: score %v is not a number in [0, 1]", e.Relation, e.RowKey, e.Score)
}

// checkScores returns a *ScoreError for the first tuple whose score is
// not a number in [0, 1].
func checkScores(relation string, tuples ...Tuple) error {
	for _, t := range tuples {
		if !(t.Score >= 0 && t.Score <= 1) { // false for NaN too
			return &ScoreError{Relation: relation, RowKey: t.RowKey, Score: t.Score}
		}
	}
	return nil
}

// checkBatch refuses a batch of new tuples before any of it is written
// or shipped: checkScores, then the engine's own check of each tuple
// (core.CheckWrite).
func checkBatch(relation string, tuples []Tuple) error {
	if err := checkScores(relation, tuples...); err != nil {
		return err
	}
	for i := range tuples {
		if err := core.CheckWrite(nil, &tuples[i]); err != nil {
			return fmt.Errorf("rankjoin: relation %q tuple %d: %w", relation, i, err)
		}
	}
	return nil
}

// Get reads the relation's current tuple for a row key (ok=false when
// the row is absent or lacks the join/score columns). A Distributed's
// handle prefers the leader and fails over across replicas.
func (h *RelationHandle) Get(rowKey string) (Tuple, bool, error) {
	if h.router != nil {
		t, err := h.router.Get(h.rel.Name, rowKey)
		if err != nil || t == nil {
			return Tuple{}, false, err
		}
		return *t, true, nil
	}
	row, err := h.db.cluster.Get(h.rel.Table, rowKey, h.rel.Family)
	if err != nil {
		return Tuple{}, false, err
	}
	if row == nil {
		return Tuple{}, false, nil
	}
	t, ok := core.TupleFromRow(&h.rel, row)
	return t, ok, nil
}

// Insert upserts one tuple, synchronously maintaining every index built
// over this relation (Section 6 semantics) — IJLMR, ISL, BFHM mutation
// records, and DRJN delta counters, shipped with the base write as one
// batched group mutation. If the row key already holds a live tuple the
// insert becomes an update, retiring the old index entries under the
// same timestamp: a blind re-insert used to leave the old score's
// inverse-list entries live, producing phantom results. On a
// Distributed the transition is resolved at the leader, stamped once,
// applied the same way on every replica, and acknowledged at quorum.
func (h *RelationHandle) Insert(rowKey, joinValue string, score float64) error {
	return h.write(rowKey, &Tuple{RowKey: rowKey, JoinValue: joinValue, Score: score}, false)
}

// Update replaces an existing tuple's join value and score, deleting the
// old index entries and inserting the new ones under a single timestamp.
// It reads the current tuple itself (the store IS the paper's
// interception point) and fails if the row is absent.
func (h *RelationHandle) Update(rowKey, joinValue string, score float64) error {
	return h.write(rowKey, &Tuple{RowKey: rowKey, JoinValue: joinValue, Score: score}, true)
}

// Delete removes a tuple blind: the caller supplies its current join
// value and score, as at the paper's interception point, and nothing is
// read first. Prefer DeleteKey. A blind delete retried after the offline
// write-back pass has folded its first mutation record applies a second
// time and corrupts BFHM and DRJN counts that live tuples share;
// DeleteKey reads the row under the write lock and does nothing once it
// is gone. It is engine-local: a Distributed's handle returns
// ErrEngineLocal.
func (h *RelationHandle) Delete(rowKey, joinValue string, score float64) error {
	if h.router != nil {
		return ErrEngineLocal
	}
	h.writeMu.Lock()
	defer h.writeMu.Unlock()
	return h.maintainer().Write(&Tuple{RowKey: rowKey, JoinValue: joinValue, Score: score}, nil, 0)
}

// DeleteKey removes a tuple by row key alone, reading its current join
// value and score first. It is a no-op for absent rows.
func (h *RelationHandle) DeleteKey(rowKey string) error {
	return h.write(rowKey, nil, false)
}

// write applies rowKey's transition to new (nil deletes) against the
// tuple the row holds now, read under the store's write lock: a DB's
// under writeMu, a Distributed's under the router's, at the leader.
func (h *RelationHandle) write(rowKey string, new *Tuple, mustExist bool) error {
	if new != nil {
		if err := checkScores(h.rel.Name, *new); err != nil {
			return err
		}
	}
	if h.router != nil {
		return h.router.Write(h.rel.Name, rowKey, func(cur *Tuple) (*Tuple, *Tuple, error) {
			return h.resolve(rowKey, cur, new, mustExist)
		})
	}
	h.writeMu.Lock()
	defer h.writeMu.Unlock()
	cur, ok, err := h.Get(rowKey)
	if err != nil {
		return err
	}
	var old *Tuple
	if ok {
		old = &cur
	}
	old, new, err = h.resolve(rowKey, old, new, mustExist)
	if err != nil || old == nil && new == nil {
		return err
	}
	return h.maintainer().Write(old, new, 0)
}

// resolve is the rule every single-row write follows once it has read
// the row's current tuple cur (nil when absent): an absent row makes the
// write an insert, fails it when mustExist, and makes a delete a no-op
// (no transition). A transition the engine would refuse is refused here,
// before anything is written or shipped.
func (h *RelationHandle) resolve(rowKey string, cur, new *Tuple, mustExist bool) (*Tuple, *Tuple, error) {
	switch {
	case cur == nil && mustExist:
		return nil, nil, fmt.Errorf("rankjoin: relation %q has no row %q to update", h.rel.Name, rowKey)
	case cur == nil && new == nil:
		return nil, nil, nil
	}
	return cur, new, core.CheckWrite(cur, new)
}

// BatchInsert inserts many NEW tuples with full index maintenance,
// batching their augmented mutations into chunked group writes (one
// write RPC per chunk instead of one per tuple; on a Distributed, one
// replicated op per transport.SplitBatch run). Unlike Insert it does
// not check for existing rows — reusing a live row key strands its old
// index entries, so load fresh keys only (use Insert or Update for
// overwrites, or BulkLoad + EnsureIndexes for initial loads).
func (h *RelationHandle) BatchInsert(tuples []Tuple) error {
	if err := checkBatch(h.rel.Name, tuples); err != nil {
		return err
	}
	if h.router != nil {
		return h.router.Load(h.rel.Name, transport.OpBatch, tuples)
	}
	h.writeMu.Lock()
	defer h.writeMu.Unlock()
	return h.maintainer().InsertBatch(tuples)
}

// BulkLoad inserts tuples efficiently WITHOUT index maintenance — load
// data first, then build indexes with EnsureIndexes. The cells land in
// one call of the store's bulk door (kvstore.Cluster.BulkWrite), which
// in memory mode leaves the relation's table in sorted runs, and the
// load is billed as one batched write per bulkLoadBatch cells. On a
// Distributed the router stamps each transport.SplitBatch run once and
// every replica lands it through its own bulk door at that timestamp,
// so the replicas stay byte-identical.
func (h *RelationHandle) BulkLoad(tuples []Tuple) error {
	if err := checkBatch(h.rel.Name, tuples); err != nil {
		return err
	}
	if h.router != nil {
		return h.router.Load(h.rel.Name, transport.OpBulk, tuples)
	}
	return h.bulkLoad(tuples, 0)
}

// bulkLoad lands tuples through the bulk door with every cell at ts (0
// stamps each cell afresh) and bills the load.
func (h *RelationHandle) bulkLoad(tuples []Tuple, ts int64) error {
	cells := make([]kvstore.Cell, 0, 2*len(tuples))
	for _, t := range tuples {
		cells = append(cells,
			kvstore.Cell{Row: t.RowKey, Family: h.rel.Family, Qualifier: h.rel.JoinQual, Value: []byte(t.JoinValue), Timestamp: ts},
			kvstore.Cell{Row: t.RowKey, Family: h.rel.Family, Qualifier: h.rel.ScoreQual, Value: kvstore.FloatValue(t.Score), Timestamp: ts},
		)
	}
	c := h.db.cluster
	//lint:allow maintcheck BulkLoad is the documented unmaintained path; EnsureIndexes rebuilds afterwards
	if _, err := c.BulkWrite(h.rel.Table, cells); err != nil {
		return err
	}
	for lo := 0; lo < len(cells); lo += bulkLoadBatch {
		c.ChargeBatchWrite(cells[lo:min(lo+bulkLoadBatch, len(cells))])
	}
	return nil
}

// bulkLoadBatch is the cells BulkLoad bills as one batched write.
const bulkLoadBatch = 4096

// DiskSize returns the relation's stored bytes. It is engine-local and
// has no error to return, so a Distributed's handle reports 0: its
// replicas each store their own copy, and a router holds none.
func (h *RelationHandle) DiskSize() uint64 {
	if h.router != nil {
		return 0
	}
	sz, _ := h.db.cluster.TableDiskSize(h.rel.Table)
	return sz
}

// WriteBackBFHM runs the offline write-back pass for this relation —
// every BFHM bucket row and DRJN band row holding mutation records has
// them folded into a fresh blob and purged — returning how many rows
// were rewritten. It is engine-local: a Distributed's handle returns
// ErrEngineLocal.
func (h *RelationHandle) WriteBackBFHM() (int, error) {
	if h.router != nil {
		return 0, ErrEngineLocal
	}
	h.writeMu.Lock()
	defer h.writeMu.Unlock()
	return h.maintainer().WriteBackAll()
}
