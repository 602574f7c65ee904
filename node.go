package rankjoin

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/merkle"
	"repro/internal/transport"
)

// NodeService adapts one node-local DB to the transport.RegionService
// seam. A region server hosts the FULL engine — base tables, index
// tables, and all seven executors — and the seam ships work to it at
// node granularity: resolved pre-stamped writes to apply, whole top-k
// queries to execute next to the data (the paper's design point), and
// anti-entropy tree/range/repair traffic. cmd/rjnode serves one of
// these over TCP; the loopback topology calls it in-process.
//
// NodeService itself holds no mutable state: every field is set at
// construction, and concurrency control lives in the DB underneath
// (writeMu per relation, cluster-internal locks), so all methods are
// safe for concurrent callers.
type NodeService struct {
	name string
	db   *DB
}

// NewNodeService wraps a DB as a region service named name. The caller
// keeps ownership of the DB and closes it after the service retires.
func NewNodeService(name string, db *DB) *NodeService {
	return &NodeService{name: name, db: db}
}

// queryFromWire rebuilds the query a request describes. The aggregate
// crosses the seam by name because ScoreFunc carries a Go function value.
func (n *NodeService) queryFromWire(tree transport.TreeData, score string, k int) (Query, error) {
	f, ok := core.ScoreByName(score)
	if !ok {
		return Query{}, badRequest("unknown score aggregate %q", score)
	}
	q, err := n.db.NewTreeQuery(tree.Relations, tree.Edges, f, k)
	if err != nil {
		return Query{}, badRequest("%v", err)
	}
	return q, nil
}

// wrapNodeErr types a node-side failure for the wire: corruption keeps
// its kind (the router schedules a resync), a local disk I/O failure
// makes this replica unavailable for the request (the router fails over
// to a replica whose disk works — retrying here cannot help, kvstore
// already exhausted its read retries), already-typed errors pass
// through, everything else is internal.
func wrapNodeErr(err error) error {
	if err == nil {
		return nil
	}
	var te *transport.Error
	if errors.As(err, &te) {
		return te
	}
	if errors.Is(err, ErrCorruption) {
		return &transport.Error{Kind: transport.KindCorruption, Msg: err.Error()}
	}
	var ioe *kvstore.IOError
	if errors.As(err, &ioe) {
		return &transport.Error{Kind: transport.KindUnavailable, Msg: err.Error()}
	}
	// Tripped query bounds keep their kind so the router front-end can
	// answer 408/507 instead of 500. The partial results a typed
	// CanceledError/BudgetExceededError carries do not cross the seam —
	// only the classification does.
	var ce *CanceledError
	if errors.As(err, &ce) {
		return &transport.Error{Kind: transport.KindCanceled, Msg: err.Error()}
	}
	var be *BudgetExceededError
	if errors.As(err, &be) {
		return &transport.Error{Kind: transport.KindBudget, Msg: err.Error()}
	}
	// A page token naming no cursor here is the one page failure the
	// router may answer by re-running the query elsewhere.
	if errors.Is(err, errUnknownPageToken) {
		return &transport.Error{Kind: transport.KindLostCursor, Msg: err.Error()}
	}
	return &transport.Error{Kind: transport.KindInternal, Msg: err.Error()}
}

func badRequest(format string, args ...any) *transport.Error {
	return &transport.Error{Kind: transport.KindBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// Health implements transport.RegionService.
func (n *NodeService) Health() (*transport.HealthInfo, error) {
	return &transport.HealthInfo{
		Node:        n.name,
		Relations:   n.db.RelationNames(),
		Tables:      n.db.cluster.TableNames(),
		Quarantined: n.db.cluster.Quarantined(),
		Clock:       n.db.cluster.Clock(),
		Cost:        n.db.Metrics().Snapshot(),
	}, nil
}

// DefineRelation implements transport.RegionService. Unlike
// DB.DefineRelation it is idempotent: replicated definitions re-arrive
// on retries and topology changes.
func (n *NodeService) DefineRelation(name string) error {
	if n.db.Relation(name) != nil {
		return nil
	}
	if _, err := n.db.DefineRelation(name); err != nil {
		return wrapNodeErr(err)
	}
	return nil
}

// EnsureIndexes implements transport.RegionService: each replica builds
// its own index tables from its replicated base data. Builds are
// deterministic given identical base tables, so replicas converge on
// byte-identical index tables too.
func (n *NodeService) EnsureIndexes(req transport.EnsureRequest) error {
	q, err := n.queryFromWire(req.Tree, req.Score, 1)
	if err != nil {
		return err
	}
	algos := make([]Algorithm, len(req.Algos))
	for i, a := range req.Algos {
		algos[i] = Algorithm(a)
	}
	return wrapNodeErr(n.db.EnsureIndexes(q, algos...))
}

// Apply implements transport.RegionService: one resolved, pre-stamped
// write, applied with full index maintenance at the carried timestamp —
// or, for OpBulk, landed unmaintained through the bulk door with every
// cell at it, as BulkLoad lands a DB's. The transition was resolved
// against the leader's tuple (Old is the tuple the row held, nil for an
// insert; New replaces it, nil for a delete) and the router stamped TS
// once for the whole replica group, so this application is
// deterministic and idempotent — the replica's base AND index tables
// end up byte-identical to its peers'. The kind arrives off the wire,
// so an unknown one is refused.
func (n *NodeService) Apply(op transport.WriteOp) error {
	h := n.db.Relation(op.Relation)
	if h == nil {
		return badRequest("relation %q not defined on node %s", op.Relation, n.name)
	}
	// Advance the local clock past the router's stamp FIRST: any later
	// locally-stamped write (repair tombstones, a failover leader's next
	// resolution) must sort above this op's cells.
	n.db.cluster.ObserveClock(op.TS)
	h.writeMu.Lock()
	defer h.writeMu.Unlock()
	var err error
	switch op.Kind {
	case transport.OpInsert, transport.OpUpdate, transport.OpDelete:
		err = h.maintainer().Write(op.Old, op.New, op.TS)
	case transport.OpBatch:
		err = h.maintainer().InsertBatchAt(op.Batch, op.TS)
	case transport.OpBulk:
		// The bulk door stores what it is given, so the tuple check the
		// maintained kinds get from the engine is made here.
		if err := checkBatch(op.Relation, op.Batch); err != nil {
			return badRequest("%s", err)
		}
		err = h.bulkLoad(op.Batch, op.TS)
	default:
		return badRequest("unknown write-op kind %q", op.Kind)
	}
	return wrapNodeErr(err)
}

// GetTuple implements transport.RegionService (the router's resolution
// read before an upsert or delete).
func (n *NodeService) GetTuple(relation, rowKey string) (*transport.GetResponse, error) {
	h := n.db.Relation(relation)
	if h == nil {
		return nil, badRequest("relation %q not defined on node %s", relation, n.name)
	}
	t, ok, err := h.Get(rowKey)
	if err != nil {
		return nil, wrapNodeErr(err)
	}
	if !ok {
		return &transport.GetResponse{}, nil
	}
	return &transport.GetResponse{Tuple: &t}, nil
}

// TopK implements transport.RegionService: the whole query runs against
// this node's local engine and only the ranked results (plus the cost
// actually consumed) cross the wire back.
func (n *NodeService) TopK(req transport.QueryRequest) (*transport.ResultData, error) {
	q, err := n.queryFromWire(req.Shape(), req.Score, req.K)
	if err != nil {
		return nil, err
	}
	opts := &QueryOptions{
		ISLBatch:     req.ISLBatch,
		Parallelism:  req.Parallelism,
		Objective:    Objective(req.Objective),
		PageToken:    req.PageToken,
		MaxReadUnits: req.MaxReadUnits,
	}
	if req.TimeoutNanos > 0 {
		opts.Deadline = time.Now().Add(time.Duration(req.TimeoutNanos))
	}
	algo := Algorithm(req.Algo)
	if algo == "" {
		algo = AlgoAuto
	}
	res, err := n.db.TopK(q, algo, opts)
	if err != nil {
		return nil, wrapNodeErr(err)
	}
	return &transport.ResultData{
		Results:       res.Results,
		Cost:          res.Cost,
		Algorithm:     res.Algorithm,
		NextPageToken: res.NextPageToken,
		Estimate:      res.Estimate,
	}, nil
}

// MerkleTree implements transport.RegionService. A table this replica
// never saw summarizes as an all-empty tree, so "missing" needs no
// protocol case. A corrupt table fails typed instead (this replica
// cannot honestly summarize state it cannot read), which the router
// answers with a full resync.
func (n *NodeService) MerkleTree(req transport.TreeRequest) (*merkle.Tree, error) {
	tree, err := n.db.cluster.MerkleTree(req.Table)
	return tree, wrapNodeErr(err)
}

// FetchRange implements transport.RegionService: the repair-payload
// read on the source replica, the rows in the requested leaves or, with
// none, the whole table (a full resync's source).
func (n *NodeService) FetchRange(req transport.RangeRequest) (*transport.RangeData, error) {
	families, cells, err := n.db.cluster.RepairRange(req.Table, req.Indexes)
	if errors.Is(err, kvstore.ErrNoTable) {
		return nil, badRequest("node %s has no table %q to fetch from", n.name, req.Table)
	}
	if err != nil {
		return nil, wrapNodeErr(err)
	}
	return &transport.RangeData{Families: families, Cells: cells}, nil
}

// Repair implements transport.RegionService: apply a source replica's
// payload locally (kvstore.Cluster.Repair).
func (n *NodeService) Repair(req transport.RepairRequest) (*transport.RepairStats, error) {
	deleted, applied, err := n.db.cluster.Repair(req.Table, req.Range.Families, req.Range.Cells, req.Indexes, req.Full)
	if err != nil {
		return nil, wrapNodeErr(err)
	}
	return &transport.RepairStats{RowsDeleted: deleted, CellsApplied: applied}, nil
}

// Close implements transport.RegionService. The DB's owner closes it.
func (n *NodeService) Close() error { return nil }

var _ transport.RegionService = (*NodeService)(nil)
