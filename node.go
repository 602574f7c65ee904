package rankjoin

import (
	"errors"
	"fmt"
	"sort"
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
// write, applied with full index maintenance at the carried timestamp.
// The router resolved the transition at the leader (Old is the tuple
// the row held, nil for an insert; New replaces it, nil for a delete)
// and stamped TS once for the whole replica group, so this application
// is deterministic and idempotent — the replica's base AND index tables
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
	m := h.maintainer()
	switch op.Kind {
	case transport.OpInsert, transport.OpUpdate, transport.OpDelete:
		return wrapNodeErr(m.Write(op.Old, op.New, op.TS))
	case transport.OpBatch:
		return wrapNodeErr(m.InsertBatchAt(op.Batch, op.TS))
	default:
		return badRequest("unknown write-op kind %q", op.Kind)
	}
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

// groupRows splits a table snapshot into per-row cell runs, preserving
// each row's storage order (the digest part order) and returning the
// row keys sorted.
func groupRows(cells []kvstore.Cell) ([]string, map[string][]kvstore.Cell) {
	byRow := map[string][]kvstore.Cell{}
	var rows []string
	for i := range cells {
		if _, ok := byRow[cells[i].Row]; !ok {
			rows = append(rows, cells[i].Row)
		}
		byRow[cells[i].Row] = append(byRow[cells[i].Row], cells[i])
	}
	sort.Strings(rows)
	return rows, byRow
}

// MerkleTree implements transport.RegionService. A table this replica
// never saw summarizes as an all-empty tree — every populated source
// leaf then diverges, and the repair recreates the table — so "missing"
// needs no special protocol case. A corrupt table fails typed instead
// (this replica cannot honestly summarize state it cannot read), which
// the router answers with a full resync.
func (n *NodeService) MerkleTree(req transport.TreeRequest) (*merkle.Tree, error) {
	b := merkle.NewBuilder(req.Leaves)
	if !n.db.cluster.HasTable(req.Table) {
		return b.Build(), nil
	}
	cells, err := n.db.cluster.TableCells(req.Table)
	if err != nil {
		return nil, wrapNodeErr(err)
	}
	rows, byRow := groupRows(cells)
	for _, row := range rows {
		b.Add(row, merkle.HashRow(row, kvstore.RowDigestParts(byRow[row])...))
	}
	n.db.cluster.ChargeMerkleScan(kvstore.MerkleScanStats{Rows: len(rows), Cells: len(cells)})
	return b.Build(), nil
}

// FetchRange implements transport.RegionService: the repair-payload
// read on the source replica. With leaf indexes it ships only the rows
// whose hash tokens fall in those leaves; without, the whole table
// (full-resync source).
func (n *NodeService) FetchRange(req transport.RangeRequest) (*transport.RangeData, error) {
	if !n.db.cluster.HasTable(req.Table) {
		return nil, badRequest("node %s has no table %q to fetch from", n.name, req.Table)
	}
	families, err := n.db.cluster.TableFamilies(req.Table)
	if err != nil {
		return nil, wrapNodeErr(err)
	}
	cells, err := n.db.cluster.TableCells(req.Table)
	if err != nil {
		return nil, wrapNodeErr(err)
	}
	leaves := merkle.NormalizeLeaves(req.Leaves)
	var want map[int]bool
	if len(req.Indexes) > 0 {
		want = make(map[int]bool, len(req.Indexes))
		for _, i := range req.Indexes {
			want[i] = true
		}
	}
	out := &transport.RangeData{Families: families}
	rows, byRow := groupRows(cells)
	for _, row := range rows {
		if want != nil && !want[merkle.LeafIndex(leaves, row)] {
			continue
		}
		out.Rows = append(out.Rows, row)
		for _, c := range byRow[row] {
			out.Cells = append(out.Cells, transport.CellData{
				Row: c.Row, Family: c.Family, Qualifier: c.Qualifier,
				Value: c.Value, Timestamp: c.Timestamp,
			})
		}
	}
	return out, nil
}

// Repair implements transport.RegionService: apply a source replica's
// payload locally. Full repairs replace the table wholesale; scoped
// repairs overwrite the shipped rows at their original timestamps and
// delete this replica's own rows in the divergent leaves that the
// source lacks (tombstoned at a fresh local timestamp — invisible to
// the digest, so trees still converge).
func (n *NodeService) Repair(req transport.RepairRequest) (*transport.RepairStats, error) {
	cells := make([]kvstore.Cell, len(req.Range.Cells))
	for i, c := range req.Range.Cells {
		cells[i] = kvstore.Cell{Row: c.Row, Family: c.Family, Qualifier: c.Qualifier,
			Value: c.Value, Timestamp: c.Timestamp}
	}
	if req.Full {
		applied, err := n.db.cluster.RepairReplace(req.Table, req.Range.Families, cells)
		if err != nil {
			return nil, wrapNodeErr(err)
		}
		return &transport.RepairStats{CellsApplied: applied}, nil
	}
	deleteRows, err := n.staleRows(req)
	if err != nil {
		return nil, err
	}
	deleted, applied, err := n.db.cluster.RepairApply(req.Table, req.Range.Families, cells, deleteRows)
	if err != nil {
		return nil, wrapNodeErr(err)
	}
	return &transport.RepairStats{RowsDeleted: deleted, CellsApplied: applied}, nil
}

// staleRows lists this replica's own rows inside the repair's divergent
// leaves that the source payload does not carry — rows the source
// deleted (or never had) that must go.
func (n *NodeService) staleRows(req transport.RepairRequest) ([]string, error) {
	if !n.db.cluster.HasTable(req.Table) {
		return nil, nil
	}
	local, err := n.db.cluster.TableCells(req.Table)
	if err != nil {
		// Cannot enumerate local rows (likely corruption): fail typed so
		// the router escalates to a full resync.
		return nil, wrapNodeErr(err)
	}
	srcRows := make(map[string]bool, len(req.Range.Rows))
	for _, r := range req.Range.Rows {
		srcRows[r] = true
	}
	leaves := merkle.NormalizeLeaves(req.Leaves)
	var want map[int]bool
	if len(req.Indexes) > 0 {
		want = make(map[int]bool, len(req.Indexes))
		for _, i := range req.Indexes {
			want[i] = true
		}
	}
	rows, _ := groupRows(local)
	var stale []string
	for _, row := range rows {
		if want != nil && !want[merkle.LeafIndex(leaves, row)] {
			continue
		}
		if !srcRows[row] {
			stale = append(stale, row)
		}
	}
	return stale, nil
}

// Close implements transport.RegionService. The DB's owner closes it.
func (n *NodeService) Close() error { return nil }

var _ transport.RegionService = (*NodeService)(nil)
