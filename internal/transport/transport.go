// Package transport is the RPC seam between the query/routing layer and
// the region servers that host replicated rank-join data.
//
// RegionService is the region server's whole wire surface: replicated
// writes arrive pre-resolved and pre-stamped (the router reads the
// current tuple at the leader and assigns the group timestamp, so every
// replica applies the byte-identical deterministic mutation), queries
// ship whole to a replica and run against its local engine (the paper's
// design point — rank-join executes inside the store, next to the
// data), and the anti-entropy protocol moves Merkle trees and raw cell
// ranges between replicas.
//
// Two implementations exist: NodeService (in the root package, wrapping
// a node-local DB; a loopback topology calls it in-process with no
// serialization) and the TCP Client/Server pair in this package, which
// a topology uses to reach a node in another process (cmd/rjnode) that
// serves a NodeService. Gate wraps any implementation with a kill
// switch for node-failure tests.
//
// The messages carry the engine's own types: a tuple is a core.Tuple, a
// ranked answer a core.JoinResult, a tree edge a core.TreeEdge, a cost a
// sim.Snapshot, a planner estimate a sim.Snapshot as well, and a repair
// payload's cell a kvstore.Cell, so neither side converts anything at
// the seam. Their JSON tags fix the wire names.
//
// On TCP every message is one frame: a 14-byte binary header (the
// version byte 0xF4, the sequence number, the method code or response
// status, the body length) followed by the message's body, which the
// receiver decodes once, straight into the typed request or response
// (codec.go). A TopK reply's body is its ResultData in a hand-written
// binary layout (result.go), since ranked results are what crosses the
// network on every query; every other body, and every error body, is
// JSON; one generic helper decodes every JSON request (server.go). The
// router and its nodes must come from the same build: a peer speaking
// another frame version is refused on its first frame with a typed
// *Error that names both versions and is not KindUnavailable, so the
// router reports it instead of failing over. A server sends that error
// as one frame in its own format before it hangs up, so an older client
// refuses it typed as well.
package transport

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/merkle"
	"repro/internal/sim"
)

// Error kinds, carried across the wire so the router can react without
// string matching.
const (
	// KindUnavailable marks transport-level failures: the node is
	// down, unreachable, or stopped. The router fails over.
	KindUnavailable = "unavailable"
	// KindCorruption marks storage corruption detected while serving
	// (checksum failures, quarantined tables). The router schedules a
	// full resync of the affected table.
	KindCorruption = "corruption"
	// KindBadRequest marks requests the node rejected as malformed;
	// retrying elsewhere will not help.
	KindBadRequest = "bad_request"
	// KindCanceled marks a query that tripped its deadline or context
	// node-side; the bound is the caller's, so no failover.
	KindCanceled = "canceled"
	// KindBudget marks a query that exhausted its MaxReadUnits spend
	// cap node-side; retrying elsewhere would just spend it again.
	KindBudget = "budget_exhausted"
	// KindLostCursor marks a follow-up page whose token names no cursor
	// on the node (expired, already taken, or lost with a restart). The
	// router re-runs the query on a survivor; a token the node still
	// holds but refuses stays KindInternal and reaches the caller.
	KindLostCursor = "lost_cursor"
	// KindInternal marks all other node-side failures.
	KindInternal = "internal"
)

// Error is the typed wire error.
type Error struct {
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
}

func (e *Error) Error() string { return fmt.Sprintf("transport: %s: %s", e.Kind, e.Msg) }

// ErrUnavailable matches any unavailable-kind Error via errors.Is.
var ErrUnavailable = errors.New("transport: node unavailable")

// Is makes every KindUnavailable error match ErrUnavailable.
func (e *Error) Is(target error) bool {
	return target == ErrUnavailable && e.Kind == KindUnavailable
}

// Unavailable builds a transport-failure error.
func Unavailable(format string, args ...any) *Error {
	return &Error{Kind: KindUnavailable, Msg: fmt.Sprintf(format, args...)}
}

// TupleData is core.Tuple under its old wire name, kept because the
// benchmark's transport probe spells WriteOp tuples with it.
type TupleData = core.Tuple

// Write-op kinds. OpBatch inserts Batch with index maintenance; OpBulk
// lands it unmaintained through the node's bulk door, every cell at TS.
const (
	OpInsert = "insert"
	OpUpdate = "update"
	OpDelete = "delete"
	OpBatch  = "batch"
	OpBulk   = "bulk"
)

// WriteOp is one replicated, resolved, pre-stamped mutation. The router
// resolves upserts against the leader (filling Old for updates and
// deletes) and stamps TS once, so applying the op is deterministic:
// every replica derives the identical base + index cell batch, and
// re-applying after a partial failure is idempotent (same timestamps).
type WriteOp struct {
	Relation string       `json:"relation"`
	Kind     string       `json:"kind"`
	Old      *core.Tuple  `json:"old,omitempty"`
	New      *core.Tuple  `json:"new,omitempty"`
	Batch    []core.Tuple `json:"batch,omitempty"`
	TS       int64        `json:"ts"`
}

// SplitBatch cuts a batch into runs whose WriteOp bodies stay under half
// of maxFrame, pricing each tuple at its JSON's worst case: every string
// byte escaped to six, plus the field names and a score. Loads at the
// scale factors the bench and rjserve run ship as one run per relation.
// An empty batch has no runs.
func SplitBatch(tuples []core.Tuple) [][]core.Tuple {
	const tupleJSON = 64 // {"row_key":"","join_value":"","score":…},
	var runs [][]core.Tuple
	lo, size := 0, 0
	for i := range tuples {
		n := 6*(len(tuples[i].RowKey)+len(tuples[i].JoinValue)) + tupleJSON
		if size+n > maxFrame/2 && i > lo {
			runs, lo, size = append(runs, tuples[lo:i]), i, 0
		}
		size += n
	}
	if lo < len(tuples) {
		runs = append(runs, tuples[lo:])
	}
	return runs
}

// TreeData is the wire form of a join-tree query shape: relations by
// name (each node rebuilds the canonical Relation mapping locally) plus
// the edge predicates. Every query the library ships carries one.
type TreeData struct {
	Relations []string        `json:"relations"`
	Edges     []core.TreeEdge `json:"edges"`
}

// QueryRequest ships one top-k (or next-page) execution to a replica.
type QueryRequest struct {
	Tree TreeData `json:"tree"`
	// Left and Right name a two-way equi-join in place of Tree: the form
	// the benchmark's transport probe sends. Shape folds them into Tree.
	Left      string `json:"left"`
	Right     string `json:"right"`
	Score     string `json:"score"` // aggregate name: "sum" or "product"
	K         int    `json:"k"`
	Algo      string `json:"algo"`
	Objective string `json:"objective,omitempty"`
	// ISLBatch / Parallelism mirror QueryOptions.
	ISLBatch    int    `json:"isl_batch,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
	PageToken   string `json:"page_token,omitempty"`
	// TimeoutNanos / MaxReadUnits bound the node-side execution; nanos
	// so a nearly-spent client deadline still trips on arrival instead
	// of rounding away.
	TimeoutNanos int64  `json:"timeout_nanos,omitempty"`
	MaxReadUnits uint64 `json:"max_read_units,omitempty"`
}

// Shape returns the join tree the request names: Tree, or the two-leaf
// equi tree over Left and Right when Tree has no leaves.
func (r *QueryRequest) Shape() TreeData {
	if len(r.Tree.Relations) > 0 {
		return r.Tree
	}
	return TreeData{Relations: []string{r.Left, r.Right}, Edges: []core.TreeEdge{{A: 0, B: 1, Kind: core.PredEqui}}}
}

// ResultData is a completed node-side query: the fields of the node's
// core.Result, as the node's engine produced them.
type ResultData struct {
	Results       []core.JoinResult `json:"results"`
	Cost          sim.Snapshot      `json:"cost"`
	Algorithm     string            `json:"algorithm"`
	NextPageToken string            `json:"next_page_token,omitempty"`
	// Estimate is the planner's predicted cost when the node planned the
	// query (algo=auto), in Cost's type.
	Estimate *sim.Snapshot `json:"estimate,omitempty"`
}

// EnsureRequest asks a replica to build the named index families for a
// query (each replica builds its own indexes from its replicated base
// data; determinism keeps them byte-identical across replicas).
type EnsureRequest struct {
	Tree  TreeData `json:"tree"`
	Score string   `json:"score"`
	Algos []string `json:"algos"`
}

// GetResponse carries a point read's resolution (Tuple nil = absent).
type GetResponse struct {
	Tuple *core.Tuple `json:"tuple,omitempty"`
}

// HealthInfo is a node's self-report.
type HealthInfo struct {
	Node        string   `json:"node"`
	Relations   []string `json:"relations"`
	Tables      []string `json:"tables"`
	Quarantined []string `json:"quarantined,omitempty"`
	// Clock is the node's logical timestamp high-water mark; the router
	// keeps its group-write stamps above every replica's clock so
	// node-local stamps (index builds, repair tombstones) never shadow
	// replicated cells.
	Clock int64        `json:"clock"`
	Cost  sim.Snapshot `json:"cost"`
}

// TreeRequest asks for a table's Merkle tree.
type TreeRequest struct {
	Table string `json:"table"`
}

// RangeRequest fetches the raw live cells of the rows whose hash tokens
// fall in the given Merkle leaves — the repair payload source.
type RangeRequest struct {
	Table string `json:"table"`
	// Indexes lists divergent leaf indexes; empty means every row (a
	// full-table fetch for corruption resyncs).
	Indexes []int `json:"indexes,omitempty"`
}

// RangeData is a repair payload: the source replica's families and its
// live cells in the requested leaves, in row order. The target deletes
// its own rows in those leaves that no cell names.
type RangeData struct {
	Families []string       `json:"families"`
	Cells    []kvstore.Cell `json:"cells"`
}

// RepairRequest applies a repair payload on the target replica.
type RepairRequest struct {
	Table string `json:"table"`
	// Indexes scopes the repair; with Full set the whole table is
	// replaced (corruption resync: drop, recreate, re-ingest).
	Indexes []int     `json:"indexes,omitempty"`
	Full    bool      `json:"full,omitempty"`
	Range   RangeData `json:"range"`
}

// RepairStats reports what a repair application changed.
type RepairStats struct {
	RowsDeleted  int `json:"rows_deleted"`
	CellsApplied int `json:"cells_applied"`
}

// RegionService is the region-server RPC surface. Every method is safe
// for concurrent callers.
type RegionService interface {
	// Health probes liveness and reports the node's served state.
	Health() (*HealthInfo, error)
	// DefineRelation creates (idempotently) a relation's backing table.
	DefineRelation(name string) error
	// EnsureIndexes builds the requested index families node-locally.
	EnsureIndexes(req EnsureRequest) error
	// Apply executes one resolved, pre-stamped replicated write.
	Apply(op WriteOp) error
	// GetTuple resolves a relation row's current tuple (leader reads).
	GetTuple(relation, rowKey string) (*GetResponse, error)
	// TopK runs one query (or next page) against the local engine.
	TopK(req QueryRequest) (*ResultData, error)
	// MerkleTree summarizes a table's live contents for anti-entropy.
	MerkleTree(req TreeRequest) (*merkle.Tree, error)
	// FetchRange extracts a repair payload.
	FetchRange(req RangeRequest) (*RangeData, error)
	// Repair applies a repair payload.
	Repair(req RepairRequest) (*RepairStats, error)
	// Close releases the handle (clients drop connections; loopback
	// closes nothing — the owner closes the DB).
	Close() error
}
