package rankjoin

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// This file is the distributed front-end: a Distributed handle fronts N
// region servers (in-process loopback nodes, TCP rjnode processes, or a
// mix) behind the transport seam, replicating every relation and
// shipping whole queries to replicas. It builds the same Query values
// as a DB (the embedded queryBuilder), answers TopK with the same
// Result and Stream with the same Rows, and its relation handles carry
// the same maintained writes, so a caller written against that surface
// — cmd/rjserve is one — holds either store without knowing which.

// NodeSpec names one region server of a distributed topology.
type NodeSpec struct {
	// Name identifies the node in status output and repair reports.
	// Empty names default to "node<i>".
	Name string
	// Addr, when set, connects to an rjnode process serving TCP at that
	// address (the node owns its own storage). When empty the node runs
	// in-process (loopback): a full DB inside this process, reached with
	// zero serialization.
	Addr string
	// Dir roots a durable in-process node (ignored with Addr). Empty
	// means memory-backed.
	Dir string
	// VFS overrides the filesystem a durable in-process node opens its
	// files through — fault-injection tests seed faultfs schedules here.
	VFS VFS
}

// Topology configures OpenDistributed: the nodes and how many of them
// replicate each relation. A write needs acks from a majority of its
// relation's replicas, and anti-entropy diffs Merkle trees of 64
// leaves.
type Topology struct {
	// Nodes lists the region servers in topology order (order matters:
	// replica groups are contiguous runs, leaders come first).
	Nodes []NodeSpec
	// Replication is the replicas-per-relation factor; 0 = full
	// replication (every node hosts everything, any node serves any
	// query).
	Replication int
}

// Typed distribution failures, re-exported from the topology layer.
type (
	// NoReplicaError reports a read or query no replica could serve.
	NoReplicaError = topology.NoReplicaError
	// ReplicationError reports a write that failed to reach its quorum.
	ReplicationError = topology.ReplicationError
	// RepairReport summarizes one anti-entropy pass.
	RepairReport = topology.RepairReport
	// TableRepair records one target-table repair within a RepairReport.
	TableRepair = topology.TableRepair
	// NodeStatus is one node's liveness/dirtiness row.
	NodeStatus = topology.NodeStatus
)

// ErrUnavailable matches transport-level node failures via errors.Is.
var ErrUnavailable = transport.ErrUnavailable

// Distributed fronts a replicated topology of region servers as one
// logical rank-join store.
type Distributed struct {
	queryBuilder
	router *topology.Router
	gates  map[string]*transport.Gate // node name → kill switch (StopNode)
	locals map[string]*DB             // node name → in-process DB (loopback nodes)
	order  []string                   // node names, topology order
}

// OpenDistributed assembles a distributed store from cfg.Topology:
// in-process DBs for loopback nodes, TCP clients for Addr nodes, every
// node behind a Gate (StopNode/StartNode simulate failures uniformly),
// all routed by an internal/topology router. cfg.Profile applies to
// loopback nodes; Dir/VFS in the top-level Config are ignored (set them
// per NodeSpec).
func OpenDistributed(cfg Config) (*Distributed, error) {
	t := cfg.Topology
	if t == nil || len(t.Nodes) == 0 {
		return nil, fmt.Errorf("rankjoin: OpenDistributed needs Config.Topology with at least one node")
	}
	d := &Distributed{gates: map[string]*transport.Gate{}, locals: map[string]*DB{}}
	fail := func(err error) (*Distributed, error) {
		_ = d.Close()
		return nil, err
	}
	var handles []topology.Handle
	for i, spec := range t.Nodes {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("node%d", i)
		}
		var svc transport.RegionService
		if spec.Addr != "" {
			svc = transport.Dial(spec.Addr)
		} else {
			nodeCfg := Config{Profile: cfg.Profile, Dir: spec.Dir, VFS: spec.VFS}
			var db *DB
			var err error
			if spec.Dir != "" {
				db, err = OpenAt(nodeCfg)
			} else {
				db, err = Open(nodeCfg)
			}
			if err != nil {
				return fail(fmt.Errorf("rankjoin: open node %s: %w", name, err))
			}
			d.locals[name] = db
			svc = NewNodeService(name, db)
		}
		g := transport.NewGate(svc)
		d.gates[name] = g
		d.order = append(d.order, name)
		handles = append(handles, topology.Handle{Name: name, Svc: g})
	}
	r, err := topology.New(handles, topology.Config{Replication: t.Replication})
	if err != nil {
		return fail(err)
	}
	d.router = r
	d.defined = func(name string) bool { return r.ReplicasFor(name) != nil }
	return d, nil
}

// Close releases every node handle and closes in-process node DBs.
func (d *Distributed) Close() error {
	var first error
	if d.router != nil {
		first = d.router.Close()
	}
	for _, db := range d.locals {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Nodes lists node names in topology order.
func (d *Distributed) Nodes() []string { return append([]string(nil), d.order...) }

// NodeDB returns an in-process node's DB (nil for TCP nodes) — tests
// inspect and damage replica state through it.
func (d *Distributed) NodeDB(name string) *DB { return d.locals[name] }

// StopNode simulates a node crash: every subsequent call to it fails
// unavailable until StartNode. Works uniformly for loopback and TCP
// nodes (the gate sits client-side).
func (d *Distributed) StopNode(name string) error {
	g, ok := d.gates[name]
	if !ok {
		return fmt.Errorf("rankjoin: unknown node %q", name)
	}
	g.Stop()
	return nil
}

// StartNode revives a stopped node. It comes back dirty if it missed
// acked writes; Repair re-admits it.
func (d *Distributed) StartNode(name string) error {
	g, ok := d.gates[name]
	if !ok {
		return fmt.Errorf("rankjoin: unknown node %q", name)
	}
	g.Start()
	return nil
}

// Repair runs one anti-entropy pass over every placed table: Merkle
// trees are diffed per replica group, divergent leaves re-shipped from
// the group's clean source, corrupt tables fully resynced, and
// converged nodes re-admitted to leader duty.
func (d *Distributed) Repair() (*RepairReport, error) { return d.router.RepairAll() }

// Status probes every node: liveness, dirtiness, served relations, and
// quarantined regions — the rjserve /metrics replica-status payload.
func (d *Distributed) Status() []NodeStatus { return d.router.Status() }

// AggregateCost sums the reachable nodes' cumulative metrics — the
// whole topology's consumed resources (loopback and TCP alike, since
// each node meters its own engine).
func (d *Distributed) AggregateCost() sim.Snapshot {
	var total sim.Snapshot
	for _, name := range d.order {
		g := d.gates[name]
		h, err := g.Health()
		if err != nil {
			continue
		}
		total = total.Add(h.Cost)
	}
	return total
}

// DistRelation is the distributed counterpart of RelationHandle: every
// write goes through the router's resolve→stamp→replicate protocol.
type DistRelation struct {
	d    *Distributed
	name string
}

// DefineRelation creates a relation on its replica group (idempotent).
func (d *Distributed) DefineRelation(name string) (*DistRelation, error) {
	if err := d.router.DefineRelation(name); err != nil {
		return nil, err
	}
	return &DistRelation{d: d, name: name}, nil
}

// Relation returns a handle for a defined relation, or nil.
func (d *Distributed) Relation(name string) *DistRelation {
	if !d.defined(name) {
		return nil
	}
	return &DistRelation{d: d, name: name}
}

// RelationNames lists defined relations, sorted.
func (d *Distributed) RelationNames() []string { return d.router.Relations() }

// Name returns the relation's name.
func (r *DistRelation) Name() string { return r.name }

// Insert upserts one tuple through the replication protocol: resolved
// at the leader, stamped once, applied with full index maintenance on
// every replica, acknowledged at quorum.
func (r *DistRelation) Insert(rowKey, joinValue string, score float64) error {
	t := Tuple{RowKey: rowKey, JoinValue: joinValue, Score: score}
	if err := checkScores(r.name, t); err != nil {
		return err
	}
	return r.d.router.Upsert(r.name, t)
}

// Update replaces an existing tuple's join value and score through the
// same protocol; like RelationHandle.Update it fails if the leader
// holds no such row.
func (r *DistRelation) Update(rowKey, joinValue string, score float64) error {
	t := Tuple{RowKey: rowKey, JoinValue: joinValue, Score: score}
	if err := checkScores(r.name, t); err != nil {
		return err
	}
	return r.d.router.Update(r.name, t)
}

// DeleteKey removes a tuple by row key (no-op when absent).
func (r *DistRelation) DeleteKey(rowKey string) error {
	return r.d.router.Delete(r.name, rowKey)
}

// BatchInsert loads many NEW tuples as one replicated group write with
// full index maintenance. Like RelationHandle.BatchInsert it does not
// resolve existing rows — load fresh keys only.
func (r *DistRelation) BatchInsert(tuples []Tuple) error {
	if err := checkScores(r.name, tuples...); err != nil {
		return err
	}
	return r.d.router.BatchInsert(r.name, tuples)
}

// Get resolves the relation's current tuple for a row key, preferring
// the leader and failing over across replicas.
func (r *DistRelation) Get(rowKey string) (Tuple, bool, error) {
	t, err := r.d.router.Get(r.name, rowKey)
	if err != nil {
		return Tuple{}, false, err
	}
	if t == nil {
		return Tuple{}, false, nil
	}
	return *t, true, nil
}

// wireShape renders a query's join tree for the seam.
func wireShape(q Query) transport.TreeData {
	td := transport.TreeData{Edges: q.t.Edges}
	for i := range q.t.Relations {
		td.Relations = append(td.Relations, q.t.Relations[i].Name)
	}
	return td
}

// EnsureIndexes builds the listed algorithms' indexes on every node
// able to serve the query. Each replica builds from its own replicated
// base data; determinism keeps the index tables byte-identical.
func (d *Distributed) EnsureIndexes(q Query, algos ...Algorithm) error {
	names := make([]string, len(algos))
	for i, a := range algos {
		if a == AlgoAuto {
			return fmt.Errorf("rankjoin: %s is a planner mode, not an index family; list concrete algorithms", AlgoAuto)
		}
		names[i] = string(a)
	}
	return d.router.EnsureIndexes(transport.EnsureRequest{
		Tree: wireShape(q), Score: q.t.Score.Name, Algos: names,
	})
}

// distToken wraps a node-local page token with its serving node and the
// page count already delivered, so a later page can fail over: results
// are deterministic, so a survivor re-runs the query deep enough and
// fast-forwards past what the dead node already served.
func distToken(node string, pages int, token string) string {
	return "dn|" + node + "|" + strconv.Itoa(pages) + "|" + token
}

func parseDistToken(t string) (node string, pages int, token string, err error) {
	parts := strings.SplitN(t, "|", 4)
	if len(parts) != 4 || parts[0] != "dn" {
		return "", 0, "", fmt.Errorf("rankjoin: malformed distributed page token %q", t)
	}
	pages, err = strconv.Atoi(parts[2])
	if err != nil || pages < 1 {
		return "", 0, "", fmt.Errorf("rankjoin: malformed distributed page token %q", t)
	}
	return parts[1], pages, parts[3], nil
}

// wireRequest renders a query + options for the seam.
func wireRequest(q Query, algo Algorithm, o QueryOptions) transport.QueryRequest {
	req := transport.QueryRequest{
		Tree:         wireShape(q),
		Score:        q.t.Score.Name,
		K:            q.t.K,
		Algo:         string(algo),
		Objective:    string(o.Objective),
		ISLBatch:     o.ISLBatch,
		Parallelism:  o.Parallelism,
		MaxReadUnits: o.MaxReadUnits,
	}
	if !o.Deadline.IsZero() {
		// Ship the remaining budget, clamped to a minimum of 1ns so an
		// already-spent deadline still trips on the node instead of
		// silently dropping the bound.
		req.TimeoutNanos = int64(time.Until(o.Deadline))
		if req.TimeoutNanos <= 0 {
			req.TimeoutNanos = 1
		}
	}
	return req
}

// resultOf is node's result as the public Result, its page token (if
// any) pinned to that node as page number pages.
func resultOf(res *transport.ResultData, node string, pages int) *Result {
	out := &Result{
		Results:   res.Results,
		Cost:      res.Cost,
		Algorithm: res.Algorithm,
		Estimate:  res.Estimate,
	}
	if res.NextPageToken != "" {
		out.NextPageToken = distToken(node, pages, res.NextPageToken)
	}
	return out
}

// TopK executes the query on one covering replica. First pages rotate
// across replicas and fail over on node loss or corruption; follow-up
// pages (QueryOptions.PageToken) are sticky to the node holding the
// cursor, and if that node died the query re-runs deep enough on a
// survivor to fast-forward past every already-delivered page —
// results are deterministic across replicas, so the caller cannot tell
// the difference (beyond the re-run's cost).
func (d *Distributed) TopK(q Query, algo Algorithm, opts *QueryOptions) (*Result, error) {
	o := optionsOf(opts)
	if o.PageToken != "" {
		return d.nextDistPage(q, algo, o)
	}
	res, node, err := d.router.Query(wireRequest(q, algo, o))
	if err != nil {
		return nil, localizeQueryErr(err, o)
	}
	return resultOf(res, node, 1), nil
}

// localizeQueryErr maps typed wire failures back into the public error
// taxonomy, so router-mode callers handle the same types a local DB
// returns for a tripped bound. Partial results do not cross the seam —
// only the classification (and the caller's own limits) survive.
func localizeQueryErr(err error, o QueryOptions) error {
	var te *transport.Error
	if err == nil || !errors.As(err, &te) {
		return err
	}
	switch te.Kind {
	case transport.KindCanceled:
		return &CanceledError{}
	case transport.KindBudget:
		return &BudgetExceededError{Limit: o.MaxReadUnits, Spent: o.MaxReadUnits}
	}
	return err
}

// nextDistPage serves one follow-up page: sticky dispatch to the node
// holding the cursor, with deterministic fast-forward failover.
func (d *Distributed) nextDistPage(q Query, algo Algorithm, o QueryOptions) (*Result, error) {
	node, pages, token, err := parseDistToken(o.PageToken)
	if err != nil {
		return nil, err
	}
	req := wireRequest(q, algo, o)
	req.PageToken = token
	res, qerr := d.router.QueryOn(node, req)
	if qerr == nil {
		return resultOf(res, node, pages+1), nil
	}
	// The sticky node is gone (or restarted and lost the cursor): fail
	// over by re-running deep on a survivor and slicing off the pages
	// already delivered. A node that still holds the cursor but refuses
	// the token — it belongs to another query or algorithm — is the
	// caller's error, exactly as on a DB.
	var te *transport.Error
	lostCursor := errors.As(qerr, &te) && te.Kind == transport.KindLostCursor
	if !errors.Is(qerr, transport.ErrUnavailable) && !lostCursor {
		return nil, localizeQueryErr(qerr, o)
	}
	k := q.K()
	deep := q.WithK((pages + 1) * k)
	dres, survivor, derr := d.router.Query(wireRequest(deep, algo, o))
	if derr != nil {
		return nil, localizeQueryErr(derr, o)
	}
	// The deep run's cursor continues where this page ends; keep paging
	// on the survivor — unless the page came back short.
	out := resultOf(dres, survivor, pages+1)
	out.Results = out.Results[min(pages*k, len(out.Results)):]
	if len(out.Results) != k {
		out.NextPageToken = ""
	}
	return out, nil
}

// pagedSource draws a stream's results across the topology by pulling
// pages through TopK's failover paging path: closing mid-stream, node
// loss, and resumption all reduce to TopK paging. The continuation
// token lives on the Rows it feeds.
type pagedSource struct {
	d     *Distributed
	q     Query // its k is the pull page size
	algo  Algorithm
	opts  QueryOptions
	rows  *Rows
	buf   []JoinResult
	i     int
	spent sim.Snapshot
}

// Stream starts a streaming enumeration; the query's k is the pull page
// size.
func (d *Distributed) Stream(q Query, algo Algorithm, opts *QueryOptions) (*Rows, error) {
	rows := &Rows{}
	src := &pagedSource{d: d, q: q, algo: algo, opts: optionsOf(opts), rows: rows}
	rows.src = src
	if err := src.pull(); err != nil {
		return nil, err
	}
	return rows, nil
}

// pull fetches the page rows.token continues ("" = the first page).
// MaxReadUnits caps the stream, not each page: a page is shipped with
// what the pages before it left.
func (s *pagedSource) pull() error {
	o := s.opts
	o.PageToken = s.rows.token
	if o.MaxReadUnits > 0 {
		if s.spent.KVReads >= o.MaxReadUnits {
			return &BudgetExceededError{Limit: o.MaxReadUnits, Spent: s.spent.KVReads}
		}
		o.MaxReadUnits -= s.spent.KVReads
	}
	res, err := s.d.TopK(s.q, s.algo, &o)
	if err != nil {
		return err
	}
	s.buf, s.i = res.Results, 0
	s.rows.token, s.rows.algo = res.NextPageToken, res.Algorithm
	s.spent = s.spent.Add(res.Cost)
	return nil
}

func (s *pagedSource) next() (*JoinResult, error) {
	if s.i >= len(s.buf) {
		if s.rows.token == "" {
			return nil, nil
		}
		if err := s.pull(); err != nil {
			return nil, err
		}
		if len(s.buf) == 0 {
			return nil, nil
		}
	}
	s.i++
	return &s.buf[s.i-1], nil
}

// cost reports the node-side resources consumed so far.
func (s *pagedSource) cost() sim.Snapshot { return s.spent }

// close abandons the stream (any node-side cursor expires from its
// cache on its own).
func (s *pagedSource) close() error { return nil }
