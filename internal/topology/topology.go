// Package topology routes a replicated rank-join deployment: it maps
// relations onto replica groups of region servers, drives the
// deterministic replication protocol for writes, dispatches whole
// queries to covering replicas with failover, and runs Merkle
// anti-entropy to repair replicas that missed writes or rotted at rest.
//
// The protocol follows from one invariant: replicas of a relation are
// BYTE-IDENTICAL, base and index tables alike. The router makes every
// mutation deterministic before it ships — it reads the row's current
// tuple at the leader once, has the caller resolve the transition from
// it, stamps the operation with a single router-assigned timestamp, and
// sends the identical resolved WriteOp to every replica, which applies
// it at that timestamp. Router stamps are kept above every
// node's logical clock (nodes report a high-water mark in Health), so
// node-local stamps never shadow replicated cells.
//
// A write goes to the leader first, then to every follower at once, and
// its ack is counted once all of them have answered. Writes are
// serialized, so every replica applies the same ops in the same order.
// Writes ack at a quorum, a majority of the replication factor; a write
// that cannot reach its leader fails outright and reaches no follower,
// and a follower that misses an acked write is marked dirty — excluded
// from leader duty, quorum counting, and repair-source duty until
// anti-entropy has caught it back up. The first clean replica in
// assignment order is therefore guaranteed to hold every acknowledged
// write, which is exactly what makes it a safe repair source. Schema
// changes (relation definitions, index builds) and health probes also
// run on all their nodes at once.
//
// Reads and queries ship whole to one covering replica (the paper runs
// rank-join inside the store, next to the data) and fail over across
// the group; only when no replica can serve does the caller see a
// typed *NoReplicaError.
package topology

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/transport"
)

// Config tunes a Router.
type Config struct {
	// Replication is the number of replicas hosting each relation.
	// 0 (or anything >= the node count) means full replication: every
	// node hosts every relation and can serve any query. Smaller
	// factors save space but queries need a node covering both sides.
	// A write is acknowledged once a majority of its replicas ack it.
	Replication int
}

// Handle names one region server for router construction.
type Handle struct {
	Name string
	Svc  transport.RegionService
}

// node is the router's view of one region server.
type node struct {
	name string
	svc  transport.RegionService
}

// Router fronts a set of region servers as one logical store.
type Router struct {
	nodes  []*node
	rf     int
	quorum int

	// ts is the group-write timestamp source: strictly increasing, and
	// re-synced above every node clock after DDL and repair (the two
	// paths where nodes stamp locally).
	ts atomic.Int64

	mu        sync.Mutex
	relations map[string][]string        // guarded by: mu — relation → replica node names, assignment order
	owners    map[string][]string        // guarded by: mu — table → node names expected to host it
	dirty     map[string]string          // guarded by: mu — node name → why it may be missing acked writes
	rr        uint64                     // guarded by: mu — round-robin cursor for query dispatch
	healthsnp map[string]map[string]bool // guarded by: mu — node → table set at last DDL (ownership deltas)

	// wmu serializes the resolve→stamp→replicate write sequence and
	// excludes writes during anti-entropy passes, so repair payloads
	// and trees see stable replicas.
	wmu sync.Mutex
}

// New builds a router over the given nodes. Node order is significant:
// replica groups are assigned contiguous runs of it, and the first
// clean replica in a group acts as its leader.
func New(nodes []Handle, cfg Config) (*Router, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("topology: need at least one node")
	}
	seen := map[string]bool{}
	r := &Router{
		relations: map[string][]string{},
		owners:    map[string][]string{},
		dirty:     map[string]string{},
		healthsnp: map[string]map[string]bool{},
	}
	for _, h := range nodes {
		if h.Name == "" || h.Svc == nil {
			return nil, fmt.Errorf("topology: node needs a name and a service")
		}
		if seen[h.Name] {
			return nil, fmt.Errorf("topology: duplicate node name %q", h.Name)
		}
		seen[h.Name] = true
		r.nodes = append(r.nodes, &node{name: h.Name, svc: h.Svc})
	}
	r.rf = cfg.Replication
	if r.rf <= 0 || r.rf > len(r.nodes) {
		r.rf = len(r.nodes)
	}
	r.quorum = r.rf/2 + 1
	return r, nil
}

// Close closes every node service handle.
func (r *Router) Close() error {
	var first error
	for _, n := range r.nodes {
		if err := n.svc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Nodes lists node names in topology order.
func (r *Router) Nodes() []string {
	out := make([]string, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = n.name
	}
	return out
}

// NoReplicaError reports a read or query that no replica could serve.
type NoReplicaError struct {
	// Op names the failed operation ("topk", "get", ...).
	Op string
	// Relation (or relation pair) the operation targeted.
	Relation string
	// Tried lists the replicas attempted, in dispatch order.
	Tried []string
	// Errs holds each attempt's failure, aligned with Tried.
	Errs []error
}

func (e *NoReplicaError) Error() string {
	parts := make([]string, len(e.Tried))
	for i := range e.Tried {
		parts[i] = fmt.Sprintf("%s: %v", e.Tried[i], e.Errs[i])
	}
	return fmt.Sprintf("topology: no replica could serve %s(%s): [%s]", e.Op, e.Relation, strings.Join(parts, "; "))
}

// Unwrap exposes the attempt errors for errors.Is/As matching (e.g.
// transport.ErrUnavailable, corruption kinds).
func (e *NoReplicaError) Unwrap() []error { return e.Errs }

// ReplicationError reports a write that was not acknowledged: it never
// reached its leader, or reached fewer replicas than the quorum.
// Replicas listed in Failed are marked dirty; anti-entropy converges
// them. When Acked > 0 the write IS durable on the acked replicas —
// re-submitting it is safe (the resolution re-reads current state).
type ReplicationError struct {
	Relation string
	// Acked is how many replicas applied the write.
	Acked int
	// Quorum is how many were needed.
	Quorum int
	// Failed maps replica names to their failures.
	Failed map[string]error
}

func (e *ReplicationError) Error() string {
	var parts []string
	for n, err := range e.Failed {
		parts = append(parts, fmt.Sprintf("%s: %v", n, err))
	}
	sort.Strings(parts)
	return fmt.Sprintf("topology: write to %q acked by %d/%d replicas (quorum %d): [%s]",
		e.Relation, e.Acked, e.Quorum, e.Quorum, strings.Join(parts, "; "))
}

// Unwrap exposes the per-replica failures.
func (e *ReplicationError) Unwrap() []error {
	out := make([]error, 0, len(e.Failed))
	for _, err := range e.Failed {
		out = append(out, err)
	}
	return out
}

// assignLocked picks a relation's replica node names: rf contiguous
// nodes starting at a hash of the name (range-assignment flavor — the
// groups of different relations overlap and rotate around the node
// ring). Callers hold r.mu.
func (r *Router) assignLocked(relation string) []string {
	h := fnv.New32a()
	h.Write([]byte(relation))
	start := int(h.Sum32()) % len(r.nodes)
	if start < 0 {
		start += len(r.nodes)
	}
	if r.rf == len(r.nodes) {
		start = 0 // full replication: keep topology order for leader stability
	}
	out := make([]string, r.rf)
	for i := 0; i < r.rf; i++ {
		out[i] = r.nodes[(start+i)%len(r.nodes)].name
	}
	return out
}

func (r *Router) nodeByName(name string) *node {
	for _, n := range r.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

func (r *Router) nodesFor(names []string) []*node {
	out := make([]*node, 0, len(names))
	for _, name := range names {
		if n := r.nodeByName(name); n != nil {
			out = append(out, n)
		}
	}
	return out
}

// fanOut runs call once per node, all nodes at once, and returns the
// errors in node order; call(i, nodes[i]) may store a result at index
// i. The calling goroutine takes the first node, so a one-node fan-out
// starts no goroutine. The width is the node count: the router only
// fans out over one replica group or the whole topology.
func fanOut(nodes []*node, call func(i int, n *node) error) []error {
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i := 1; i < len(nodes); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = call(i, nodes[i])
		}()
	}
	if len(nodes) > 0 {
		errs[0] = call(0, nodes[0])
	}
	wg.Wait()
	return errs
}

// probeHealth asks every node for its Health at once; the answers and
// errors are in node order.
func probeHealth(nodes []*node) ([]*transport.HealthInfo, []error) {
	health := make([]*transport.HealthInfo, len(nodes))
	errs := fanOut(nodes, func(i int, n *node) (err error) {
		health[i], err = n.svc.Health()
		return err
	})
	return health, errs
}

// isDirty reports whether a node is excluded from leader/source duty.
func (r *Router) isDirty(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, d := r.dirty[name]
	return d
}

// markDirty records that a node may be missing acked writes.
func (r *Router) markDirty(name string, cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, d := r.dirty[name]; !d {
		r.dirty[name] = cause.Error()
	}
}

// clearDirty re-admits a repaired node.
func (r *Router) clearDirty(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.dirty, name)
}

// Dirty lists nodes currently excluded from leader/source duty, sorted.
func (r *Router) Dirty() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.dirty))
	for n := range r.dirty {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// bumpTS raises the timestamp source to at least v.
func (r *Router) bumpTS(v int64) {
	for {
		cur := r.ts.Load()
		if v <= cur || r.ts.CompareAndSwap(cur, v) {
			return
		}
	}
}

// nextTS stamps one group write.
func (r *Router) nextTS() int64 { return r.ts.Add(1) }

// ddlLocked runs a schema-changing call on every listed node at once
// (all must succeed — setup operations are not quorum-based), then
// probes their health at once, adds each node to the owners of every
// table the call created on it, and re-syncs the timestamp source above
// the nodes' clocks. Both rounds fold in node order, so the error names
// the first failing node and owners grow as a node-by-node walk grows
// them. A per-relation index table is built by the DDL of every tree
// over the relation, each on its own covering nodes, so its owners grow
// with each such call. Callers hold r.mu.
func (r *Router) ddlLocked(names []string, call func(transport.RegionService) error) error {
	nodes := r.nodesFor(names)
	for i, err := range fanOut(nodes, func(_ int, n *node) error { return call(n.svc) }) {
		if err != nil {
			return fmt.Errorf("topology: ddl on node %s: %w", nodes[i].name, err)
		}
	}
	health, errs := probeHealth(nodes)
	for i, n := range nodes {
		if errs[i] != nil {
			return fmt.Errorf("topology: health on node %s after ddl: %w", n.name, errs[i])
		}
		h := health[i]
		r.bumpTS(h.Clock)
		before := r.healthsnp[n.name]
		after := make(map[string]bool, len(h.Tables))
		for _, t := range h.Tables {
			after[t] = true
			if !before[t] && !slices.Contains(r.owners[t], n.name) {
				r.owners[t] = append(r.owners[t], n.name)
			}
		}
		r.healthsnp[n.name] = after
	}
	return nil
}

// DefineRelation creates a relation on its replica group. Idempotent.
func (r *Router) DefineRelation(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.relations[name]; ok {
		return nil
	}
	names := r.assignLocked(name)
	if err := r.ddlLocked(names, func(svc transport.RegionService) error {
		return svc.DefineRelation(name)
	}); err != nil {
		return err
	}
	r.relations[name] = names
	return nil
}

// Relations lists defined relations, sorted.
func (r *Router) Relations() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.relations))
	for n := range r.relations {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ReplicasFor returns a relation's replica node names in assignment
// order, or nil if undefined.
func (r *Router) ReplicasFor(relation string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.relations[relation]...)
}

// coveringLocked intersects the relations' replica groups in the first
// group's order — the nodes able to serve a join of them all.
func (r *Router) coveringLocked(relations []string) ([]string, error) {
	var out []string
	for i, rel := range relations {
		group, ok := r.relations[rel]
		if !ok {
			return nil, fmt.Errorf("topology: relation %q not defined", rel)
		}
		if i == 0 {
			out = append(out, group...)
			continue
		}
		in := make(map[string]bool, len(group))
		for _, n := range group {
			in[n] = true
		}
		kept := out[:0]
		for _, n := range out {
			if in[n] {
				kept = append(kept, n)
			}
		}
		out = kept
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("topology: no node hosts all of %q (replication %d of %d nodes); raise Replication",
			relations, r.rf, len(r.nodes))
	}
	return out, nil
}

// EnsureIndexes builds the requested index families on every node able
// to serve the query (the covering set). Each replica builds from its
// own replicated base data; determinism keeps the results identical.
func (r *Router) EnsureIndexes(req transport.EnsureRequest) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names, err := r.coveringLocked(req.Tree.Relations)
	if err != nil {
		return err
	}
	return r.ddlLocked(names, func(svc transport.RegionService) error {
		return svc.EnsureIndexes(req)
	})
}

// replicaSet snapshots a relation's replica nodes.
func (r *Router) replicaSet(relation string) ([]*node, error) {
	r.mu.Lock()
	names := r.relations[relation]
	r.mu.Unlock()
	if names == nil {
		return nil, fmt.Errorf("topology: relation %q not defined", relation)
	}
	return r.nodesFor(names), nil
}

// resolveLeader finds the first clean replica that answers a resolution
// read for rowKey, marking unreachable candidates dirty on the way (a
// node down now will miss the write we are about to ship). rowKey ""
// skips the read (batch loads resolve nothing).
func (r *Router) resolveLeader(relation, rowKey string, reps []*node) (*node, *core.Tuple, error) {
	failed := map[string]error{}
	for _, nd := range reps {
		if r.isDirty(nd.name) {
			failed[nd.name] = errors.New("dirty: awaiting repair")
			continue
		}
		if rowKey == "" {
			return nd, nil, nil
		}
		resp, err := nd.svc.GetTuple(relation, rowKey)
		if err != nil {
			if errors.Is(err, transport.ErrUnavailable) {
				r.markDirty(nd.name, err)
				failed[nd.name] = err
				continue
			}
			return nil, nil, err
		}
		return nd, resp.Tuple, nil
	}
	return nil, nil, &ReplicationError{Relation: relation, Acked: 0, Quorum: r.quorum, Failed: failed}
}

// replicate ships one resolved, stamped op: leader first (its failure
// fails the write outright — the leader is the repair source of record,
// so nothing may be acked that it does not hold, and no follower sees
// the op), then every clean follower at once, acking at quorum once all
// of them have answered. Dirty replicas are skipped — they are already
// behind; anti-entropy carries this op to them later. Callers hold
// r.wmu across the whole call, so every replica applies the same ops in
// the same order.
func (r *Router) replicate(leader *node, reps []*node, op transport.WriteOp) error {
	if err := leader.svc.Apply(op); err != nil {
		// The leader may hold a partial application; treat it as dirty
		// until anti-entropy verifies it.
		r.markDirty(leader.name, err)
		return &ReplicationError{Relation: op.Relation, Acked: 0, Quorum: r.quorum,
			Failed: map[string]error{leader.name: err}}
	}
	acked := 1
	failed := map[string]error{}
	followers := make([]*node, 0, len(reps))
	for _, nd := range reps {
		if nd == leader {
			continue
		}
		if r.isDirty(nd.name) {
			failed[nd.name] = errors.New("dirty: awaiting repair")
			continue
		}
		followers = append(followers, nd)
	}
	for i, err := range fanOut(followers, func(_ int, nd *node) error { return nd.svc.Apply(op) }) {
		if err != nil {
			r.markDirty(followers[i].name, err)
			failed[followers[i].name] = err
			continue
		}
		acked++
	}
	if acked < r.quorum {
		return &ReplicationError{Relation: op.Relation, Acked: acked, Quorum: r.quorum, Failed: failed}
	}
	return nil
}

// Write runs one single-row write through the replication protocol.
// Under the write lock it reads rowKey's current tuple at the leader
// (nil when the row is absent) and hands it to resolve, which returns
// the transition to ship: old → new, with nil old for an insert and nil
// new for a delete. When resolve fails, or returns neither tuple, the
// write stamps and ships nothing and no replica hears of it; otherwise
// the transition is stamped once, replicated, and acked at quorum.
func (r *Router) Write(relation, rowKey string, resolve func(cur *core.Tuple) (old, new *core.Tuple, err error)) error {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	reps, err := r.replicaSet(relation)
	if err != nil {
		return err
	}
	leader, cur, err := r.resolveLeader(relation, rowKey, reps)
	if err != nil {
		return err
	}
	old, new, err := resolve(cur)
	if err != nil || old == nil && new == nil {
		return err
	}
	op := transport.WriteOp{Relation: relation, Kind: transport.OpUpdate, Old: old, New: new, TS: r.nextTS()}
	switch {
	case old == nil:
		op.Kind = transport.OpInsert
	case new == nil:
		op.Kind = transport.OpDelete
	}
	return r.replicate(leader, reps, op)
}

// Load ships many NEW tuples with no per-row resolution, as ops of kind
// OpBatch (maintained: reused row keys strand index entries, exactly as
// RelationHandle.BatchInsert warns) or OpBulk (through each replica's
// bulk door, unmaintained). Each run transport.SplitBatch cuts is one
// op with a timestamp of its own; a failed op fails the load, and the
// runs before it stay applied.
func (r *Router) Load(relation, kind string, tuples []core.Tuple) error {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	reps, err := r.replicaSet(relation)
	if err != nil {
		return err
	}
	leader, _, err := r.resolveLeader(relation, "", reps)
	if err != nil {
		return err
	}
	for _, run := range transport.SplitBatch(tuples) {
		op := transport.WriteOp{Relation: relation, Kind: kind, Batch: run, TS: r.nextTS()}
		if err := r.replicate(leader, reps, op); err != nil {
			return err
		}
	}
	return nil
}

// Get resolves a relation row, preferring the leader (read-your-writes)
// and failing over across clean replicas, then dirty ones (a dirty
// replica may serve a stale tuple, but stale beats unavailable once no
// clean replica is left).
func (r *Router) Get(relation, rowKey string) (*core.Tuple, error) {
	reps, err := r.replicaSet(relation)
	if err != nil {
		return nil, err
	}
	var tried []string
	var errs []error
	for pass := 0; pass < 2; pass++ {
		for _, nd := range reps {
			if (pass == 0) == r.isDirty(nd.name) {
				continue
			}
			resp, gerr := nd.svc.GetTuple(relation, rowKey)
			if gerr != nil {
				tried = append(tried, nd.name)
				errs = append(errs, gerr)
				if errors.Is(gerr, transport.ErrUnavailable) {
					continue
				}
				return nil, gerr
			}
			return resp.Tuple, nil
		}
	}
	return nil, &NoReplicaError{Op: "get", Relation: relation, Tried: tried, Errs: errs}
}

// Query ships one top-k execution to a covering replica, rotating the
// starting replica per call and failing over on unavailability or
// corruption (another replica can still serve an undamaged answer). It
// returns the serving node's name: page tokens are node-local, so the
// caller pins follow-up pages with QueryOn. Only when every covering
// replica fails does the caller see a *NoReplicaError.
func (r *Router) Query(req transport.QueryRequest) (*transport.ResultData, string, error) {
	rels := req.Shape().Relations
	r.mu.Lock()
	names, err := r.coveringLocked(rels)
	start := int(r.rr)
	r.rr++
	r.mu.Unlock()
	if err != nil {
		return nil, "", err
	}
	reps := r.nodesFor(names)
	var tried []string
	var errs []error
	for pass := 0; pass < 2; pass++ {
		for i := range reps {
			nd := reps[(start+i)%len(reps)]
			if (pass == 0) == r.isDirty(nd.name) {
				continue
			}
			res, qerr := nd.svc.TopK(req)
			if qerr != nil {
				var te *transport.Error
				retriable := errors.Is(qerr, transport.ErrUnavailable) ||
					(errors.As(qerr, &te) && te.Kind == transport.KindCorruption)
				tried = append(tried, nd.name)
				errs = append(errs, qerr)
				if retriable {
					continue
				}
				return nil, "", qerr
			}
			return res, nd.name, nil
		}
	}
	return nil, "", &NoReplicaError{Op: "topk", Relation: strings.Join(rels, "+"), Tried: tried, Errs: errs}
}

// QueryOn pins one execution to a named node — the sticky dispatch for
// node-local page tokens. Unavailability surfaces to the caller, which
// restarts the cursor on a survivor.
func (r *Router) QueryOn(nodeName string, req transport.QueryRequest) (*transport.ResultData, error) {
	nd := r.nodeByName(nodeName)
	if nd == nil {
		return nil, fmt.Errorf("topology: unknown node %q", nodeName)
	}
	return nd.svc.TopK(req)
}

// NodeStatus is one node's row in Status.
type NodeStatus struct {
	Name        string   `json:"name"`
	Alive       bool     `json:"alive"`
	Dirty       bool     `json:"dirty"`
	DirtyCause  string   `json:"dirty_cause,omitempty"`
	Relations   []string `json:"relations,omitempty"`
	Tables      int      `json:"tables"`
	Quarantined []string `json:"quarantined,omitempty"`
	Error       string   `json:"error,omitempty"`
}

// Status probes every node at once and reports liveness, dirtiness,
// and served state — the rjserve /metrics replica-status payload.
func (r *Router) Status() []NodeStatus {
	r.mu.Lock()
	dirty := make(map[string]string, len(r.dirty))
	for k, v := range r.dirty {
		dirty[k] = v
	}
	r.mu.Unlock()
	health, errs := probeHealth(r.nodes)
	out := make([]NodeStatus, len(r.nodes))
	for i, nd := range r.nodes {
		st := NodeStatus{Name: nd.name}
		if cause, d := dirty[nd.name]; d {
			st.Dirty, st.DirtyCause = true, cause
		}
		if errs[i] != nil {
			st.Error = errs[i].Error()
		} else {
			h := health[i]
			st.Alive = true
			st.Relations = h.Relations
			st.Tables = len(h.Tables)
			st.Quarantined = h.Quarantined
		}
		out[i] = st
	}
	return out
}
