package topology

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/merkle"
	"repro/internal/transport"
)

// fakeNode is a deterministic in-memory region service: one table per
// relation, two cells per tuple, clocks advanced by applied stamps. It
// is self-consistent across Apply/MerkleTree/FetchRange/Repair, which
// is all the router protocol needs.
type fakeNode struct {
	name string

	mu      sync.Mutex
	down    bool                                 // guarded by: mu
	corrupt map[string]bool                      // guarded by: mu — table → summaries fail typed
	rels    map[string]bool                      // guarded by: mu
	tables  map[string]map[string][]kvstore.Cell // guarded by: mu — table → row → cells
	clock   int64                                // guarded by: mu
	applied int                                  // guarded by: mu — Apply calls that landed

	// meet, when set, makes Apply, EnsureIndexes and Health wait there
	// until the other replicas are inside the same call. leads exempts
	// Apply: the write leader applies alone, before its followers.
	meet  *rendezvous
	leads bool
}

// rendezvous proves calls run at once: await returns when n callers
// are waiting in it together, and fails after rendezvousWait, which is
// what a router that visits nodes one at a time runs into.
type rendezvous struct {
	replicas int

	mu      sync.Mutex
	arrived int           // guarded by: mu
	open    chan struct{} // guarded by: mu — closed when the current round is full
}

const rendezvousWait = 2 * time.Second

func newRendezvous(replicas int) *rendezvous {
	return &rendezvous{replicas: replicas, open: make(chan struct{})}
}

func (rv *rendezvous) await(n int, call string) error {
	rv.mu.Lock()
	open := rv.open
	if rv.arrived++; rv.arrived == n {
		close(open)
		rv.arrived, rv.open = 0, make(chan struct{})
	}
	rv.mu.Unlock()
	timer := time.NewTimer(rendezvousWait)
	defer timer.Stop()
	select {
	case <-open:
		return nil
	case <-timer.C:
	}
	rv.mu.Lock()
	defer rv.mu.Unlock()
	select {
	case <-open: // filled as the timer fired
		return nil
	default:
		rv.arrived--
		return fmt.Errorf("%s: %d calls never met within %v", call, n, rendezvousWait)
	}
}

// meetAll waits for every replica; meetFollowers for all but the leader.
func (f *fakeNode) meetAll(call string) error {
	if f.meet == nil {
		return nil
	}
	return f.meet.await(f.meet.replicas, call)
}

func (f *fakeNode) meetFollowers(call string) error {
	if f.meet == nil || f.leads {
		return nil
	}
	return f.meet.await(f.meet.replicas-1, call)
}

func newFakeNode(name string) *fakeNode {
	return &fakeNode{name: name, corrupt: map[string]bool{}, rels: map[string]bool{},
		tables: map[string]map[string][]kvstore.Cell{}}
}

func (f *fakeNode) setDown(d bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = d
}

func (f *fakeNode) setCorrupt(table string, c bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.corrupt[table] = c
}

func (f *fakeNode) gate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return transport.Unavailable("node %s down", f.name)
	}
	return nil
}

func relTable(relation string) string { return "rel_" + relation }

func (f *fakeNode) Health() (*transport.HealthInfo, error) {
	if err := f.meetAll("health"); err != nil {
		return nil, err
	}
	if err := f.gate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	h := &transport.HealthInfo{Node: f.name, Clock: f.clock}
	for r := range f.rels {
		h.Relations = append(h.Relations, r)
	}
	for t := range f.tables {
		h.Tables = append(h.Tables, t)
	}
	sort.Strings(h.Relations)
	sort.Strings(h.Tables)
	return h, nil
}

func (f *fakeNode) DefineRelation(name string) error {
	if err := f.gate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rels[name] = true
	if f.tables[relTable(name)] == nil {
		f.tables[relTable(name)] = map[string][]kvstore.Cell{}
	}
	return nil
}

func (f *fakeNode) EnsureIndexes(req transport.EnsureRequest) error {
	if err := f.meetAll("ensure"); err != nil {
		return err
	}
	if err := f.gate(); err != nil {
		return err
	}
	// Model an index build: one derived table per requested family and
	// relation, <algo>_<relation>, plus local clock stamps.
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, algo := range req.Algos {
		for _, rel := range req.Tree.Relations {
			if t := algo + "_" + rel; f.tables[t] == nil {
				f.tables[t] = map[string][]kvstore.Cell{}
			}
		}
	}
	f.clock += 100
	return nil
}

func tupleCells(t *core.Tuple, ts int64) []kvstore.Cell {
	return []kvstore.Cell{
		{Row: t.RowKey, Family: "d", Qualifier: "join", Value: []byte(t.JoinValue), Timestamp: ts},
		{Row: t.RowKey, Family: "d", Qualifier: "score", Value: []byte(fmt.Sprint(t.Score)), Timestamp: ts},
	}
}

func (f *fakeNode) Apply(op transport.WriteOp) error {
	if err := f.meetFollowers("apply"); err != nil {
		return err
	}
	if err := f.gate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	tbl := f.tables[relTable(op.Relation)]
	if tbl == nil {
		return &transport.Error{Kind: transport.KindBadRequest, Msg: "no relation " + op.Relation}
	}
	if op.TS > f.clock {
		f.clock = op.TS
	}
	switch op.Kind {
	case transport.OpInsert, transport.OpUpdate:
		tbl[op.New.RowKey] = tupleCells(op.New, op.TS)
	case transport.OpDelete:
		delete(tbl, op.Old.RowKey)
	case transport.OpBatch, transport.OpBulk:
		for i := range op.Batch {
			tbl[op.Batch[i].RowKey] = tupleCells(&op.Batch[i], op.TS)
		}
	default:
		return &transport.Error{Kind: transport.KindBadRequest, Msg: "kind " + op.Kind}
	}
	f.applied++
	return nil
}

func (f *fakeNode) GetTuple(relation, rowKey string) (*transport.GetResponse, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	tbl := f.tables[relTable(relation)]
	if tbl == nil {
		return nil, &transport.Error{Kind: transport.KindBadRequest, Msg: "no relation " + relation}
	}
	cells, ok := tbl[rowKey]
	if !ok {
		return &transport.GetResponse{}, nil
	}
	return &transport.GetResponse{Tuple: &core.Tuple{RowKey: rowKey, JoinValue: string(cells[0].Value)}}, nil
}

func (f *fakeNode) TopK(req transport.QueryRequest) (*transport.ResultData, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.corrupt[relTable(req.Tree.Relations[0])] {
		return nil, &transport.Error{Kind: transport.KindCorruption, Msg: "checksum"}
	}
	// Echo which node served; router tests only need dispatch evidence.
	return &transport.ResultData{Algorithm: "fake@" + f.name}, nil
}

func (f *fakeNode) rowDigest(row string, cells []kvstore.Cell) merkle.Digest {
	parts := make([][]byte, 0, len(cells)*2)
	for _, c := range cells {
		parts = append(parts, []byte(c.Qualifier), c.Value, []byte(fmt.Sprint(c.Timestamp)))
	}
	return merkle.HashRow(row, parts...)
}

// fakeLeaves is the fake's Merkle tree resolution. The router only
// diffs trees, so it never needs to know it.
const fakeLeaves = 16

func (f *fakeNode) MerkleTree(req transport.TreeRequest) (*merkle.Tree, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.corrupt[req.Table] {
		return nil, &transport.Error{Kind: transport.KindCorruption, Msg: "checksum failed in " + req.Table}
	}
	b := merkle.NewBuilder(fakeLeaves)
	for row, cells := range f.tables[req.Table] {
		b.Add(row, f.rowDigest(row, cells))
	}
	return b.Build(), nil
}

func (f *fakeNode) FetchRange(req transport.RangeRequest) (*transport.RangeData, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.corrupt[req.Table] {
		return nil, &transport.Error{Kind: transport.KindCorruption, Msg: "checksum failed in " + req.Table}
	}
	want := map[int]bool{}
	for _, i := range req.Indexes {
		want[i] = true
	}
	out := &transport.RangeData{Families: []string{"d"}}
	var rows []string
	for row := range f.tables[req.Table] {
		if len(req.Indexes) > 0 && !want[merkle.LeafIndex(fakeLeaves, row)] {
			continue
		}
		rows = append(rows, row)
	}
	sort.Strings(rows)
	for _, row := range rows {
		out.Cells = append(out.Cells, f.tables[req.Table][row]...)
	}
	return out, nil
}

func (f *fakeNode) Repair(req transport.RepairRequest) (*transport.RepairStats, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := &transport.RepairStats{}
	tbl := f.tables[req.Table]
	if req.Full || tbl == nil {
		tbl = map[string][]kvstore.Cell{}
		f.tables[req.Table] = tbl
		f.corrupt[req.Table] = false // replaced wholesale
	} else {
		want := map[int]bool{}
		for _, i := range req.Indexes {
			want[i] = true
		}
		src := map[string]bool{}
		for _, c := range req.Range.Cells {
			src[c.Row] = true
		}
		for row := range tbl {
			if len(req.Indexes) > 0 && !want[merkle.LeafIndex(fakeLeaves, row)] {
				continue
			}
			if !src[row] {
				delete(tbl, row)
				st.RowsDeleted++
			}
		}
	}
	byRow := map[string][]kvstore.Cell{}
	for _, c := range req.Range.Cells {
		byRow[c.Row] = append(byRow[c.Row], c)
		if c.Timestamp > f.clock {
			f.clock = c.Timestamp
		}
		st.CellsApplied++
	}
	for row, cells := range byRow {
		tbl[row] = cells
	}
	return st, nil
}

func (f *fakeNode) Close() error { return nil }

var _ transport.RegionService = (*fakeNode)(nil)

// cluster3 builds a 3-node fully-replicated router with one relation.
func cluster3(t *testing.T) (*Router, []*fakeNode) {
	t.Helper()
	fakes := []*fakeNode{newFakeNode("n0"), newFakeNode("n1"), newFakeNode("n2")}
	handles := make([]Handle, len(fakes))
	for i, f := range fakes {
		handles[i] = Handle{Name: f.name, Svc: f}
	}
	r, err := New(handles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DefineRelation("part"); err != nil {
		t.Fatal(err)
	}
	return r, fakes
}

func tableRows(f *fakeNode, table string) map[string]string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]string{}
	for row, cells := range f.tables[table] {
		out[row] = fmt.Sprintf("%s@%d", cells[0].Value, cells[0].Timestamp)
	}
	return out
}

func assertReplicasEqual(t *testing.T, fakes []*fakeNode, table string) {
	t.Helper()
	want := tableRows(fakes[0], table)
	for _, f := range fakes[1:] {
		got := tableRows(f, table)
		if len(got) != len(want) {
			t.Fatalf("%s: %s has %d rows, %s has %d", table, fakes[0].name, len(want), f.name, len(got))
		}
		for row, v := range want {
			if got[row] != v {
				t.Fatalf("%s row %s: %s has %q, %s has %q", table, row, fakes[0].name, v, f.name, got[row])
			}
		}
	}
}

// upsert, update and remove drive Router.Write with a relation
// handle's three resolutions: overwrite what the row holds, replace it
// only if present, and delete it if present.
func upsert(r *Router, relation string, t core.Tuple) error {
	return r.Write(relation, t.RowKey, func(cur *core.Tuple) (*core.Tuple, *core.Tuple, error) { return cur, &t, nil })
}

func update(r *Router, relation string, t core.Tuple) error {
	return r.Write(relation, t.RowKey, func(cur *core.Tuple) (*core.Tuple, *core.Tuple, error) {
		if cur == nil {
			return nil, nil, fmt.Errorf("no row %q to update", t.RowKey)
		}
		return cur, &t, nil
	})
}

func remove(r *Router, relation, rowKey string) error {
	return r.Write(relation, rowKey, func(cur *core.Tuple) (*core.Tuple, *core.Tuple, error) { return cur, nil, nil })
}

func TestReplicatedWritesAreIdentical(t *testing.T) {
	r, fakes := cluster3(t)
	for i := 0; i < 10; i++ {
		if err := upsert(r, "part", core.Tuple{RowKey: fmt.Sprintf("p%d", i), JoinValue: "j", Score: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite resolves to an update, delete resolves the old tuple.
	if err := upsert(r, "part", core.Tuple{RowKey: "p3", JoinValue: "j2", Score: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := remove(r, "part", "p7"); err != nil {
		t.Fatal(err)
	}
	if err := remove(r, "part", "never-existed"); err != nil {
		t.Fatal(err)
	}
	assertReplicasEqual(t, fakes, "rel_part")
	if got := tableRows(fakes[1], "rel_part"); len(got) != 9 {
		t.Fatalf("rows = %d, want 9", len(got))
	}
}

// TestUpdateMustFindTheRow: a resolution that refuses the leader's
// answer (an update of an absent row) fails the write before anything
// is stamped, so no replica sees it.
func TestUpdateMustFindTheRow(t *testing.T) {
	r, fakes := cluster3(t)
	if err := update(r, "part", core.Tuple{RowKey: "ghost", JoinValue: "j", Score: 0.5}); err == nil {
		t.Fatal("update of an absent row succeeded")
	}
	for _, f := range fakes {
		if got := tableRows(f, "rel_part"); len(got) != 0 {
			t.Fatalf("%s holds %v after a refused update", f.name, got)
		}
	}
	if err := upsert(r, "part", core.Tuple{RowKey: "a", JoinValue: "j", Score: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := update(r, "part", core.Tuple{RowKey: "a", JoinValue: "j2", Score: 0.9}); err != nil {
		t.Fatalf("update of a live row: %v", err)
	}
	assertReplicasEqual(t, fakes, "rel_part")
	got, err := r.Get("part", "a")
	if err != nil || got == nil || got.JoinValue != "j2" {
		t.Fatalf("after update Get = %+v, %v", got, err)
	}
}

// TestTreeQueryRoutesByItsLeaves: a request names its relations as the
// leaves of its tree; dispatch and index builds must cover exactly those.
func TestTreeQueryRoutesByItsLeaves(t *testing.T) {
	r, _ := cluster3(t)
	if err := r.DefineRelation("orders"); err != nil {
		t.Fatal(err)
	}
	tree := transport.TreeData{Relations: []string{"part", "orders"}}
	if err := r.EnsureIndexes(transport.EnsureRequest{Tree: tree, Algos: []string{"anyk"}}); err != nil {
		t.Fatalf("EnsureIndexes on a tree shape: %v", err)
	}
	if _, _, err := r.Query(transport.QueryRequest{Tree: tree, K: 1}); err != nil {
		t.Fatalf("Query on a tree shape: %v", err)
	}
	tree.Relations = append(tree.Relations, "nowhere")
	if _, _, err := r.Query(transport.QueryRequest{Tree: tree, K: 1}); err == nil {
		t.Fatal("tree naming an undefined relation was dispatched")
	}
}

func TestQuorumWriteSurvivesOneNodeDown(t *testing.T) {
	r, fakes := cluster3(t)
	fakes[2].setDown(true)
	if err := upsert(r, "part", core.Tuple{RowKey: "a", JoinValue: "j"}); err != nil {
		t.Fatalf("2/3 write should ack: %v", err)
	}
	if d := r.Dirty(); len(d) != 1 || d[0] != "n2" {
		t.Fatalf("dirty = %v, want [n2]", d)
	}
	// Second node down: 1/3 acks < quorum 2 → typed failure.
	fakes[1].setDown(true)
	err := upsert(r, "part", core.Tuple{RowKey: "b", JoinValue: "j"})
	var re *ReplicationError
	if !errors.As(err, &re) || re.Acked != 1 || re.Quorum != 2 {
		t.Fatalf("err = %v, want ReplicationError acked 1 quorum 2", err)
	}
}

func TestLeaderFailoverOnWrite(t *testing.T) {
	r, fakes := cluster3(t)
	fakes[0].setDown(true) // topology-order leader dies
	if err := upsert(r, "part", core.Tuple{RowKey: "a", JoinValue: "j"}); err != nil {
		t.Fatalf("write with fallback leader: %v", err)
	}
	// n0 revives but stays dirty: it must not serve as leader (it
	// missed the write) until anti-entropy clears it.
	fakes[0].setDown(false)
	if err := upsert(r, "part", core.Tuple{RowKey: "b", JoinValue: "j"}); err != nil {
		t.Fatal(err)
	}
	if got := tableRows(fakes[0], "rel_part"); len(got) != 0 {
		t.Fatalf("dirty node received writes: %v", got)
	}
	rep, err := r.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || len(rep.Cleared) != 1 || rep.Cleared[0] != "n0" {
		t.Fatalf("repair report = %+v, want converged with n0 cleared", rep)
	}
	assertReplicasEqual(t, fakes, "rel_part")
	if len(r.Dirty()) != 0 {
		t.Fatalf("dirty after repair = %v", r.Dirty())
	}
}

// partSelfJoin is a two-leaf tree over the one relation cluster3 defines.
var partSelfJoin = transport.TreeData{Relations: []string{"part", "part"}, Edges: []core.TreeEdge{{A: 0, B: 1}}}

func TestQueryFailoverAndNoReplicaError(t *testing.T) {
	r, fakes := cluster3(t)
	req := transport.QueryRequest{Tree: partSelfJoin, Score: "sum", K: 1}
	res, node, err := r.Query(req)
	if err != nil || node == "" {
		t.Fatalf("query: %v (node %q)", err, node)
	}
	if res.Algorithm != "fake@"+node {
		t.Fatalf("served by %s but reported node %s", res.Algorithm, node)
	}
	for _, f := range fakes {
		f.setDown(true)
	}
	_, _, err = r.Query(req)
	var nre *NoReplicaError
	if !errors.As(err, &nre) || len(nre.Tried) != 3 {
		t.Fatalf("err = %v, want NoReplicaError after trying 3", err)
	}
	if !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("NoReplicaError should unwrap to ErrUnavailable, got %v", err)
	}
}

func TestQueryFailsOverOnCorruption(t *testing.T) {
	r, fakes := cluster3(t)
	// Corrupt the serving table on two nodes; the third must answer.
	fakes[0].setCorrupt("rel_part", true)
	fakes[1].setCorrupt("rel_part", true)
	for i := 0; i < 4; i++ { // whatever the rotation start, it must land on n2
		res, node, err := r.Query(transport.QueryRequest{Tree: partSelfJoin, Score: "sum", K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if node != "n2" || res.Algorithm != "fake@n2" {
			t.Fatalf("served by %s, want n2", node)
		}
	}
}

func TestAntiEntropyRepairsDivergence(t *testing.T) {
	r, fakes := cluster3(t)
	for i := 0; i < 20; i++ {
		if err := upsert(r, "part", core.Tuple{RowKey: fmt.Sprintf("p%02d", i), JoinValue: "v1"}); err != nil {
			t.Fatal(err)
		}
	}
	// n1 sleeps through updates and a delete.
	fakes[1].setDown(true)
	if err := upsert(r, "part", core.Tuple{RowKey: "p05", JoinValue: "v2"}); err != nil {
		t.Fatal(err)
	}
	if err := remove(r, "part", "p11"); err != nil {
		t.Fatal(err)
	}
	fakes[1].setDown(false)
	rep, err := r.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Repairs) == 0 {
		t.Fatal("expected at least one repair")
	}
	for _, tr := range rep.Repairs {
		if tr.Full {
			t.Fatalf("divergence repair escalated to full resync: %+v", tr)
		}
		if tr.Target != "n1" {
			t.Fatalf("repair targeted %s, want n1", tr.Target)
		}
	}
	assertReplicasEqual(t, fakes, "rel_part")
	// Scoped repair: only the divergent leaves' rows moved, not all 20.
	var shipped int
	for _, tr := range rep.Repairs {
		shipped += tr.CellsApplied
	}
	if shipped >= 40 {
		t.Fatalf("scoped repair shipped %d cells — looks like a full copy", shipped)
	}
}

func TestAntiEntropyFullResyncOnCorruption(t *testing.T) {
	r, fakes := cluster3(t)
	for i := 0; i < 8; i++ {
		if err := upsert(r, "part", core.Tuple{RowKey: fmt.Sprintf("p%d", i), JoinValue: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	fakes[2].setCorrupt("rel_part", true)
	rep, err := r.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("report = %+v", rep)
	}
	var sawFull bool
	for _, tr := range rep.Repairs {
		if tr.Target == "n2" && tr.Full {
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatalf("corruption should full-resync n2: %+v", rep.Repairs)
	}
	assertReplicasEqual(t, fakes, "rel_part")
}

func TestRouterStampsDominateNodeClocks(t *testing.T) {
	r, fakes := cluster3(t)
	// EnsureIndexes advances node clocks by local stamping; the router
	// must re-sync so its next write stamp sorts above them.
	if err := r.EnsureIndexes(transport.EnsureRequest{Tree: partSelfJoin, Score: "sum", Algos: []string{"isl"}}); err != nil {
		t.Fatal(err)
	}
	if err := upsert(r, "part", core.Tuple{RowKey: "a", JoinValue: "j"}); err != nil {
		t.Fatal(err)
	}
	rows := tableRows(fakes[0], "rel_part")
	fakes[0].mu.Lock()
	clock := fakes[0].clock
	ts := fakes[0].tables["rel_part"]["a"][0].Timestamp
	fakes[0].mu.Unlock()
	if ts <= 100 {
		t.Fatalf("write ts %d did not dominate node clock (clock %d, rows %v)", ts, clock, rows)
	}
}

func TestStatusReportsHealthAndDirtiness(t *testing.T) {
	r, fakes := cluster3(t)
	fakes[1].setDown(true)
	_ = upsert(r, "part", core.Tuple{RowKey: "a", JoinValue: "j"})
	st := r.Status()
	if len(st) != 3 {
		t.Fatalf("status rows = %d", len(st))
	}
	if !st[0].Alive || st[0].Dirty {
		t.Fatalf("n0 status = %+v", st[0])
	}
	if st[1].Alive || !st[1].Dirty {
		t.Fatalf("n1 status = %+v", st[1])
	}
}

func TestEnsureIndexTablesAreRepaired(t *testing.T) {
	r, fakes := cluster3(t)
	if err := r.EnsureIndexes(transport.EnsureRequest{Tree: partSelfJoin, Score: "sum", Algos: []string{"isl"}}); err != nil {
		t.Fatal(err)
	}
	// Diverge the index table on n2 behind the router's back (models a
	// torn build) and let anti-entropy restore it from the source.
	fakes[2].mu.Lock()
	fakes[2].tables["isl_part"]["stray"] = []kvstore.Cell{{Row: "stray", Qualifier: "q", Value: []byte("x"), Timestamp: 1}}
	fakes[2].mu.Unlock()
	rep, err := r.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("report = %+v", rep)
	}
	if rows := tableRows(fakes[2], "isl_part"); len(rows) != 0 {
		t.Fatalf("stray index row survived repair: %v", rows)
	}
}

// TestSharedIndexTableOwnersGrow: a per-relation index table is built by
// the DDL of every tree over its relation, each on that tree's covering
// nodes. Over 5 nodes with 3 replicas, a's BFHM table is built on
// cover(a,f) and again on cover(a,e); every node that holds it must be
// an owner, so repair reaches a stray row on a node only the second
// build added.
func TestSharedIndexTableOwnersGrow(t *testing.T) {
	fakes := make([]*fakeNode, 5)
	handles := make([]Handle, len(fakes))
	for i := range fakes {
		fakes[i] = newFakeNode(fmt.Sprintf("n%d", i))
		handles[i] = Handle{Name: fakes[i].name, Svc: fakes[i]}
	}
	r, err := New(handles, Config{Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"a", "e", "f"} {
		if err := r.DefineRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	tree := func(rels ...string) transport.TreeData {
		return transport.TreeData{Relations: rels, Edges: []core.TreeEdge{{A: 0, B: 1}}}
	}
	r.mu.Lock()
	af, errAF := r.coveringLocked([]string{"a", "f"})
	ae, errAE := r.coveringLocked([]string{"a", "e"})
	r.mu.Unlock()
	if errAF != nil || errAE != nil || !slices.Equal(af, []string{"n1", "n2"}) || !slices.Equal(ae, []string{"n0", "n1"}) {
		t.Fatalf("cover(a,f) = %v %v, cover(a,e) = %v %v; want [n1 n2] and [n0 n1]", af, errAF, ae, errAE)
	}
	for _, rels := range [][]string{{"a", "f"}, {"a", "e"}} {
		if err := r.EnsureIndexes(transport.EnsureRequest{Tree: tree(rels...), Score: "sum", Algos: []string{"bfhm"}}); err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	owners := slices.Sorted(slices.Values(r.owners["bfhm_a"]))
	r.mu.Unlock()
	if want := []string{"n0", "n1", "n2"}; !slices.Equal(owners, want) {
		t.Fatalf("owners[bfhm_a] = %v, want %v", owners, want)
	}

	fakes[0].mu.Lock()
	fakes[0].tables["bfhm_a"]["stray"] = []kvstore.Cell{{Row: "stray", Qualifier: "q", Value: []byte("x"), Timestamp: 1}}
	fakes[0].mu.Unlock()
	rep, err := r.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("report = %+v", rep)
	}
	if rows := tableRows(fakes[0], "bfhm_a"); len(rows) != 0 {
		t.Fatalf("stray index row on n0 survived repair: %v", rows)
	}
}

// TestFanOutIsConcurrent: every replica must be inside the same call
// at once (each fake waits at a rendezvous for the others) for a
// write's followers, an index build with its health probes, and a
// status probe to succeed. A router that visits nodes one at a time
// leaves each fake waiting alone until the rendezvous times out.
func TestFanOutIsConcurrent(t *testing.T) {
	r, fakes := cluster3(t)
	rv := newRendezvous(len(fakes))
	for _, f := range fakes {
		f.meet = rv
	}
	fakes[0].leads = true
	if err := upsert(r, "part", core.Tuple{RowKey: "a", JoinValue: "j", Score: 0.5}); err != nil {
		t.Fatalf("upsert: %v", err)
	}
	if err := r.Load("part", transport.OpBatch, []core.Tuple{{RowKey: "b", JoinValue: "j"}, {RowKey: "c", JoinValue: "k"}}); err != nil {
		t.Fatalf("batch insert: %v", err)
	}
	if err := r.EnsureIndexes(transport.EnsureRequest{Tree: partSelfJoin, Score: "sum", Algos: []string{"isl"}}); err != nil {
		t.Fatalf("ensure indexes: %v", err)
	}
	for _, st := range r.Status() {
		if !st.Alive || st.Dirty || st.Error != "" {
			t.Fatalf("status row %+v, want alive and clean", st)
		}
	}
	if d := r.Dirty(); len(d) != 0 {
		t.Fatalf("dirty = %v after concurrent writes", d)
	}
	assertReplicasEqual(t, fakes, "rel_part")
	assertReplicasEqual(t, fakes, "isl_part")
}

// TestFanOutFailureSemantics: the fan-out folds its answers in node
// order, so a write reports what a node-by-node walk reported — the
// acks, each failed follower, and the dirty set — a write whose leader
// fails reaches no follower, and a failed DDL names the first failing
// node.
func TestFanOutFailureSemantics(t *testing.T) {
	r, fakes := cluster3(t)
	fakes[1].setDown(true)
	fakes[2].setDown(true)
	err := upsert(r, "part", core.Tuple{RowKey: "a", JoinValue: "j"})
	var re *ReplicationError
	if !errors.As(err, &re) || re.Acked != 1 || re.Quorum != 2 {
		t.Fatalf("err = %v, want ReplicationError acked 1 quorum 2", err)
	}
	if got := slices.Sorted(maps.Keys(re.Failed)); !slices.Equal(got, []string{"n1", "n2"}) {
		t.Fatalf("failed = %v, want [n1 n2]", got)
	}
	for name, ferr := range re.Failed {
		if !errors.Is(ferr, transport.ErrUnavailable) {
			t.Fatalf("%s failed with %v, want unavailable", name, ferr)
		}
	}
	if d := r.Dirty(); !slices.Equal(d, []string{"n1", "n2"}) {
		t.Fatalf("dirty = %v, want [n1 n2]", d)
	}
	fakes[0].setDown(true)
	err = r.Load("part", transport.OpBatch, []core.Tuple{{RowKey: "b", JoinValue: "j"}})
	if !errors.As(err, &re) || re.Acked != 0 || len(re.Failed) != 1 || re.Failed["n0"] == nil {
		t.Fatalf("err = %v, want ReplicationError acked 0 naming only n0", err)
	}
	if d := r.Dirty(); !slices.Equal(d, []string{"n0", "n1", "n2"}) {
		t.Fatalf("dirty = %v, want [n0 n1 n2]", d)
	}

	// A dead leader fails the write before any follower sees it. A
	// batch resolves nothing, so the leader is reached first at Apply.
	r, fakes = cluster3(t)
	fakes[0].setDown(true)
	err = r.Load("part", transport.OpBatch, []core.Tuple{{RowKey: "a", JoinValue: "j"}})
	if !errors.As(err, &re) || re.Acked != 0 || re.Failed["n0"] == nil {
		t.Fatalf("err = %v, want ReplicationError acked 0 naming n0", err)
	}
	for _, f := range fakes[1:] {
		f.mu.Lock()
		applied := f.applied
		f.mu.Unlock()
		if applied != 0 {
			t.Fatalf("%s applied %d writes its dead leader never acked", f.name, applied)
		}
	}
	if d := r.Dirty(); !slices.Equal(d, []string{"n0"}) {
		t.Fatalf("dirty = %v, want [n0]", d)
	}

	// Both later nodes refuse the DDL; the error names the first.
	r, fakes = cluster3(t)
	fakes[1].setDown(true)
	fakes[2].setDown(true)
	err = r.EnsureIndexes(transport.EnsureRequest{Tree: partSelfJoin, Score: "sum", Algos: []string{"isl"}})
	if err == nil || !strings.Contains(err.Error(), "ddl on node n1:") {
		t.Fatalf("ddl err = %v, want it to name n1", err)
	}
}
