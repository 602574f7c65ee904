// Distributed integration tests: a replicated multi-node topology
// behind the transport seam must serve every executor byte-identically
// to a single-process DB, over both in-process loopback and real TCP,
// with page tokens that survive the death of the node holding the
// cursor.
package rankjoin

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
)

// distExecutors is every registered executor plus the naive baseline —
// the full set the acceptance criteria require to match across
// deployments.
var distExecutors = []Algorithm{
	AlgoNaive, AlgoHive, AlgoPig, AlgoIJLMR, AlgoISL, AlgoBFHM, AlgoDRJN,
}

// indexedAlgos need EnsureIndexes before they can serve.
var indexedAlgos = []Algorithm{AlgoIJLMR, AlgoISL, AlgoBFHM, AlgoDRJN}

// distTuples builds deterministic synthetic relations for the
// distribution tests.
func distTuples(n int) (left, right []Tuple) {
	rng := rand.New(rand.NewSource(42))
	mk := func(prefix string) []Tuple {
		var out []Tuple
		for i := 0; i < n; i++ {
			out = append(out, Tuple{
				RowKey:    fmt.Sprintf("%s%04d", prefix, i),
				JoinValue: fmt.Sprintf("j%d", rng.Intn(25)),
				Score:     float64(rng.Intn(1000)) / 1000,
			})
		}
		return out
	}
	return mk("dl"), mk("dr")
}

// oracleDB loads the baseline single-process DB with the same data and
// indexes the cluster gets.
func oracleDB(t testing.TB, left, right []Tuple) (*DB, Query) {
	t.Helper()
	db := mustOpen(t, Config{})
	t.Cleanup(func() { db.Close() })
	for _, rel := range []struct {
		name string
		data []Tuple
	}{{"left", left}, {"right", right}} {
		h, err := db.DefineRelation(rel.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.BulkLoad(rel.data); err != nil {
			t.Fatal(err)
		}
	}
	q, err := db.NewQuery("left", "right", Sum, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range indexedAlgos {
		if err := db.EnsureIndexes(q, algo); err != nil {
			t.Fatal(err)
		}
	}
	return db, q
}

// loadCluster defines and loads the same relations on a cluster and
// builds every index family on every replica.
func loadCluster(t testing.TB, d *Distributed, left, right []Tuple) Query {
	t.Helper()
	for _, rel := range []struct {
		name string
		data []Tuple
	}{{"left", left}, {"right", right}} {
		h, err := d.DefineRelation(rel.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.BatchInsert(rel.data); err != nil {
			t.Fatal(err)
		}
	}
	q, err := d.NewQuery("left", "right", Sum, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EnsureIndexes(q, indexedAlgos...); err != nil {
		t.Fatal(err)
	}
	return q
}

// openLoopbackCluster opens an N-node in-process cluster with full
// replication.
func openLoopbackCluster(t testing.TB, n int) *Distributed {
	t.Helper()
	topo := &Topology{}
	for i := 0; i < n; i++ {
		topo.Nodes = append(topo.Nodes, NodeSpec{Name: fmt.Sprintf("node%d", i)})
	}
	d, err := OpenDistributed(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func assertSameResults(t testing.TB, label string, got, want []JoinResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// assertExecutorsMatchOracle runs every executor at k=10 on both
// deployments and requires identical output.
func assertExecutorsMatchOracle(t testing.TB, d *Distributed, dq Query, db *DB, q Query) {
	t.Helper()
	for _, algo := range distExecutors {
		want, err := db.TopK(q, algo, nil)
		if err != nil {
			t.Fatalf("oracle %s: %v", algo, err)
		}
		got, err := d.TopK(dq, algo, nil)
		if err != nil {
			t.Fatalf("cluster %s: %v", algo, err)
		}
		assertSameResults(t, string(algo), got.Results, want.Results)
		// Whole queries ship to one replica, so a cluster query reads
		// what the single process reads.
		if got.Cost.KVReads != want.Cost.KVReads {
			t.Errorf("%s: cluster spent %d read units, single process %d", algo, got.Cost.KVReads, want.Cost.KVReads)
		}
	}
}

// assertReplicasByteIdentical compares every replica's raw cells for a
// table — base and index tables must match cell-for-cell (row, column,
// timestamp, value) across the group.
func assertReplicasByteIdentical(t testing.TB, d *Distributed, table string) {
	t.Helper()
	type flat struct {
		row, fam, qual string
		ts             int64
		val            []byte
	}
	var ref []flat
	var refNode string
	for _, name := range d.Nodes() {
		db := d.NodeDB(name)
		if db == nil {
			continue
		}
		cells, err := db.Cluster().TableCells(table)
		if err != nil {
			t.Fatalf("%s: TableCells(%s): %v", name, table, err)
		}
		cur := make([]flat, 0, len(cells))
		for _, c := range cells {
			cur = append(cur, flat{c.Row, c.Family, c.Qualifier, c.Timestamp, c.Value})
		}
		sort.Slice(cur, func(i, j int) bool {
			a, b := cur[i], cur[j]
			if a.row != b.row {
				return a.row < b.row
			}
			if a.fam != b.fam {
				return a.fam < b.fam
			}
			if a.qual != b.qual {
				return a.qual < b.qual
			}
			return a.ts < b.ts
		})
		if ref == nil {
			ref, refNode = cur, name
			continue
		}
		if len(cur) != len(ref) {
			t.Fatalf("table %s: %s has %d cells, %s has %d", table, name, len(cur), refNode, len(ref))
		}
		for i := range cur {
			if cur[i].row != ref[i].row || cur[i].fam != ref[i].fam ||
				cur[i].qual != ref[i].qual || cur[i].ts != ref[i].ts ||
				!bytes.Equal(cur[i].val, ref[i].val) {
				t.Fatalf("table %s cell %d differs between %s and %s: %+v vs %+v",
					table, i, name, refNode, cur[i], ref[i])
			}
		}
	}
}

// TestDistributedMatchesSingleNode is the core acceptance check: a
// 3-node fully replicated loopback cluster serves all eight executors
// byte-identically to a single-process DB over the same data, and the
// replicas themselves hold cell-identical base AND index tables.
func TestDistributedMatchesSingleNode(t *testing.T) {
	left, right := distTuples(300)
	db, q := oracleDB(t, left, right)
	d := openLoopbackCluster(t, 3)
	dq := loadCluster(t, d, left, right)

	assertExecutorsMatchOracle(t, d, dq, db, q)

	// Every table the deterministic replication protocol produced must
	// be byte-identical across the group — index tables included.
	node0 := d.NodeDB("node0")
	for _, table := range node0.Cluster().TableNames() {
		assertReplicasByteIdentical(t, d, table)
	}
}

// TestDistributedWritesVisibleEverywhere: a quorum write through the
// router is immediately visible to queries wherever they land, and
// per-replica state stays identical after mixed upserts and deletes.
func TestDistributedWritesVisibleEverywhere(t *testing.T) {
	left, right := distTuples(150)
	d := openLoopbackCluster(t, 3)
	dq := loadCluster(t, d, left, right)

	lh := d.Relation("left")
	rh := d.Relation("right")
	// Plant a top pair, re-score one side, delete a loser.
	if err := lh.Insert("dlfresh", "jfresh", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := rh.Insert("drfresh", "jfresh", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := rh.Insert("drfresh", "jfresh", 1.0); err != nil { // resolved as update
		t.Fatal(err)
	}
	if err := lh.DeleteKey(left[0].RowKey); err != nil {
		t.Fatal(err)
	}

	got, ok, err := rh.Get("drfresh")
	if err != nil || !ok {
		t.Fatalf("Get(drfresh) = %v, %v, %v", got, ok, err)
	}
	if got.Score != 1.0 {
		t.Fatalf("upsert did not resolve: score %v, want 1.0", got.Score)
	}

	// The planted pair must rank first on every executor, every replica.
	for _, algo := range distExecutors {
		res, err := d.TopK(dq, algo, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Results) == 0 || res.Results[0].Score < 2.0-1e-9 {
			t.Fatalf("%s is stale after replicated write: top %+v", algo, res.Results[:min(1, len(res.Results))])
		}
	}
	for _, table := range d.NodeDB("node0").Cluster().TableNames() {
		assertReplicasByteIdentical(t, d, table)
	}
}

// openTCPCluster opens an N-node cluster of rjnode-equivalent region
// servers reached over loopback TCP, with full replication.
func openTCPCluster(t testing.TB, n int) *Distributed {
	t.Helper()
	d, _ := openTCPClusterDBs(t, n)
	return d
}

// openTCPClusterDBs is openTCPCluster that also returns each node's DB
// by node name, for tests that read node-side state.
func openTCPClusterDBs(t testing.TB, n int) (*Distributed, map[string]*DB) {
	t.Helper()
	var specs []NodeSpec
	dbs := map[string]*DB{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("tcp%d", i)
		ndb, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ndb.Close() })
		dbs[name] = ndb
		srv, err := transport.ListenAndServe("127.0.0.1:0", NewNodeService(name, ndb))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		specs = append(specs, NodeSpec{Name: name, Addr: srv.Addr()})
	}
	d, err := OpenDistributed(Config{Topology: &Topology{Nodes: specs}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, dbs
}

// TestDistributedSeamCarriesResultWhole: a query's whole Result crosses
// the seam (rows, cost, algorithm and planner estimate), so a loopback
// and a TCP cluster loaded the same way answer identically, and
// AggregateCost adds up exactly what the nodes' own metrics recorded.
func TestDistributedSeamCarriesResultWhole(t *testing.T) {
	left, right := distTuples(100)
	loop := openLoopbackCluster(t, 3)
	loopQ := loadCluster(t, loop, left, right)
	tcp, tcpDBs := openTCPClusterDBs(t, 3)
	tcpQ := loadCluster(t, tcp, left, right)

	for _, algo := range []Algorithm{AlgoAuto, AlgoBFHM} {
		want, err := loop.TopK(loopQ, algo, nil)
		if err != nil {
			t.Fatalf("loopback %s: %v", algo, err)
		}
		got, err := tcp.TopK(tcpQ, algo, nil)
		if err != nil {
			t.Fatalf("tcp %s: %v", algo, err)
		}
		if len(want.Results) == 0 {
			t.Fatalf("%s: no results", algo)
		}
		if (want.Estimate != nil) != (algo == AlgoAuto) {
			t.Errorf("%s: estimate %+v; want one exactly when the planner chose", algo, want.Estimate)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Errorf("%s: tcp results %+v, loopback %+v", algo, got.Results, want.Results)
		}
		if got.Cost != want.Cost || got.Algorithm != want.Algorithm {
			t.Errorf("%s: tcp cost %+v algorithm %q, loopback %+v %q", algo, got.Cost, got.Algorithm, want.Cost, want.Algorithm)
		}
		if !reflect.DeepEqual(got.Estimate, want.Estimate) {
			t.Errorf("%s: tcp estimate %+v, loopback %+v", algo, got.Estimate, want.Estimate)
		}
	}

	for _, c := range []struct {
		name string
		d    *Distributed
		db   func(node string) *DB
	}{
		{"loopback", loop, loop.NodeDB},
		{"tcp", tcp, func(node string) *DB { return tcpDBs[node] }},
	} {
		var sum sim.Snapshot
		for _, node := range c.d.Nodes() {
			sum = sum.Add(c.db(node).Metrics().Snapshot())
		}
		if got := c.d.AggregateCost(); got != sum || got.KVReads == 0 {
			t.Errorf("%s: AggregateCost %+v, the nodes' metrics add up to %+v", c.name, got, sum)
		}
	}
}

// TestDistributedOverTCP runs the same workload against region servers
// reached over the real TCP transport (binary-framed, see
// internal/transport) — the rjnode deployment shape — and requires the
// same answers as the oracle.
func TestDistributedOverTCP(t *testing.T) {
	left, right := distTuples(200)
	db, q := oracleDB(t, left, right)
	d := openTCPCluster(t, 3)
	dq := loadCluster(t, d, left, right)

	assertExecutorsMatchOracle(t, d, dq, db, q)

	// Round-trip a replicated write over the wire.
	lh := d.Relation("left")
	if err := lh.Insert("dlwire", "jwire", 0.9); err != nil {
		t.Fatal(err)
	}
	got, ok, err := lh.Get("dlwire")
	if err != nil || !ok || got.JoinValue != "jwire" {
		t.Fatalf("Get over TCP = %+v, %v, %v", got, ok, err)
	}
	if err := lh.DeleteKey("dlwire"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := lh.Get("dlwire"); ok {
		t.Fatal("deleted tuple still visible over TCP")
	}
}

// TestNonFiniteScoreRefused: a NaN, ±Inf or out-of-range score (1.2,
// -0.1) is refused with a *ScoreError by every write on a DB, a loopback
// cluster and a TCP cluster, before anything is written, so every
// executor keeps ranking the same data in [0, 1]. (A DB and a loopback
// cluster once stored a non-finite score, after which the executors
// disagreed on the top result, and TCP failed the write with an untyped
// JSON error; an insert at 1.2 made BFHM's top-1 differ from naive's.)
func TestNonFiniteScoreRefused(t *testing.T) {
	left, right := distTuples(50)
	db, q := oracleDB(t, left, right)
	loop := openLoopbackCluster(t, 3)
	loopQ := loadCluster(t, loop, left, right)
	tcp := openTCPCluster(t, 3)
	tcpQ := loadCluster(t, tcp, left, right)

	deployments := []struct {
		name string
		rel  *RelationHandle
	}{
		{"db", db.Relation("left")},
		{"loopback", loop.Relation("left")},
		{"tcp", tcp.Relation("left")},
	}
	victim := left[0]
	for _, dep := range deployments {
		for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1.2, -0.1} {
			writes := map[string]error{
				"Insert":      dep.rel.Insert("dlbad", "j1", bad),
				"Update":      dep.rel.Update(victim.RowKey, victim.JoinValue, bad),
				"BatchInsert": dep.rel.BatchInsert([]Tuple{{RowKey: "dlfresh", JoinValue: "j1", Score: 0.5}, {RowKey: "dlbad", JoinValue: "j1", Score: bad}}),
				"BulkLoad":    dep.rel.BulkLoad([]Tuple{{RowKey: "dlfresh", JoinValue: "j1", Score: 0.5}, {RowKey: "dlbad", JoinValue: "j1", Score: bad}}),
			}
			for op, err := range writes {
				var se *ScoreError
				if !errors.As(err, &se) || se.Relation != "left" || se.RowKey == "" || !(se.Score == bad || math.IsNaN(se.Score) && math.IsNaN(bad)) {
					t.Errorf("%s %s(score %v) = %v, want a *ScoreError", dep.name, op, bad, err)
				}
			}
			for _, key := range []string{"dlbad", "dlfresh"} {
				if got, ok, err := dep.rel.Get(key); err != nil || ok {
					t.Errorf("%s: refused write left %q = %+v (ok %v, err %v)", dep.name, key, got, ok, err)
				}
			}
			if got, ok, err := dep.rel.Get(victim.RowKey); err != nil || !ok || got != victim {
				t.Errorf("%s: refused update changed %q to %+v (ok %v, err %v)", dep.name, victim.RowKey, got, ok, err)
			}
		}
	}
	assertExecutorsMatchOracle(t, loop, loopQ, db, q)
	assertExecutorsMatchOracle(t, tcp, tcpQ, db, q)
}

// TestRouterRefusesBadTupleInPlace: a tuple the engine cannot store —
// no join value, or a NUL in its row key or join value — is refused by
// a Distributed's handle with the error a DB's handle returns, before
// the router stamps or ships anything, so every node stays clean. (The
// router once shipped such a write; the leader refused it, the write
// failed as a ReplicationError acked by none, and the leader stayed
// dirty until a repair.)
func TestRouterRefusesBadTupleInPlace(t *testing.T) {
	left, right := distTuples(20)
	db, _ := oracleDB(t, left, right)
	d := openLoopbackCluster(t, 3)
	loadCluster(t, d, left, right)
	live := left[0]
	for _, bad := range []Tuple{
		{RowKey: "l1", JoinValue: "", Score: 0.5},
		{RowKey: "l\x001", JoinValue: "j1", Score: 0.5},
		{RowKey: "l2", JoinValue: "j\x001", Score: 0.5},
	} {
		for _, rel := range []*RelationHandle{db.Relation("left"), d.Relation("left")} {
			if err := rel.BatchInsert([]Tuple{bad}); err == nil {
				t.Errorf("BatchInsert(%+v) accepted", bad)
			}
			if err := rel.BulkLoad([]Tuple{bad}); err == nil {
				t.Errorf("BulkLoad(%+v) accepted", bad)
			}
		}
		writes := map[string]func(*RelationHandle) error{
			"Insert": func(h *RelationHandle) error { return h.Insert(bad.RowKey, bad.JoinValue, bad.Score) },
		}
		if bad.JoinValue != "j1" { // an update keeps the live row's key
			writes["Update"] = func(h *RelationHandle) error { return h.Update(live.RowKey, bad.JoinValue, bad.Score) }
		}
		for op, write := range writes {
			want, got := write(db.Relation("left")), write(d.Relation("left"))
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Errorf("%s(%q, %q): distributed err %v, db err %v; want the DB's refusal", op, bad.RowKey, bad.JoinValue, got, want)
			}
		}
		for _, st := range d.Status() {
			if st.Dirty {
				t.Fatalf("after refusing %+v node %s is dirty: %s", bad, st.Name, st.DirtyCause)
			}
		}
		if got, ok, err := d.Relation("left").Get(bad.RowKey); err != nil || ok {
			t.Errorf("refused %q reads back %+v (ok %v, err %v)", bad.RowKey, got, ok, err)
		}
	}
}

// TestRouterBulkLoad: BulkLoad on a Distributed's handle ships each
// relation as a router-stamped op that every replica lands through its
// own bulk door, so after EnsureIndexes for every family each table,
// base and index, is byte-identical across the replicas, and every
// executor answers what a single-process DB answers. A NaN score is
// refused with a *ScoreError before anything ships.
func TestRouterBulkLoad(t *testing.T) {
	left, right := distTuples(300)
	db, q := oracleDB(t, left, right)
	d := openLoopbackCluster(t, 3)
	handles := map[string]*RelationHandle{}
	for _, name := range []string{"left", "right"} {
		h, err := d.DefineRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		handles[name] = h
	}
	nan := append(append([]Tuple(nil), left[:5]...), Tuple{RowKey: "dlnan", JoinValue: "j1", Score: math.NaN()})
	var se *ScoreError
	if err := handles["left"].BulkLoad(nan); !errors.As(err, &se) || se.RowKey != "dlnan" {
		t.Fatalf("BulkLoad with a NaN score = %v, want a *ScoreError for dlnan", err)
	}
	for _, n := range d.Nodes() {
		if cells, err := d.NodeDB(n).Cluster().TableCells("rel_left"); err != nil || len(cells) != 0 {
			t.Fatalf("%s holds %d cells (err %v) after a refused BulkLoad", n, len(cells), err)
		}
	}
	if err := handles["left"].BulkLoad(left); err != nil {
		t.Fatal(err)
	}
	if err := handles["right"].BulkLoad(right); err != nil {
		t.Fatal(err)
	}
	dq, err := d.NewQuery("left", "right", Sum, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range indexedAlgos {
		if err := d.EnsureIndexes(dq, algo); err != nil {
			t.Fatal(err)
		}
	}
	for _, table := range d.NodeDB("node0").Cluster().TableNames() {
		assertReplicasByteIdentical(t, d, table)
	}
	assertExecutorsMatchOracle(t, d, dq, db, q)
}

// TestNodeApplyRefusesBadBulkTuple: an OpBulk arrives off the wire from
// any transport client, and the bulk door stores whatever it is given,
// so a node refuses a bulk op holding a tuple the engine could not
// store as a bad request, and lands none of it.
func TestNodeApplyRefusesBadBulkTuple(t *testing.T) {
	db := mustOpen(t, Config{})
	if _, err := db.DefineRelation("left"); err != nil {
		t.Fatal(err)
	}
	node := NewNodeService("n", db)
	good := Tuple{RowKey: "l0", JoinValue: "j1", Score: 0.5}
	for _, bad := range []Tuple{
		{RowKey: "l1", JoinValue: "", Score: 0.5},
		{RowKey: "l1", JoinValue: "j\x001", Score: 0.5},
		{RowKey: "l\x001", JoinValue: "j1", Score: 0.5},
		{RowKey: "l1", JoinValue: "j1", Score: math.NaN()},
	} {
		err := node.Apply(transport.WriteOp{Kind: transport.OpBulk, Relation: "left", TS: 7, Batch: []Tuple{good, bad}})
		var te *transport.Error
		if !errors.As(err, &te) || te.Kind != transport.KindBadRequest {
			t.Errorf("Apply(OpBulk with %+v) = %v, want transport.KindBadRequest", bad, err)
		}
	}
	if cells, err := db.Cluster().TableCells("rel_left"); err != nil || len(cells) != 0 {
		t.Errorf("rel_left holds %d cells (err %v) after refused bulk ops", len(cells), err)
	}
}

// TestDistributedPageTokenFailover: follow-up pages are sticky to the
// node holding the cursor; when that node dies the query re-runs deep
// on a survivor and fast-forwards, so the client sees the exact same
// page sequence as the single-process baseline.
func TestDistributedPageTokenFailover(t *testing.T) {
	left, right := distTuples(300)
	db, q := oracleDB(t, left, right)
	d := openLoopbackCluster(t, 3)
	dq := loadCluster(t, d, left, right)

	const k = 5
	deep, err := db.TopK(q.WithK(4*k), AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(deep.Results) < 4*k {
		t.Fatalf("oracle produced only %d results; need %d", len(deep.Results), 4*k)
	}

	page1, err := d.TopK(dq.WithK(k), AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "page 1", page1.Results, deep.Results[:k])
	if page1.NextPageToken == "" {
		t.Fatal("full first page carries no token")
	}
	serving, pages, _, err := parseDistToken(page1.NextPageToken)
	if err != nil {
		t.Fatal(err)
	}
	if pages != 1 {
		t.Fatalf("token pages = %d, want 1", pages)
	}

	// Kill the node holding the cursor, then keep paging.
	if err := d.StopNode(serving); err != nil {
		t.Fatal(err)
	}
	page2, err := d.TopK(dq.WithK(k), AlgoISL, &QueryOptions{PageToken: page1.NextPageToken})
	if err != nil {
		t.Fatalf("page 2 after killing %s: %v", serving, err)
	}
	assertSameResults(t, "page 2 (failed over)", page2.Results, deep.Results[k:2*k])
	if page2.NextPageToken == "" {
		t.Fatal("failed-over page carries no continuation token")
	}
	survivor, _, _, err := parseDistToken(page2.NextPageToken)
	if err != nil {
		t.Fatal(err)
	}
	if survivor == serving {
		t.Fatalf("continuation token still points at dead node %s", serving)
	}

	// The survivor's cursor serves page 3 at marginal cost.
	page3, err := d.TopK(dq.WithK(k), AlgoISL, &QueryOptions{PageToken: page2.NextPageToken})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "page 3", page3.Results, deep.Results[2*k:3*k])

	// A token replayed with another algorithm or another query is the
	// caller's mistake, exactly as on a DB: the node still holds the
	// cursor and refuses it, and that refusal must reach the caller —
	// not be mistaken for a lost cursor and papered over by a deep
	// re-run. (The substring "page token" used to match all three.)
	fresh := func() string {
		t.Helper()
		p, err := d.TopK(dq.WithK(k), AlgoISL, nil)
		if err != nil || p.NextPageToken == "" {
			t.Fatalf("fresh first page: token %q, err %v", p.NextPageToken, err)
		}
		return p.NextPageToken
	}
	tok := fresh()
	if res, err := d.TopK(dq.WithK(k), AlgoBFHM, &QueryOptions{PageToken: tok}); err == nil {
		t.Fatalf("ISL token replayed with bfhm was answered (%d rows by %s)", len(res.Results), res.Algorithm)
	}
	other, err := d.NewQuery("left", "right", Product, k)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := d.TopK(other, AlgoISL, &QueryOptions{PageToken: fresh()}); err == nil {
		t.Fatalf("token replayed with another query was answered (%d rows)", len(res.Results))
	}
	// The refused resume consumed the node's cursor (tokens are
	// single-use), so the same token now names nothing there: that, and
	// only that, is a lost cursor, and it fails over.
	again, err := d.TopK(dq.WithK(k), AlgoISL, &QueryOptions{PageToken: tok})
	if err != nil {
		t.Fatalf("expired token did not fail over: %v", err)
	}
	assertSameResults(t, "page 2 (cursor expired)", again.Results, deep.Results[k:2*k])
}
