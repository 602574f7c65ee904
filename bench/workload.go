package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"

	rankjoin "repro"
	"repro/internal/kvstore"
	"repro/internal/tpch"
)

// dataSeed fixes the data sets: --seed varies the op list (order, keys
// and values of the traffic), not the relations the traffic runs on,
// so runs with different seeds measure the same store.
const dataSeed = 1

// workload is one traffic mix against one deployment of the program.
type workload struct {
	name string
	// why is the reason the workload exists (BENCHMARK.json carries
	// the same line).
	why string
	// roundOps is the op list's length at the reference --seconds
	// (refSeconds); it scales with --seconds. Calibrated once on the
	// 2-core sandbox so that the eight timed rounds take about
	// --seconds there (the two heavier mixes somewhat longer, to keep
	// enough samples per round); the list length, not the clock, ends
	// a round.
	roundOps int
	spec     mixSpec
	// base returns the loaded relations' tuples for the op generator.
	base func() map[string][]rankjoin.Tuple
	// build makes one complete set-up: data generated, loaded, every
	// index built. The harness adds the warm-up round.
	build func(h *harness) (*fixture, error)
}

// fixture is one set-up store with the handles the harness measures
// and probes it through.
type fixture struct {
	tgt target
	// relsOf lists, per query of the query table, the relations read.
	relsOf [][]string
	// newOracle builds the check round's oracle when the target is not
	// an in-process store that can serve as its own (see oracle).
	newOracle func() (*dbTarget, error)
	// dbs are the in-process stores whose counters the timed rounds
	// read (one, or the cluster's three nodes); probe is the one the
	// traced run's read-only layer probes call into.
	dbs   []*rankjoin.DB
	probe *dbTarget
	// probeAlgos are the executors of the per-layer core probes (run
	// on the first query of the table); maintainRel is the relation of
	// the write probes ("" = the workload has no store the bench may
	// write to directly).
	probeAlgos  []rankjoin.Algorithm
	maintainRel string
	// kvTable is a loaded table of probe's cluster for the kvstore
	// probes, kvKeys row keys it holds.
	kvTable string
	kvKeys  []string

	fs    *countFS // disk workload only
	dir   string   // disk workload only
	serve *serveFixture
	close func() error
}

// tpchReads is the read mix of the TPC-H workloads: uniform over
// {Q1,Q2} x algos x k in {1,10,100}, split between top-k, stream-to-k
// and one page resume in the shares given. DRJN and the MapReduce
// executors stay out of timed mixes: one DRJN query costs hundreds of
// ISL queries and would turn ops_per_s into a DRJN number.
func tpchReads(split [3]int, algos ...rankjoin.Algorithm) []readSpec {
	ks := []int{1, 10, 100}
	return []readSpec{
		{kind: opTopK, weight: split[0], algos: algos, ks: ks},
		{kind: opStream, weight: split[1], algos: algos, ks: ks},
		{kind: opPage, weight: split[2], algos: algos, ks: ks, pages: 1},
	}
}

// Shares of top-k / stream / page among the TPC-H reads. A stream to k
// rows does the work of a top-k of k, so the split moves no cost; the
// disk workload streams more often because first_result_p50_ms is taken
// from stream ops only, and at a half-read mix the issue's 20% left it
// two stream ops per (query, algo, k) to take a median from.
var (
	tpchSplit = [3]int{70, 20, 10}
	diskSplit = [3]int{45, 45, 10}
)

// Executors of the TPC-H mixes. The disk workload hand-picks: the
// planner is measured where the data is resident, and on disk its
// estimates are far enough off (plan.est_rel_err_p50 around 0.8) that
// auto flips between executors with the order of the writes, which
// would turn every latency of that workload into a planner-choice
// figure.
var (
	tpchAlgos = []rankjoin.Algorithm{rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoAuto}
	diskAlgos = []rankjoin.Algorithm{rankjoin.AlgoISL, rankjoin.AlgoBFHM}
)

// tpchNewKey makes fresh row keys in the loaded tables' own key
// format, far above the generated key range.
func tpchNewKey(rel string, i int) string {
	n := 9_000_000 + i
	switch rel {
	case "part":
		return tpch.RowKeyPart(n)
	case "orders":
		return tpch.RowKeyOrder(n)
	default:
		return tpch.RowKeyLineitem(n, 1)
	}
}

// Scale factors. The issue sized the data at SF 0.02 for a four-minute
// run; the contract allows about half a minute per run including three
// set-ups, so the data is scaled down and the mixes kept.
const (
	tpchSF  = 0.01  // 2,000 parts / 15,000 orders / ~60,000 lineitems
	diskSF  = 0.005 // 1,000 parts / 7,500 orders / ~30,000 lineitems
	serveSF = 0.005
)

var workloads = []*workload{
	{
		name:     "tpch_topk_mem",
		why:      "CPU-bound serving path with data resident: planner, ISL/BFHM operators, kvstore scanner/multiget, memtable and row cache; no disk, transport or HTTP",
		roundOps: 275,
		spec: mixSpec{
			writePerMille: 50, queries: 2, reads: tpchReads(tpchSplit, tpchAlgos...),
			writes: [4]int{1, 0, 0, 0}, rels: []string{"part"}, newKey: tpchNewKey,
		},
		base:  func() map[string][]rankjoin.Tuple { return tpchTuples(tpchSF) },
		build: func(*harness) (*fixture, error) { return newTPCHMem(tpchSF) },
	},
	{
		name:     "tpch_mixed_disk",
		why:      "same store on disk with half writes: WAL, flush, compaction and MANIFEST beside cold reads through blooms, SSTable blocks and a block cache smaller than the data",
		roundOps: 256,
		spec: mixSpec{
			writePerMille: 500, queries: 2, reads: tpchReads(diskSplit, diskAlgos...),
			writes: [4]int{45, 35, 10, 10}, rels: []string{"part", "orders", "lineitem_pk"}, newKey: tpchNewKey,
			batch: 20,
		},
		base:  func() map[string][]rankjoin.Tuple { return tpchTuples(diskSF) },
		build: buildTPCHDisk,
	},
	{
		name:     "chain_stream_mem",
		why:      "ranked enumeration on band chains: any-k operator, leaf indexes, threshold release, cursor cache and page tokens; no BFHM/DRJN/binary-ISL work and no disk",
		roundOps: 130,
		spec: mixSpec{
			writePerMille: 100, queries: 2,
			reads: []readSpec{
				{kind: opStream, weight: 60, algos: []rankjoin.Algorithm{rankjoin.AlgoAnyK}, ks: []int{1, 10, 30}},
				{kind: opPage, weight: 25, algos: []rankjoin.Algorithm{rankjoin.AlgoAnyK}, ks: []int{10}, pages: 2},
				{kind: opTopK, weight: 10, algos: []rankjoin.Algorithm{rankjoin.AlgoAuto}, ks: []int{1, 10, 30}},
			},
			writes: [4]int{1, 0, 0, 0}, rels: []string{"c1"},
			newKey: func(rel string, i int) string { return fmt.Sprintf("%s-9%05d", rel, i) },
		},
		base:  func() map[string][]rankjoin.Tuple { return chainTuples(chainRows) },
		build: func(*harness) (*fixture, error) { return newChain(chainRows) },
	},
	{
		name:     "serve_cluster_tcp",
		why:      "the only path through HTTP decode/encode, the topology router (round-robin reads, majority write quorum), the length-prefixed JSON codec over TCP and NodeService",
		roundOps: 240,
		spec: mixSpec{
			writePerMille: 100, queries: 2, reads: tpchReads(tpchSplit, tpchAlgos...),
			writes: [4]int{5, 3, 2, 0}, rels: []string{"part", "orders", "lineitem_pk"}, newKey: tpchNewKey,
		},
		base:  func() map[string][]rankjoin.Tuple { return tpchTuples(serveSF) },
		build: buildServe,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// tpchRelations is the load order; lineitem appears under both join
// attributes, as the paper indexes each join column.
var tpchRelations = []string{"part", "orders", "lineitem_pk", "lineitem_ok"}

// tpchRelsOf lists the relations of Q1 and Q2.
var tpchRelsOf = [][]string{{"part", "lineitem_pk"}, {"orders", "lineitem_ok"}}

// tpchTuples generates the TPC-H instance as rank-join tuples. This is
// the benchmark's own loader over the generator, kept apart from
// internal/benchkit so that a change there cannot change the benchmark.
func tpchTuples(sf float64) map[string][]rankjoin.Tuple {
	data := tpch.Generate(sf, dataSeed)
	out := map[string][]rankjoin.Tuple{}
	for i := range data.Parts {
		r := &data.Parts[i]
		out["part"] = append(out["part"], rankjoin.Tuple{RowKey: tpch.RowKeyPart(r.PartKey), JoinValue: strconv.Itoa(r.PartKey), Score: r.Score})
	}
	for i := range data.Orders {
		r := &data.Orders[i]
		out["orders"] = append(out["orders"], rankjoin.Tuple{RowKey: tpch.RowKeyOrder(r.OrderKey), JoinValue: strconv.Itoa(r.OrderKey), Score: r.Score})
	}
	for i := range data.Lineitems {
		r := &data.Lineitems[i]
		key := tpch.RowKeyLineitem(r.OrderKey, r.LineNumber)
		out["lineitem_pk"] = append(out["lineitem_pk"], rankjoin.Tuple{RowKey: key, JoinValue: strconv.Itoa(r.PartKey), Score: r.Score})
		out["lineitem_ok"] = append(out["lineitem_ok"], rankjoin.Tuple{RowKey: key, JoinValue: strconv.Itoa(r.OrderKey), Score: r.Score})
	}
	return out
}

// loadRelations defines and bulk-loads relations in the given order.
func loadRelations(db *rankjoin.DB, names []string, tuples map[string][]rankjoin.Tuple) error {
	for _, name := range names {
		h, err := db.DefineRelation(name)
		if err != nil {
			return err
		}
		if err := h.BulkLoad(tuples[name]); err != nil {
			return fmt.Errorf("load %s: %w", name, err)
		}
	}
	return nil
}

// tpchQueries builds Q1 (part x lineitem on part key, product) and Q2
// (orders x lineitem on order key, sum).
func tpchQueries(db *rankjoin.DB) ([]rankjoin.Query, error) {
	q1, err := db.NewQuery("part", "lineitem_pk", rankjoin.Product, 10)
	if err != nil {
		return nil, err
	}
	q2, err := db.NewQuery("orders", "lineitem_ok", rankjoin.Sum, 10)
	if err != nil {
		return nil, err
	}
	return []rankjoin.Query{q1, q2}, nil
}

// loadTPCH loads the TPC-H relations into db; with indexes it also
// builds every index family for Q1 and Q2.
func loadTPCH(db *rankjoin.DB, tuples map[string][]rankjoin.Tuple, indexes bool) (*dbTarget, error) {
	if err := loadRelations(db, tpchRelations, tuples); err != nil {
		return nil, err
	}
	qs, err := tpchQueries(db)
	if err != nil {
		return nil, err
	}
	if indexes {
		for _, q := range qs {
			if err := db.EnsureIndexes(q, rankjoin.AlgoIJLMR, rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN); err != nil {
				return nil, err
			}
		}
	}
	return newDBTarget(db, qs), nil
}

// rowKeys lists the row keys of tuples.
func rowKeys(tuples []rankjoin.Tuple) []string {
	keys := make([]string, len(tuples))
	for i, t := range tuples {
		keys[i] = t.RowKey
	}
	return keys
}

// tpchFixture loads a single-process TPC-H store and wraps it.
func tpchFixture(db *rankjoin.DB, sf float64) (*fixture, error) {
	tuples := tpchTuples(sf)
	t, err := loadTPCH(db, tuples, true)
	if err != nil {
		return nil, err
	}
	return &fixture{
		tgt:         t,
		relsOf:      tpchRelsOf,
		dbs:         []*rankjoin.DB{db},
		probe:       t,
		probeAlgos:  []rankjoin.Algorithm{rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN},
		maintainRel: "part",
		kvTable:     "rel_part",
		kvKeys:      rowKeys(tuples["part"]),
		close:       db.Close,
	}, nil
}

func newTPCHMem(sf float64) (*fixture, error) {
	db, err := rankjoin.Open(rankjoin.Config{})
	if err != nil {
		return nil, err
	}
	f, err := tpchFixture(db, sf)
	if err != nil {
		_ = db.Close()
	}
	return f, err
}

// Disk workload tuning. The block cache is a small fraction of the
// stored data so reads miss it (tpch_topk_mem is the case that fits).
// It is also small against what the mix's heaviest reader touches: a Q2
// ISL read pulls 250-550 KB of index blocks, so at 1 MiB those blocks
// never survive until the next Q2 ISL read and every such read is cold.
// At 3 MiB they survived about every other time, which of a list's
// stream ops found them depended on the order of the ops before it, and
// first_result_p50_ms sat at 1.8 or 4.5 ms depending on the seed. The
// flush threshold is small enough that every round sees several
// memtable flushes and at least one size-tiered compaction. Both are
// set after the bulk load so set-up is not spent compacting it.
const (
	diskBlockCacheBytes = 1 << 20
	diskFlushThreshold  = 8 << 10
)

// flushPolicy is the store's own durability policy, stated in the
// output because write latencies mean nothing without it.
const flushPolicy = "WAL append without per-record fsync; SSTable and MANIFEST fsynced at flush"

func buildTPCHDisk(h *harness) (*fixture, error) {
	dir, err := os.MkdirTemp(h.workDir, "disk-")
	if err != nil {
		return nil, err
	}
	fs := newCountFS(kvstore.DefaultVFS())
	db, err := rankjoin.OpenAt(rankjoin.Config{Dir: dir, VFS: fs})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	closeAll := func() error {
		err := db.Close()
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return err
	}
	f, err := tpchFixture(db, diskSF)
	if err != nil {
		_ = closeAll()
		return nil, err
	}
	db.Cluster().SetBlockCacheBytes(diskBlockCacheBytes)
	db.Cluster().SetFlushThreshold(diskFlushThreshold)
	f.fs, f.dir, f.close = fs, dir, closeAll
	return f, nil
}

// Chain workload shape: five relations of chainRows tuples, join
// values uniform integers in [0, chainRows), every chain edge a band
// predicate of width chainBand (benchkit's figure uses the same
// width: about three band partners per tuple and neighbour).
const (
	chainRows = 4000
	chainBand = 1.0
)

var chainRelations = []string{"c0", "c1", "c2", "c3", "c4"}

// chainShapes are the two measured chains; both read c1, the relation
// the mix inserts into, so every insert maintains both any-k indexes.
var chainShapes = [][]string{{"c0", "c1", "c2"}, {"c1", "c2", "c3", "c4"}}

func chainTuples(rows int) map[string][]rankjoin.Tuple {
	rng := rand.New(rand.NewSource(dataSeed))
	out := map[string][]rankjoin.Tuple{}
	for _, name := range chainRelations {
		tuples := make([]rankjoin.Tuple, rows)
		for j := range tuples {
			tuples[j] = rankjoin.Tuple{
				RowKey:    fmt.Sprintf("%s-%06d", name, j),
				JoinValue: strconv.Itoa(rng.Intn(rows)),
				Score:     math.Round(rng.Float64()*1e6) / 1e6,
			}
		}
		out[name] = tuples
	}
	return out
}

func newChain(rows int) (*fixture, error) {
	db, err := rankjoin.Open(rankjoin.Config{})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*fixture, error) {
		_ = db.Close()
		return nil, err
	}
	tuples := chainTuples(rows)
	if err := loadRelations(db, chainRelations, tuples); err != nil {
		return fail(err)
	}
	var qs []rankjoin.Query
	for _, shape := range chainShapes {
		edges := make([]rankjoin.TreeEdge, len(shape)-1)
		for i := range edges {
			edges[i] = rankjoin.TreeEdge{A: i, B: i + 1, Kind: rankjoin.PredBand, Band: chainBand}
		}
		q, err := db.NewTreeQuery(shape, edges, rankjoin.SumN, 10)
		if err != nil {
			return fail(err)
		}
		if err := db.EnsureIndexes(q, rankjoin.AlgoAnyK); err != nil {
			return fail(err)
		}
		qs = append(qs, q)
	}
	t := newDBTarget(db, qs)
	return &fixture{
		tgt:         t,
		relsOf:      chainShapes,
		dbs:         []*rankjoin.DB{db},
		probe:       t,
		probeAlgos:  []rankjoin.Algorithm{rankjoin.AlgoAnyK},
		maintainRel: "c1",
		kvTable:     "rel_c0",
		kvKeys:      rowKeys(tuples["c0"]),
		close:       db.Close,
	}, nil
}
