// Package benchkit assembles the paper's evaluation workloads (Section
// 7.1) for the benchmark harness: TPC-H data loaded into a simulated
// cluster, all four index families built with the paper's parameters,
// and runners that regenerate every figure's series — query time,
// network bandwidth, and dollar cost for Q1/Q2 across k, plus indexing
// time (Fig. 9), index sizes, reducer memory, and the online-update
// overhead experiment.
package benchkit

import (
	"fmt"
	"slices"
	"time"

	rankjoin "repro"
	"repro/internal/sim"
	"repro/internal/tpch"
)

// Workload is the TPC-H evaluation workload a loaded store serves,
// whichever store it is: the generated instance, its two queries, the
// ISL batch size and what building each index family cost.
type Workload struct {
	Profile sim.Profile
	SF      float64
	Q1      rankjoin.Query // Part x Lineitem ON PartKey, product
	Q2      rankjoin.Query // Orders x Lineitem ON OrderKey, sum
	// ISLBatch is 1% of the lineitem row count (the paper's batching).
	ISLBatch int
	// BuildCost records the indexing cost per algorithm (Fig. 9).
	BuildCost map[rankjoin.Algorithm]sim.Snapshot
	// Data is the generated TPC-H instance (update experiments draw
	// mutations from it).
	Data *tpch.Data
}

// Env is one loaded evaluation environment (cluster + data + indexes)
// in a single-process DB.
type Env struct {
	Workload
	DB *rankjoin.DB
}

// store is what the loader needs of a DB or a Distributed.
type store interface {
	DefineRelation(name string) (*rankjoin.RelationHandle, error)
	Relation(name string) *rankjoin.RelationHandle
	RelationNames() []string
	NewQuery(left, right string, f rankjoin.ScoreFunc, k int) (rankjoin.Query, error)
	EnsureIndexes(q rankjoin.Query, algos ...rankjoin.Algorithm) error
	AggregateCost() sim.Snapshot
}

// KValues are the paper's evaluated result sizes.
var KValues = []int{1, 10, 100, 1000}

// Algorithms in figure order.
var Algorithms = []rankjoin.Algorithm{
	rankjoin.AlgoHive, rankjoin.AlgoPig, rankjoin.AlgoIJLMR,
	rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN,
}

// LCAlgorithms is the subset the paper plots for the big-scale lab
// cluster runs ("for presentation clarity we omit specific results" for
// IJLMR/PIG/HIVE on LC).
var LCAlgorithms = []rankjoin.Algorithm{
	rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN,
}

// Setup generates TPC-H data at the scale factor, loads it, and builds
// every index with the paper's parameters (BFHM: 100 buckets, 5% FPP;
// DRJN: 100 score bands; ISL batch = 1%).
func Setup(profile sim.Profile, sf float64, seed int64) (*Env, error) {
	db, err := rankjoin.Open(rankjoin.Config{Profile: &profile})
	if err != nil {
		return nil, err
	}
	w, err := load(db, profile, sf, seed)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	return &Env{Workload: *w, DB: db}, nil
}

// SetupAt is Setup against a durable directory. An empty directory is
// generated, loaded, and indexed exactly like Setup (one slow first
// run); a directory that already holds the environment is recovered
// as-is — tables and index descriptors come back from the manifest and
// catalog with no regeneration, reload, or rebuild, so recovered=true
// runs skip the whole build. Pass the same sf and seed as the run that
// populated the directory: the TPC-H instance backing the update
// experiments is regenerated deterministically from them, and BuildCost
// is empty on the recovered path (nothing was built).
func SetupAt(profile sim.Profile, sf float64, seed int64, dir string) (env *Env, recovered bool, err error) {
	db, err := rankjoin.OpenAt(rankjoin.Config{Profile: &profile, Dir: dir})
	if err != nil {
		return nil, false, err
	}
	var w *Workload
	if recovered = len(db.RelationNames()) > 0; recovered {
		w, err = workload(db, profile, sf, tpch.Generate(sf, seed))
	} else {
		w, err = load(db, profile, sf, seed)
	}
	if err != nil {
		_ = db.Close()
		return nil, false, err
	}
	return &Env{Workload: *w, DB: db}, recovered, nil
}

// relationNames are the four relation views of the TPC-H instance, in
// load order: lineitem appears under both join attributes, as the paper
// indexes each join column.
var relationNames = []string{"part", "orders", "lineitem_pk", "lineitem_ok"}

// workload assembles the Workload over a store whose relations hold
// data: the queries, the batch sizing, and the instance itself.
func workload(s store, profile sim.Profile, sf float64, data *tpch.Data) (*Workload, error) {
	for _, name := range relationNames {
		if s.Relation(name) == nil {
			return nil, fmt.Errorf("benchkit: store lacks relation %q (relations: %v)", name, s.RelationNames())
		}
	}
	w := &Workload{
		Profile:   profile,
		SF:        sf,
		Data:      data,
		ISLBatch:  max(1, len(data.Lineitems)/100),
		BuildCost: map[rankjoin.Algorithm]sim.Snapshot{},
	}
	var err error
	if w.Q1, err = s.NewQuery("part", "lineitem_pk", rankjoin.Product, 10); err != nil {
		return nil, err
	}
	if w.Q2, err = s.NewQuery("orders", "lineitem_ok", rankjoin.Sum, 10); err != nil {
		return nil, err
	}
	return w, nil
}

// load populates a fresh store, a DB or a Distributed, with the
// generated TPC-H instance and builds every index family, each on its
// own so Fig. 9 gets per-algorithm indexing costs.
func load(s store, profile sim.Profile, sf float64, seed int64) (*Workload, error) {
	data := tpch.Generate(sf, seed)
	tuples := relationTuples(data)
	for _, name := range relationNames {
		h, err := s.DefineRelation(name)
		if err != nil {
			return nil, err
		}
		if err := h.BulkLoad(tuples[name]); err != nil {
			return nil, fmt.Errorf("benchkit: load %s: %w", name, err)
		}
	}
	w, err := workload(s, profile, sf, data)
	if err != nil {
		return nil, err
	}
	for _, algo := range []rankjoin.Algorithm{rankjoin.AlgoIJLMR, rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN} {
		before := s.AggregateCost()
		if err := s.EnsureIndexes(w.Q1, algo); err != nil {
			return nil, err
		}
		if err := s.EnsureIndexes(w.Q2, algo); err != nil {
			return nil, err
		}
		w.BuildCost[algo] = s.AggregateCost().Sub(before)
	}
	return w, nil
}

// relationTuples renders the TPC-H instance as the tuples of each of
// the four relation views, by name.
func relationTuples(data *tpch.Data) map[string][]rankjoin.Tuple {
	tuples := make(map[string][]rankjoin.Tuple, len(relationNames))
	for i := range data.Parts {
		r := &data.Parts[i]
		tuples["part"] = append(tuples["part"], rankjoin.Tuple{RowKey: tpch.RowKeyPart(r.PartKey), JoinValue: fmt.Sprint(r.PartKey), Score: r.Score})
	}
	for i := range data.Orders {
		r := &data.Orders[i]
		tuples["orders"] = append(tuples["orders"], rankjoin.Tuple{RowKey: tpch.RowKeyOrder(r.OrderKey), JoinValue: fmt.Sprint(r.OrderKey), Score: r.Score})
	}
	for i := range data.Lineitems {
		r := &data.Lineitems[i]
		key := tpch.RowKeyLineitem(r.OrderKey, r.LineNumber)
		tuples["lineitem_pk"] = append(tuples["lineitem_pk"], rankjoin.Tuple{RowKey: key, JoinValue: fmt.Sprint(r.PartKey), Score: r.Score})
		tuples["lineitem_ok"] = append(tuples["lineitem_ok"], rankjoin.Tuple{RowKey: key, JoinValue: fmt.Sprint(r.OrderKey), Score: r.Score})
	}
	return tuples
}

// Counts reports the loaded table cardinalities.
func (w *Workload) Counts() (parts, orders, lineitems int) {
	return len(w.Data.Parts), len(w.Data.Orders), len(w.Data.Lineitems)
}

// Run executes one query configuration.
func (e *Env) Run(q rankjoin.Query, algo rankjoin.Algorithm, k int) (*rankjoin.Result, error) {
	return e.DB.TopK(q.WithK(k), algo, &rankjoin.QueryOptions{ISLBatch: e.ISLBatch})
}

// Cell is one figure data point.
type Cell struct {
	Algo rankjoin.Algorithm
	K    int
	Cost sim.Snapshot
}

// Series runs a query across algorithms and k values — the underlying
// measurements for one column of Fig. 7/8 (time, bandwidth, and dollar
// cost all come from the same runs, as in the paper).
func (e *Env) Series(q rankjoin.Query, algos []rankjoin.Algorithm, ks []int) ([]Cell, error) {
	var out []Cell
	for _, algo := range algos {
		for _, k := range ks {
			res, err := e.Run(q, algo, k)
			if err != nil {
				return nil, fmt.Errorf("benchkit: %s k=%d: %w", algo, k, err)
			}
			out = append(out, Cell{Algo: algo, K: k, Cost: res.Cost})
		}
	}
	return out, nil
}

// Metric projects one of the paper's three metrics from a snapshot.
type Metric struct {
	Name string
	Unit string
	Get  func(sim.Snapshot) float64
}

// The three figure metrics.
var (
	MetricTime = Metric{Name: "query time", Unit: "s",
		Get: func(s sim.Snapshot) float64 { return s.SimTime.Seconds() }}
	MetricBandwidth = Metric{Name: "network bandwidth", Unit: "bytes",
		Get: func(s sim.Snapshot) float64 { return float64(s.NetworkBytes) }}
	MetricDollar = Metric{Name: "dollar cost (KV read units)", Unit: "reads",
		Get: func(s sim.Snapshot) float64 { return float64(s.KVReads) }}
)

// FormatTable renders a series as a paper-style table: one row per
// algorithm and one column per k, each in the order the cells first
// name it (Series and ChainSeries run algorithm by algorithm, k
// ascending).
func FormatTable(title string, cells []Cell, metric Metric) string {
	var algoList []rankjoin.Algorithm
	var kList []int
	for _, c := range cells {
		if !slices.Contains(algoList, c.Algo) {
			algoList = append(algoList, c.Algo)
		}
		if !slices.Contains(kList, c.K) {
			kList = append(kList, c.K)
		}
	}
	out := fmt.Sprintf("%s — %s [%s]\n", title, metric.Name, metric.Unit)
	out += fmt.Sprintf("%-8s", "algo\\k")
	for _, k := range kList {
		out += fmt.Sprintf(" %14d", k)
	}
	out += "\n"
	for _, a := range algoList {
		out += fmt.Sprintf("%-8s", a)
		for _, k := range kList {
			for _, c := range cells {
				if c.Algo == a && c.K == k {
					out += fmt.Sprintf(" %14.4g", metric.Get(c.Cost))
				}
			}
		}
		out += "\n"
	}
	return out
}

// IndexingReport renders Fig. 9 plus the Section 7.2 size/memory lists.
func (e *Env) IndexingReport() string {
	out := fmt.Sprintf("Indexing costs (profile %s, SF %g)\n", e.Profile.Name, e.SF)
	out += fmt.Sprintf("%-8s %-14s %-14s %-12s\n", "index", "build time", "KV writes", "net bytes")
	for _, algo := range []rankjoin.Algorithm{rankjoin.AlgoIJLMR, rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN} {
		c := e.BuildCost[algo]
		out += fmt.Sprintf("%-8s %-14v %-14d %-12d\n", algo, c.SimTime.Round(time.Millisecond), c.KVWrites, c.NetworkBytes)
	}
	out += fmt.Sprintf("\nIndex disk sizes (bytes)\n%-8s %-12s %-12s\n", "index", "Q1 pair", "Q2 pair")
	for _, algo := range []rankjoin.Algorithm{rankjoin.AlgoIJLMR, rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN} {
		out += fmt.Sprintf("%-8s %-12d %-12d\n", algo,
			e.DB.IndexDiskSize(e.Q1, algo), e.DB.IndexDiskSize(e.Q2, algo))
	}
	base := 0
	for _, rel := range []string{"part", "orders", "lineitem_pk", "lineitem_ok"} {
		if h := e.DB.Relation(rel); h != nil {
			base += int(h.DiskSize())
		}
	}
	out += fmt.Sprintf("\nBase data on disk: %d bytes\n", base)
	return out
}

// UpdateExperiment reproduces the Section 7.2 online-updates run:
// apply one TPC-H update set through the Section 6 interception path,
// then run a BFHM query that replays the pending mutation records over
// the blobs it decodes (queries never write back). The overhead is
// reported against the same state after the offline write-back pass and
// a major compaction of the BFHM tables, whose rows then hold one version
// of each cell, as after a fresh build.
func (e *Env) UpdateExperiment(setNo int) (overheadPct float64, applied int, err error) {
	liOK := e.DB.Relation("lineitem_ok")
	ordersH := e.DB.Relation("orders")
	muts := e.Data.UpdateSet(setNo, 12345)
	for _, mu := range muts {
		switch {
		case mu.Table == "orders" && mu.Order != nil:
			t := rankjoin.Tuple{
				RowKey:    tpch.RowKeyOrder(mu.Order.OrderKey),
				JoinValue: fmt.Sprint(mu.Order.OrderKey),
				Score:     mu.Order.Score,
			}
			if mu.Insert {
				err = ordersH.Insert(t.RowKey, t.JoinValue, t.Score)
			} else {
				err = ordersH.Delete(t.RowKey, t.JoinValue, t.Score)
			}
		case mu.Table == "lineitem" && mu.Lineitem != nil:
			t := rankjoin.Tuple{
				RowKey:    tpch.RowKeyLineitem(mu.Lineitem.OrderKey, mu.Lineitem.LineNumber),
				JoinValue: fmt.Sprint(mu.Lineitem.OrderKey),
				Score:     mu.Lineitem.Score,
			}
			if mu.Insert {
				err = liOK.Insert(t.RowKey, t.JoinValue, t.Score)
			} else {
				err = liOK.Delete(t.RowKey, t.JoinValue, t.Score)
			}
		}
		if err != nil {
			return 0, applied, err
		}
		applied++
	}

	// Each side bills the second of two runs: the first settles the region
	// row caches after the writes, whose fill (seek time) would otherwise
	// swamp the replay cost on the first update set.
	query := func() (time.Duration, error) {
		if _, err := e.Run(e.Q2, rankjoin.AlgoBFHM, 10); err != nil {
			return 0, err
		}
		res, err := e.Run(e.Q2, rankjoin.AlgoBFHM, 10)
		if err != nil {
			return 0, err
		}
		return res.Cost.SimTime, nil
	}
	pending, err := query()
	if err != nil {
		return 0, applied, err
	}

	for _, h := range []*rankjoin.RelationHandle{ordersH, liOK} {
		if _, err := h.WriteBackBFHM(); err != nil {
			return 0, applied, err
		}
		regions, err := e.DB.Cluster().TableRegions("bfhm_" + h.Name())
		if err != nil {
			return 0, applied, err
		}
		for _, r := range regions {
			if err := r.Compact(); err != nil {
				return 0, applied, err
			}
		}
	}
	clean, err := query()
	if err != nil {
		return 0, applied, err
	}
	if clean == 0 {
		return 0, applied, nil
	}
	return float64(pending-clean) / float64(clean) * 100, applied, nil
}

// MixedWorkloadReport runs the mixed read/write experiment: scripted
// online inserts, updates, and deletes flow through the write-through
// maintenance pipeline (every index of the touched relations maintained
// per write, one batched group mutation each) while top-k queries
// interleave. It reports:
//
//   - simulated write cost (time and KV cells written),
//   - write-RPC economy: the batched pipeline's round trips against the
//     per-cell baseline it replaced (one RPC per written cell — exactly
//     the KV-writes count),
//   - a freshness probe: a top-ranked pair planted at the end must be
//     the first result of EVERY executor on the immediately following
//     query, DRJN included, with no rebuild.
func (e *Env) MixedWorkloadReport(writes, interleaveEvery int) (string, error) {
	ordersH := e.DB.Relation("orders")
	liOK := e.DB.Relation("lineitem_ok")
	if ordersH == nil || liOK == nil {
		return "", fmt.Errorf("benchkit: orders/lineitem_ok not loaded")
	}

	m := e.DB.Metrics()
	before := m.Snapshot()
	var readCost sim.Snapshot
	applied := 0
	for i := 0; i < writes; i++ {
		var err error
		switch i % 4 {
		case 0: // fresh order
			err = ordersH.Insert(fmt.Sprintf("omix%06d", i), fmt.Sprintf("9%06d", i), float64(i%997)/997)
		case 1: // fresh lineitem joining it
			err = liOK.Insert(fmt.Sprintf("limix%06d", i), fmt.Sprintf("9%06d", i-1), float64(i%883)/883)
		case 2: // re-score the order written two steps ago
			err = ordersH.Update(fmt.Sprintf("omix%06d", i-2), fmt.Sprintf("9%06d", i-2), float64(i%769)/769)
		default: // retire every other cycle's order, re-score lineitems otherwise
			if i%8 == 3 {
				err = ordersH.DeleteKey(fmt.Sprintf("omix%06d", i-3))
			} else {
				err = liOK.Update(fmt.Sprintf("limix%06d", i-2), fmt.Sprintf("9%06d", i-3), float64(i%641)/641)
			}
		}
		if err != nil {
			return "", fmt.Errorf("benchkit: mixed write %d: %w", i, err)
		}
		applied++
		if interleaveEvery > 0 && i%interleaveEvery == interleaveEvery-1 {
			rb := m.Snapshot()
			if _, err := e.Run(e.Q2, rankjoin.AlgoISL, 10); err != nil {
				return "", fmt.Errorf("benchkit: interleaved read: %w", err)
			}
			readCost = readCost.Add(m.Snapshot().Sub(rb))
		}
	}
	d := m.Snapshot().Sub(before).Sub(readCost)

	out := fmt.Sprintf("Mixed read/write workload (profile %s, SF %g)\n", e.Profile.Name, e.SF)
	out += fmt.Sprintf("  simulated write cost: %v, %d KV cells written\n",
		d.SimTime.Round(time.Microsecond), d.KVWrites)
	writeRPCs := d.RPCCalls - uint64(applied) // upserts pay one existence-read RPC each
	out += fmt.Sprintf("  write RPCs: %d batched group writes vs %d per-cell puts (%.1fx fewer round trips)\n",
		writeRPCs, d.KVWrites, float64(d.KVWrites)/float64(writeRPCs))

	// Freshness probe: plant a pair that must rank first everywhere.
	if err := ordersH.Insert("ofresh", "zfreshmix", 1.0); err != nil {
		return "", err
	}
	if err := liOK.Insert("lifresh", "zfreshmix", 1.0); err != nil {
		return "", err
	}
	out += "  freshness (write -> immediate top-1 query):\n"
	algos := append([]rankjoin.Algorithm{rankjoin.AlgoNaive}, Algorithms...)
	for _, algo := range algos {
		res, err := e.Run(e.Q2, algo, 1)
		if err != nil {
			return "", fmt.Errorf("benchkit: freshness %s: %w", algo, err)
		}
		if len(res.Results) == 0 || res.Results[0].Score < 2.0-1e-9 {
			return "", fmt.Errorf("benchkit: %s is STALE after write (top = %+v)", algo, res.Results)
		}
		out += fmt.Sprintf("    %-6s sees the write (top score %.3f, %v)\n",
			algo, res.Results[0].Score, res.Cost.SimTime.Round(time.Microsecond))
	}
	return out, nil
}

// PagingReport runs the deep-pagination scenario: one top-k query, then
// further pages resumed through page tokens, recording the marginal
// cost of every page. For comparison it also measures what a client
// without tokens pays — re-running TopK at the growing depth for each
// page — so the report shows what resumable cursor state saves.
func (e *Env) PagingReport(q rankjoin.Query, algos []rankjoin.Algorithm, k, pages int) (string, error) {
	out := fmt.Sprintf("Deep pagination: %d pages x k=%d (per-page marginal cost via page tokens)\n", pages, k)
	for _, algo := range algos {
		opts := &rankjoin.QueryOptions{ISLBatch: e.ISLBatch}
		var pageReads []uint64
		var pageTimes []time.Duration
		var totalReads uint64
		var totalTime time.Duration
		got := 0
		for page := 0; page < pages; page++ {
			res, err := e.DB.TopK(q.WithK(k), algo, opts)
			if err != nil {
				return "", fmt.Errorf("%s page %d: %w", algo, page, err)
			}
			got += len(res.Results)
			pageReads = append(pageReads, res.Cost.KVReads)
			pageTimes = append(pageTimes, res.Cost.SimTime)
			totalReads += res.Cost.KVReads
			totalTime += res.Cost.SimTime
			if res.NextPageToken == "" {
				break
			}
			opts = &rankjoin.QueryOptions{ISLBatch: e.ISLBatch, PageToken: res.NextPageToken}
		}

		// The tokenless alternative: re-run at depth i*k per page.
		var rerunReads uint64
		var rerunTime time.Duration
		for i := 1; i <= pages; i++ {
			res, err := e.DB.TopK(q.WithK(k*i), algo, &rankjoin.QueryOptions{ISLBatch: e.ISLBatch})
			if err != nil {
				return "", fmt.Errorf("%s rerun %d: %w", algo, i, err)
			}
			rerunReads += res.Cost.KVReads
			rerunTime += res.Cost.SimTime
		}

		out += fmt.Sprintf("  %-6s %3d results: paged %d read units / %v total",
			algo, got, totalReads, totalTime.Round(time.Microsecond))
		if totalReads > 0 {
			out += fmt.Sprintf("  (vs %d units / %v re-running per page, %.1fx reads saved)",
				rerunReads, rerunTime.Round(time.Microsecond), float64(rerunReads)/float64(totalReads))
		}
		out += "\n    per-page read units:"
		for _, r := range pageReads {
			out += fmt.Sprintf(" %d", r)
		}
		out += "\n"
	}
	return out, nil
}
