package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	rankjoin "repro"
	"repro/internal/kvstore"
	"repro/internal/transport"
)

// Tracing here is differential and lives entirely in bench/: the
// program under test is not instrumented. For a sampled op the same
// input is issued again at each public entry point further down the
// stack, one span per call, the lower call recorded as the child of the
// higher one. A layer's self time is its span minus its child spans:
// what the layer added on top of the layers below it.

// span is one timed call. Start and End are nanoseconds since the
// trace began; Parent is the id of the span this call was issued
// beneath (-1 for an op's root span); spans of one op share OpID
// (-1 for the stand-alone layer probes).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

func (s *span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

// record adds a finished span that ended just now after lasting d.
func (t *tracer) record(name string, parent, opID int, d time.Duration) int {
	end := int64(time.Since(t.t0))
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: end - int64(d), End: end, Parent: parent, OpID: opID})
	return id
}

// call times fn as a span and returns its id and duration.
func (t *tracer) call(name string, parent, opID int, fn func() error) (int, time.Duration, error) {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	return t.record(name, parent, opID, d), d, err
}

// selfTimes sums, per layer, each span's duration minus its children's
// (clamped at zero: a child that happened to run slower than its
// parent's own run adds no negative time). It returns the per-layer
// totals in ms, their sum, and the summed duration of op root spans.
func (t *tracer) selfTimes() (byLayer map[string]float64, selfSum, rootSum float64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byLayer = map[string]float64{}
	for _, s := range t.spans {
		if s.OpID < 0 {
			continue
		}
		d := s.End - s.Start
		if s.Parent < 0 {
			rootSum += ms(time.Duration(d))
		}
		if self := time.Duration(d - child[s.ID]); self > 0 {
			byLayer[s.layer()] += ms(self)
			selfSum += ms(self)
		}
	}
	return byLayer, selfSum, rootSum
}

// sampleEvery is how many top-k reads pass between two that are
// reissued down the stack in the traced round.
const sampleEvery = 4

// traceWorkload is the traced run: one more replay of the op list with
// a root span per op and sampled reissues down the stack, then the
// stand-alone probes of each layer the workload crosses.
func (h *harness) traceWorkload(f *fixture, w *workload, ops []op, rep *report) error {
	tr := &tracer{t0: time.Now()}
	var scratch *scratchNode
	if f.serve != nil {
		var err error
		if scratch, err = f.serve.openScratch(); err != nil {
			return err
		}
		defer scratch.close()
	}

	if f.fs != nil {
		f.fs.timing.Store(true)
	}
	fs0 := f.counters().fs
	var reissue time.Duration
	sampled := 0
	st := h.replay(f, ops, nil, func(i int, o *op, res *opResult, d time.Duration) {
		root := tr.record(rootSpanName(f, o), -1, i, d)
		if o.Kind != opTopK {
			return
		}
		if sampled++; sampled%sampleEvery != 0 {
			return
		}
		t0 := time.Now()
		if err := reissueDown(tr, f, scratch, o, res, root, i); err != nil {
			h.logf("  trace: reissue of op %d failed: %v", i, err)
		}
		reissue += time.Since(t0)
	})
	if f.fs != nil {
		f.fs.timing.Store(false)
		rep.setLayer("vfs.busy_ms", ms(f.counters().fs.sub(fs0).Busy))
	}
	if err := h.sweepBatches(f, ops); err != nil {
		return err
	}
	rep.count(st)
	timedRate := rep.EndToEnd["ops_per_s"].Value
	tracedRate := float64(st.ops) / st.busy.Seconds() / st.speed()
	rep.setLayer("trace.overhead_share", (timedRate-tracedRate)/timedRate)
	byLayer, selfSum, rootSum := tr.selfTimes()
	rep.setLayer("trace.self_sum_share", selfSum/rootSum)

	if err := h.probeLayers(tr, f, w, scratch, rep); err != nil {
		return err
	}

	out := map[string]any{
		"workload":         w.name,
		"time_unit":        "ns",
		"ops":              st.ops,
		"mean_op_ms":       rootSum / float64(st.ops),
		"self_ms_by_layer": byLayer,
		"self_sum_ms":      selfSum,
		"root_sum_ms":      rootSum,
		"reissue_ms":       ms(reissue),
		"spans":            tr.spans,
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	path := filepath.Join(h.outDir, "trace-"+w.name+".json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	h.logf("  trace: %d spans written to %s; self time by layer (ms): %v", len(tr.spans), path, byLayer)
	return nil
}

// rootSpanName names an op's root span after the highest layer the op
// enters: HTTP over the cluster; in process, the executor for a named
// algorithm (DB.TopK(isl) is the executor's lowest public entry point)
// and the planning API for auto.
func rootSpanName(f *fixture, o *op) string {
	switch {
	case f.serve != nil:
		return "http." + string(o.Kind)
	case !o.isRead():
		return "core.maintain"
	case o.Algo == string(rankjoin.AlgoAuto):
		return "api.auto"
	default:
		return "core." + o.Algo
	}
}

// reissueDown issues a sampled top-k op again at every public entry
// point below the one the workload used.
func reissueDown(tr *tracer, f *fixture, scratch *scratchNode, o *op, res *opResult, parent, opID int) error {
	q := f.probe.queries[o.Query].WithK(o.K)
	opts := f.probe.opts
	algo := rankjoin.Algorithm(o.Algo)
	if s := f.serve; s != nil {
		var err error
		if parent, _, err = tr.call("api.dist", parent, opID, func() error {
			_, err := scratch.dist.TopK(scratch.queries[o.Query].WithK(o.K), algo, &opts)
			return err
		}); err != nil {
			return err
		}
		req := wireQuery(o, s.islBatch)
		if parent, _, err = tr.call("transport.topk", parent, opID, func() error {
			_, err := scratch.node0.TopK(req)
			return err
		}); err != nil {
			return err
		}
		if parent, _, err = tr.call("api.node", parent, opID, func() error {
			_, err := s.svcs[0].TopK(req)
			return err
		}); err != nil {
			return err
		}
		if algo != rankjoin.AlgoAuto {
			_, _, err = tr.call("core."+o.Algo, parent, opID, func() error {
				_, err := f.probe.db.TopK(q, algo, &opts)
				return err
			})
			return err
		}
		if parent, _, err = tr.call("api.auto", parent, opID, func() error {
			_, err := f.probe.db.TopK(q, algo, &opts)
			return err
		}); err != nil {
			return err
		}
	}
	if algo != rankjoin.AlgoAuto {
		return nil
	}
	if _, _, err := tr.call("plan.explain", parent, opID, func() error {
		_, err := f.probe.db.Explain(q, &rankjoin.ExplainOptions{Query: opts})
		return err
	}); err != nil {
		return err
	}
	_, _, err := tr.call("core."+res.algo, parent, opID, func() error {
		_, err := f.probe.db.TopK(q, rankjoin.Algorithm(res.algo), &opts)
		return err
	})
	return err
}

// wireQuery is the transport-level form of a TPC-H top-k op, as the
// router would ship it.
func wireQuery(o *op, islBatch int) transport.QueryRequest {
	req := transport.QueryRequest{
		Left: tpchRelsOf[o.Query][0], Right: tpchRelsOf[o.Query][1],
		Score: "product", K: o.K, Algo: o.Algo,
		ISLBatch: islBatch, Parallelism: parallelism,
	}
	if o.Query == 1 {
		req.Score = "sum"
	}
	return req
}

// scratchNode is what the traced cluster run adds beside the system
// under test: the bench's own read-only Distributed handle over the
// same three nodes, a direct transport client to node 0, and a fourth
// node outside the cluster that write probes are sent to — so replicas
// never diverge and the router under test stays the only writer.
type scratchNode struct {
	dist    *rankjoin.Distributed
	queries []rankjoin.Query
	node0   *transport.Client
	db      *rankjoin.DB
	server  *transport.Server
	client  *transport.Client
}

func (s *serveFixture) openScratch() (*scratchNode, error) {
	sc := &scratchNode{}
	var specs []rankjoin.NodeSpec
	for i, addr := range s.addrs {
		specs = append(specs, rankjoin.NodeSpec{Name: fmt.Sprintf("n%d", i), Addr: addr})
	}
	var err error
	if sc.dist, err = rankjoin.OpenDistributed(rankjoin.Config{Topology: &rankjoin.Topology{Nodes: specs}}); err != nil {
		return nil, err
	}
	fail := func(err error) (*scratchNode, error) {
		sc.close()
		return nil, err
	}
	// DefineRelation is idempotent on the nodes; the handle only needs
	// it to learn where the relations live.
	for _, name := range tpchRelations {
		if _, err := sc.dist.DefineRelation(name); err != nil {
			return fail(err)
		}
	}
	q1, err := sc.dist.NewQuery("part", "lineitem_pk", rankjoin.Product, 10)
	if err != nil {
		return fail(err)
	}
	q2, err := sc.dist.NewQuery("orders", "lineitem_ok", rankjoin.Sum, 10)
	if err != nil {
		return fail(err)
	}
	sc.queries = []rankjoin.Query{q1, q2}
	sc.node0 = transport.Dial(s.addrs[0])
	if sc.db, err = rankjoin.Open(rankjoin.Config{}); err != nil {
		return fail(err)
	}
	svc := rankjoin.NewNodeService("scratch", sc.db)
	if err := svc.DefineRelation("part"); err != nil {
		return fail(err)
	}
	if sc.server, err = transport.ListenAndServe("127.0.0.1:0", svc); err != nil {
		return fail(err)
	}
	sc.client = transport.Dial(sc.server.Addr())
	return sc, nil
}

func (sc *scratchNode) close() {
	if sc.client != nil {
		_ = sc.client.Close()
	}
	if sc.server != nil {
		_ = sc.server.Close()
	}
	if sc.db != nil {
		_ = sc.db.Close()
	}
	if sc.node0 != nil {
		_ = sc.node0.Close()
	}
	if sc.dist != nil {
		_ = sc.dist.Close()
	}
}

// probeRuns is how many calls a layer probe's median is taken over.
const probeRuns = 15

// probeLayers measures each layer the workload crosses by calling its
// public functions directly, outside any op. Every call is a span of
// op id -1.
func (h *harness) probeLayers(tr *tracer, f *fixture, w *workload, scratch *scratchNode, rep *report) error {
	// p50 runs fn n times and returns the median duration in ms on the
	// nominal machine (a yardstick call precedes every run); fn returns
	// the duration to record (a part of the call, such as time to first
	// row) or 0 for the whole call.
	p50 := func(name string, n int, fn func(i int) (time.Duration, error)) (float64, error) {
		var ds, yard []float64
		for i := 0; i < n; i++ {
			yard = append(yard, yardstick())
			t0 := time.Now()
			part, err := fn(i)
			d := time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("probe %s: %w", name, err)
			}
			if part > 0 {
				d = part
			}
			tr.record(name, -1, -1, d)
			ds = append(ds, ms(d))
		}
		return median(ds) * speedOf(yard), nil
	}
	var firstErr error
	set := func(name string, v float64, err error) float64 {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		rep.setLayer(name, v)
		return v
	}

	db := f.probe.db
	opts := f.probe.opts
	q := f.probe.queries[0].WithK(10)
	topk := func(algo rankjoin.Algorithm) func(int) (time.Duration, error) {
		return func(int) (time.Duration, error) {
			_, err := db.TopK(q, algo, &opts)
			return 0, err
		}
	}
	first := func(algo rankjoin.Algorithm) func(int) (time.Duration, error) {
		return func(int) (time.Duration, error) {
			t0 := time.Now()
			rows, err := db.Stream(q, algo, &opts)
			if err != nil {
				return 0, err
			}
			defer rows.Close()
			if !rows.Next() {
				return 0, fmt.Errorf("stream gave no row: %v", rows.Err())
			}
			return time.Since(t0), nil
		}
	}

	// api: the public query surface with the planner choosing.
	v, err := p50("api.topk", probeRuns, topk(rankjoin.AlgoAuto))
	auto := set("api.topk_p50_ms", v, err)
	v, err = p50("api.stream_first", probeRuns, first(rankjoin.AlgoAuto))
	set("api.stream_first_p50_ms", v, err)
	var resumeReads []float64
	v, err = p50("api.page_resume", probeRuns, func(int) (time.Duration, error) {
		o := opts
		r, err := db.TopK(q, f.probeAlgos[0], &o)
		if err != nil {
			return 0, err
		}
		o.PageToken = r.NextPageToken
		t0 := time.Now()
		r, err = db.TopK(q, f.probeAlgos[0], &o)
		if err != nil {
			return 0, err
		}
		resumeReads = append(resumeReads, float64(r.Cost.KVReads))
		return time.Since(t0), nil
	})
	set("api.page_resume_p50_ms", v, err)
	set("api.page_resume_read_units", median(resumeReads), nil)

	// plan: Explain with a cold and a warm plan cache (the cache is
	// keyed by query and k, so an unseen k is a cold entry), the
	// planner's share of an auto query, and its estimation error.
	v, err = p50("plan.explain_cold", probeRuns, func(i int) (time.Duration, error) {
		_, err := db.Explain(q.WithK(1000+i), &rankjoin.ExplainOptions{Query: opts})
		return 0, err
	})
	set("plan.explain_cold_p50_ms", v, err)
	v, err = p50("plan.explain_warm", probeRuns, func(i int) (time.Duration, error) {
		_, err := db.Explain(q.WithK(1000+i), &rankjoin.ExplainOptions{Query: opts})
		return 0, err
	})
	set("plan.explain_warm_p50_ms", v, err)
	if res, err := db.TopK(q, rankjoin.AlgoAuto, &opts); err != nil {
		set("plan.auto_self_p50_ms", 0, err)
	} else {
		v, err = p50("core."+res.Algorithm, probeRuns, topk(rankjoin.Algorithm(res.Algorithm)))
		set("plan.auto_self_p50_ms", auto-v, err)
	}
	var relErr []float64
	for _, pq := range f.probe.queries {
		for _, k := range []int{1, 10, 100} {
			res, err := db.TopK(pq.WithK(k), rankjoin.AlgoAuto, &opts)
			if err != nil {
				set("plan.est_rel_err_p50", 0, err)
			} else if res.Estimate != nil {
				relErr = append(relErr, rankjoin.RelativeError(res.Estimate.SimTime.Seconds(), res.Cost.SimTime.Seconds()))
			}
		}
	}
	set("plan.est_rel_err_p50", median(relErr), nil)

	// core: each executor by name, the lowest public entry point.
	for _, algo := range f.probeAlgos {
		n := 9
		if algo == rankjoin.AlgoDRJN {
			n = 3 // one DRJN query costs hundreds of ISL queries
		}
		var reads, perResult float64
		v, err = p50("core."+string(algo), n, func(int) (time.Duration, error) {
			res, err := db.TopK(q, algo, &opts)
			if err == nil && len(res.Results) > 0 {
				reads = float64(res.Cost.KVReads)
				perResult = reads / float64(len(res.Results))
			}
			return 0, err
		})
		prefix := "core." + string(algo)
		set(prefix+".topk_p50_ms", v, err)
		set(prefix+".read_units", reads, nil)
		set(prefix+".reads_per_result", perResult, nil)
		if algo == rankjoin.AlgoAnyK {
			v, err = p50("core.anyk.first", probeRuns, first(algo))
			set("core.anyk.first_p50_ms", v, err)
		}
	}
	if f.maintainRel != "" {
		rel := db.Relation(f.maintainRel)
		join := w.base()[f.maintainRel][0].JoinValue
		before := db.Metrics().Snapshot()
		v, err = p50("core.maintain.insert", probeRuns, func(i int) (time.Duration, error) {
			return 0, rel.Insert(w.spec.newKey(f.maintainRel, 2_000_000+i%8), join, float64(i%10)/10)
		})
		set("core.maintain.insert_p50_ms", v, err)
		d := db.Metrics().Snapshot().Sub(before)
		set("core.maintain.kv_writes_per_insert", float64(d.KVWrites)/probeRuns, nil)
		set("core.maintain.rpcs_per_insert", float64(d.RPCCalls)/probeRuns, nil)
		v, err = p50("core.maintain.batch50", 5, func(i int) (time.Duration, error) {
			batch := make([]rankjoin.Tuple, 50)
			for j := range batch {
				batch[j] = rankjoin.Tuple{RowKey: w.spec.newKey(f.maintainRel, 3_000_000+i*50+j), JoinValue: join, Score: 0.5}
			}
			return 0, rel.BatchInsert(batch)
		})
		set("core.maintain.batch50_p50_ms", v, err)
	}

	// kvstore: the store's client calls on a loaded table. The cold
	// get runs last because it switches the row cache off.
	cl := db.Cluster()
	us := func(v float64, err error) (float64, error) { return v * 1e3, err }
	v, err = us(p50("kvstore.get_warm", 200, func(int) (time.Duration, error) {
		_, err := cl.Get(f.kvTable, f.kvKeys[0])
		return 0, err
	}))
	set("kvstore.get_warm_p50_us", v, err)
	v, err = us(p50("kvstore.multiget100", 21, func(int) (time.Duration, error) {
		_, err := cl.ParallelMultiGet(f.kvTable, f.kvKeys[:100], parallelism)
		return 0, err
	}))
	set("kvstore.multiget100_p50_us", v, err)
	var scanRows int
	v, err = p50("kvstore.scan", 3, func(int) (time.Duration, error) {
		sc, err := cl.OpenScanner(kvstore.Scan{Table: f.kvTable, Caching: 1000})
		if err != nil {
			return 0, err
		}
		scanRows = 0
		for {
			row, err := sc.Next()
			if err != nil {
				return 0, err
			}
			if row == nil {
				return 0, nil
			}
			scanRows++
		}
	})
	if v > 0 {
		v = float64(scanRows) / (v / 1e3)
	}
	set("kvstore.scan_rows_per_s", v, err)
	putCl := cl
	if scratch != nil {
		putCl = scratch.db.Cluster()
	}
	if _, err := putCl.CreateTable("bench_probe", []string{"d"}, nil); err != nil {
		set("kvstore.put_p50_us", 0, err)
	} else {
		v, err = us(p50("kvstore.put", 200, func(i int) (time.Duration, error) {
			return 0, putCl.Put("bench_probe", kvstore.Cell{Row: fmt.Sprintf("r%04d", i), Family: "d", Qualifier: "v", Value: []byte("0123456789abcdef")})
		}))
		set("kvstore.put_p50_us", v, err)
	}
	cl.SetRowCacheBytes(0)
	v, err = us(p50("kvstore.get_cold", 200, func(i int) (time.Duration, error) {
		_, err := cl.Get(f.kvTable, f.kvKeys[i%len(f.kvKeys)])
		return 0, err
	}))
	cl.SetRowCacheBytes(kvstore.DefaultRowCacheBytes)
	set("kvstore.get_cold_p50_us", v, err)

	if f.serve != nil {
		f.serve.probeHops(p50, set, scratch)
	}
	return firstErr
}

// probeHops measures the hops only the cluster workload has: HTTP, the
// bench's own Distributed handle, the TCP transport and the node
// service, each with the same Q1/isl/k=10 query.
func (s *serveFixture) probeHops(
	p50 func(string, int, func(int) (time.Duration, error)) (float64, error),
	set func(string, float64, error) float64,
	scratch *scratchNode,
) {
	o := op{Kind: opTopK, Query: 0, Algo: string(rankjoin.AlgoISL), K: 10}
	opts := rankjoin.QueryOptions{Parallelism: parallelism, ISLBatch: s.islBatch}
	req := wireQuery(&o, s.islBatch)

	v, err := p50("http.topk", probeRuns, func(int) (time.Duration, error) { return 0, s.http.run(&o).err })
	httpTopK := set("http.topk_p50_ms", v, err)
	so := o
	so.Kind = opStream
	v, err = p50("http.stream_first", probeRuns, func(int) (time.Duration, error) {
		res := s.http.run(&so)
		return res.first, res.err
	})
	set("http.stream_first_p50_ms", v, err)
	v, err = p50("http.insert", probeRuns, func(i int) (time.Duration, error) {
		w := op{Kind: opInsert, Rel: "part", Key: tpchNewKey("part", 2_000_000+i%8), Join: "1", Score: float64(i%10) / 10}
		return 0, s.http.run(&w).err
	})
	httpInsert := set("http.insert_p50_ms", v, err)

	v, err = p50("api.dist", probeRuns, func(int) (time.Duration, error) {
		_, err := scratch.dist.TopK(scratch.queries[0].WithK(10), rankjoin.AlgoISL, &opts)
		return 0, err
	})
	dist := v
	httpSelf := set("http.self_p50_ms", httpTopK-dist, err)
	v, err = p50("transport.topk", probeRuns, func(int) (time.Duration, error) {
		_, err := scratch.node0.TopK(req)
		return 0, err
	})
	rtt := set("transport.topk_rtt_p50_ms", v, err)
	set("api.dist_self_p50_ms", dist-rtt, nil)
	v, err = p50("api.node", probeRuns, func(int) (time.Duration, error) {
		_, err := s.svcs[0].TopK(req)
		return 0, err
	})
	set("transport.self_p50_ms", rtt-v, err)
	v, err = p50("transport.apply", probeRuns, func(i int) (time.Duration, error) {
		return 0, scratch.client.Apply(transport.WriteOp{
			Relation: "part", Kind: transport.OpInsert, TS: int64(i + 1),
			New: &transport.TupleData{RowKey: tpchNewKey("part", i), JoinValue: "1", Score: 0.5},
		})
	})
	apply := set("transport.apply_rtt_p50_ms", v, err)
	set("topology.write_fanout_self_p50_ms", httpInsert-httpSelf-apply, nil)

	// One anti-entropy pass over the converged cluster: Merkle build
	// and diff on every table, no cells shipped.
	v, err = p50("topology.repair", 1, func(int) (time.Duration, error) {
		return 0, s.http.call("POST", "/repair", nil, nil)
	})
	set("topology.repair_clean_ms", v, err)
	var health struct {
		Nodes []struct {
			Alive bool `json:"alive"`
			Dirty bool `json:"dirty"`
		} `json:"nodes"`
	}
	err = s.http.call("GET", "/healthz", nil, &health)
	down := 0
	for _, n := range health.Nodes {
		if !n.Alive || n.Dirty {
			down++
		}
	}
	set("topology.failovers", float64(down), err)
}
