package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/sim"
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// tables (bench_test.go checks that they agree) and, for the end-to-end
// metrics, the bounds.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEndDefs are the metrics a user of the system would see; every
// workload reports all of them.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ops_per_s", unit: "1/s", higher: true},
	{name: "read_p50_ms", unit: "ms"},
	{name: "first_result_p50_ms", unit: "ms"},
	{name: "write_p50_ms", unit: "ms"},
	{name: "cpu_ms_per_op", unit: "ms"},
	{name: "read_units_per_query", unit: "count"},
	{name: "sim_ms_per_query", unit: "ms"},
	{name: "net_kb_per_query", unit: "kB"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayerDefs are the single-layer metrics of the traced run, layer
// prefix = module. A metric reads 0 on a workload that bypasses its
// layer.
var perLayerDefs = []metricDef{
	{name: "client.read_p95_ms", unit: "ms"},
	{name: "client.read_p99_ms", unit: "ms"},
	{name: "client.write_p95_ms", unit: "ms"},
	{name: "client.read_samples", unit: "count", higher: true},
	{name: "client.write_samples", unit: "count", higher: true},
	{name: "client.round_spread", unit: "ratio"},
	{name: "proc.alloc_kb_per_op", unit: "kB"},
	{name: "proc.allocs_per_op", unit: "count"},
	{name: "proc.gc_cycles", unit: "count"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "http.topk_p50_ms", unit: "ms"},
	{name: "http.stream_first_p50_ms", unit: "ms"},
	{name: "http.insert_p50_ms", unit: "ms"},
	{name: "http.self_p50_ms", unit: "ms"},
	{name: "http.resp_kb_per_query", unit: "kB"},
	{name: "http.non2xx", unit: "count"},
	{name: "api.topk_p50_ms", unit: "ms"},
	{name: "api.stream_first_p50_ms", unit: "ms"},
	{name: "api.page_resume_p50_ms", unit: "ms"},
	{name: "api.page_resume_read_units", unit: "count"},
	{name: "api.dist_self_p50_ms", unit: "ms"},
	{name: "plan.explain_cold_p50_ms", unit: "ms"},
	{name: "plan.explain_warm_p50_ms", unit: "ms"},
	{name: "plan.auto_self_p50_ms", unit: "ms"},
	{name: "plan.est_rel_err_p50", unit: "ratio"},
	{name: "core.isl.topk_p50_ms", unit: "ms"},
	{name: "core.isl.read_units", unit: "count"},
	{name: "core.isl.reads_per_result", unit: "count"},
	{name: "core.bfhm.topk_p50_ms", unit: "ms"},
	{name: "core.bfhm.read_units", unit: "count"},
	{name: "core.bfhm.reads_per_result", unit: "count"},
	{name: "core.drjn.topk_p50_ms", unit: "ms"},
	{name: "core.drjn.read_units", unit: "count"},
	{name: "core.drjn.reads_per_result", unit: "count"},
	{name: "core.anyk.topk_p50_ms", unit: "ms"},
	{name: "core.anyk.read_units", unit: "count"},
	{name: "core.anyk.reads_per_result", unit: "count"},
	{name: "core.anyk.first_p50_ms", unit: "ms"},
	{name: "core.maintain.insert_p50_ms", unit: "ms"},
	{name: "core.maintain.batch50_p50_ms", unit: "ms"},
	{name: "core.maintain.kv_writes_per_insert", unit: "count"},
	{name: "core.maintain.rpcs_per_insert", unit: "count"},
	{name: "kvstore.get_warm_p50_us", unit: "us"},
	{name: "kvstore.get_cold_p50_us", unit: "us"},
	{name: "kvstore.multiget100_p50_us", unit: "us"},
	{name: "kvstore.scan_rows_per_s", unit: "1/s", higher: true},
	{name: "kvstore.put_p50_us", unit: "us"},
	{name: "kvstore.rowcache_hit_ratio", unit: "ratio", higher: true},
	{name: "kvstore.blockcache_hit_ratio", unit: "ratio", higher: true},
	{name: "kvstore.compaction_bytes_per_user_byte", unit: "ratio"},
	{name: "kvstore.disk_bytes_per_live_byte", unit: "ratio"},
	{name: "kvstore.wal_bytes", unit: "B"},
	{name: "vfs.write_calls", unit: "count"},
	{name: "vfs.write_bytes", unit: "B"},
	{name: "vfs.sync_calls", unit: "count"},
	{name: "vfs.read_calls", unit: "count"},
	{name: "vfs.read_bytes", unit: "B"},
	{name: "vfs.busy_ms", unit: "ms"},
	{name: "transport.topk_rtt_p50_ms", unit: "ms"},
	{name: "transport.apply_rtt_p50_ms", unit: "ms"},
	{name: "transport.self_p50_ms", unit: "ms"},
	{name: "topology.write_fanout_self_p50_ms", unit: "ms"},
	{name: "topology.repair_clean_ms", unit: "ms"},
	{name: "topology.failovers", unit: "count"},
	{name: "sim.rpc_calls_per_query", unit: "count"},
	{name: "sim.disk_bytes_read_per_query", unit: "B"},
	{name: "sim.tuples_shipped_per_query", unit: "count"},
	{name: "sim.kv_writes_per_write", unit: "count"},
	{name: "trace.overhead_share", unit: "ratio"},
	{name: "trace.self_sum_share", unit: "ratio", higher: true},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one workload's run measured. The contract's
// result line is a projection of it; -out writes it whole.
type report struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// EndToEnd and PerLayer hold every metric of their table; PerLayer
	// is complete only after a traced run.
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer"`
	// Rounds holds the per-round values behind each best-of-rounds
	// metric, so a reader can see the spread the best was picked from.
	Rounds map[string][]float64 `json:"rounds"`
}

func newReport(w *workload, h *harness) *report {
	r := &report{
		Workload: w.name, Seed: h.seed, Seconds: h.seconds,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
		Rounds: map[string][]float64{},
	}
	for _, d := range perLayerDefs {
		r.PerLayer[d.name] = metric{Unit: d.unit}
	}
	return r
}

// count adds a replay's ops to the attempted and failed totals.
func (r *report) count(st roundStats) {
	r.Attempted += st.ops
	r.Failed += st.failed
}

func findDef(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	panic("bench: metric " + name + " is not in its table") // a typo in the bench itself
}

func (r *report) setE2E(name string, v float64) {
	r.EndToEnd[name] = metric{Value: v, Unit: findDef(endToEndDefs, name).unit}
}

func (r *report) setLayer(name string, v float64) {
	r.PerLayer[name] = metric{Value: v, Unit: findDef(perLayerDefs, name).unit}
}

// roundMedian records a wall-clock or CPU metric: its value in every
// round, already scaled to the nominal machine, and their median as
// the metric.
func (r *report) roundMedian(name string, perRound []float64) {
	r.Rounds[name] = perRound
	r.setE2E(name, median(perRound))
}

// endToEnd derives the ten end-to-end metrics from the timed rounds.
// Times are multiplied by the round's machine speed (a slow machine
// makes long times and a speed below 1), rates divided by it; counts
// are totals over all rounds and are not scaled.
//
// Latency medians use that every round replays the same list: op i has
// one scaled latency per round, and the median of those is op i's
// latency with the rounds' hiccups (a GC assist, a neighbour's burst)
// removed. The p50 metrics are medians over ops of these per-op
// latencies, which keeps them steady even where a round holds only a
// handful of ops of a kind.
func (r *report) endToEnd(ops []op, setupS []float64, timed []roundStats, peakRSS uint64) {
	r.Rounds["setup_s"] = setupS
	r.setE2E("setup_s", median(setupS))
	var rate, cpu []float64
	var reads int
	var cost sim.Snapshot
	for _, st := range timed {
		speed := st.speed()
		r.Rounds["machine_speed"] = append(r.Rounds["machine_speed"], speed)
		rate = append(rate, float64(st.ops)/st.busy.Seconds()/speed)
		cpu = append(cpu, ms(st.cpu)/float64(st.ops)*speed)
		reads += st.reads
		cost = cost.Add(st.cost)
	}
	r.roundMedian("ops_per_s", rate)
	r.roundMedian("cpu_ms_per_op", cpu)

	var readMS, firstMS, writeMS []float64
	var readClass, firstClass []string
	across := make([]float64, len(timed))
	opMedian := func(i int, sample func(*roundStats) []float64) float64 {
		for j := range timed {
			across[j] = sample(&timed[j])[i] * timed[j].speed()
		}
		return median(across)
	}
	for i := range ops {
		lat := opMedian(i, func(st *roundStats) []float64 { return st.lat })
		switch {
		case !ops[i].isRead():
			writeMS = append(writeMS, lat)
		case ops[i].Kind == opStream:
			firstMS = append(firstMS, opMedian(i, func(st *roundStats) []float64 { return st.first }))
			firstClass = append(firstClass, ops[i].class())
			fallthrough
		default:
			readMS, readClass = append(readMS, lat), append(readClass, ops[i].class())
		}
	}
	r.setE2E("read_p50_ms", p50ByClass(readMS, readClass))
	r.setE2E("first_result_p50_ms", p50ByClass(firstMS, firstClass))
	r.setE2E("write_p50_ms", percentile(writeMS, 0.5))

	r.setE2E("read_units_per_query", perOp(float64(cost.KVReads), reads))
	r.setE2E("sim_ms_per_query", perOp(ms(cost.SimTime), reads))
	r.setE2E("net_kb_per_query", perOp(float64(cost.NetworkBytes)/1e3, reads))
	r.setE2E("peak_rss_mb", float64(peakRSS)/1e6)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// timedLayers fills the per-layer metrics that are read from counters
// over the timed rounds (no tracing involved).
func (r *report) timedLayers(f *fixture, ops []op, timed []roundStats, total counters, perRound []counters, sizes gauges) {
	var readMS, writeMS []float64
	var nOps, reads, writes int
	var userBytes uint64
	var cost sim.Snapshot
	for _, st := range timed {
		speed := st.speed()
		for i, v := range st.lat {
			if ops[i].isRead() {
				readMS = append(readMS, v*speed)
			} else {
				writeMS = append(writeMS, v*speed)
			}
		}
		nOps, reads, writes = nOps+st.ops, reads+st.reads, writes+st.writes
		userBytes += st.userBytes
		cost = cost.Add(st.cost)
	}
	r.setLayer("client.read_p95_ms", percentile(readMS, 0.95))
	r.setLayer("client.read_p99_ms", percentile(readMS, 0.99))
	r.setLayer("client.write_p95_ms", percentile(writeMS, 0.95))
	r.setLayer("client.read_samples", float64(len(readMS)))
	r.setLayer("client.write_samples", float64(len(writeMS)))
	r.setLayer("client.round_spread", iqrShare(r.Rounds["ops_per_s"]))

	r.setLayer("proc.alloc_kb_per_op", perOp(float64(total.allocBytes)/1e3, nOps))
	r.setLayer("proc.allocs_per_op", perOp(float64(total.allocs), nOps))
	r.setLayer("proc.gc_cycles", float64(total.gcCycles))
	r.setLayer("proc.gc_pause_ms", ms(total.gcPause))

	r.setLayer("kvstore.rowcache_hit_ratio", ratio(total.rowHits, total.rowHits+total.rowMisses))
	r.setLayer("kvstore.blockcache_hit_ratio", ratio(total.blkHits, total.blkHits+total.blkMisses))
	r.setLayer("kvstore.compaction_bytes_per_user_byte", ratio(total.compaction, userBytes))
	r.setLayer("kvstore.disk_bytes_per_live_byte", ratio(sizes.diskBytes, sizes.logicalBytes))
	r.setLayer("kvstore.wal_bytes", float64(sizes.walBytes))

	r.setLayer("vfs.write_calls", float64(total.fs.WriteCalls))
	r.setLayer("vfs.write_bytes", float64(total.fs.WriteBytes))
	r.setLayer("vfs.sync_calls", float64(total.fs.SyncCalls))
	r.setLayer("vfs.read_calls", float64(total.fs.ReadCalls))
	r.setLayer("vfs.read_bytes", float64(total.fs.ReadBytes))

	r.setLayer("sim.rpc_calls_per_query", perOp(float64(cost.RPCCalls), reads))
	// Over HTTP a response's cost object carries no disk or shipping
	// counts, so those come from the node stores' own collectors (which
	// also see the reads writes make).
	disk, shipped := cost.DiskBytesRead, cost.TuplesShipped
	if f.serve != nil {
		disk, shipped = total.sim.DiskBytesRead, total.sim.TuplesShipped
	}
	r.setLayer("sim.disk_bytes_read_per_query", perOp(float64(disk), reads))
	r.setLayer("sim.tuples_shipped_per_query", perOp(float64(shipped), reads))
	r.setLayer("sim.kv_writes_per_write", perOp(float64(total.sim.KVWrites), writes))

	r.setLayer("http.resp_kb_per_query", perOp(float64(total.respBytes)/1e3, reads))
	r.setLayer("http.non2xx", float64(total.non2xx))

	// Background work per round, for the "several cycles completed"
	// requirement on the disk workload.
	for _, d := range perRound {
		r.Rounds["vfs.sync_calls"] = append(r.Rounds["vfs.sync_calls"], float64(d.fs.SyncCalls))
		r.Rounds["kvstore.compaction_bytes"] = append(r.Rounds["kvstore.compaction_bytes"], float64(d.compaction))
	}
}

// print writes every metric by name with its unit.
func (r *report) print(h *harness, traced bool) {
	h.logf("  %-38s %14s %-6s %s", "end-to-end metric", "value", "unit", "per-round values")
	for _, d := range endToEndDefs {
		var per []string
		for _, v := range r.Rounds[d.name] {
			per = append(per, fmt.Sprintf("%.4g", v))
		}
		h.logf("  %-38s %14.6g %-6s %s", d.name, r.EndToEnd[d.name].Value, d.unit, strings.Join(per, " "))
	}
	if traced {
		h.logf("  %-38s %14s %-6s", "per-layer metric", "value", "unit")
		for _, d := range perLayerDefs {
			h.logf("  %-38s %14.6g %-6s", d.name, r.PerLayer[d.name].Value, d.unit)
		}
	}
	h.logf("  ops attempted %d, failed %d", r.Attempted, r.Failed)
}

// resultLine is the contract's last line of output.
func (r *report) resultLine(traced bool) string {
	metrics := r.EndToEnd
	if traced {
		metrics = r.PerLayer
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // a NaN or Inf metric: a bug in the bench
	}
	return string(b)
}

// reportFile is what -out writes and -agree reads.
type reportFile struct {
	Workloads map[string]*report `json:"workloads"`
}

func writeReports(path string, reps []*report) error {
	f := reportFile{Workloads: map[string]*report{}}
	for _, r := range reps {
		f.Workloads[r.Workload] = r
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReports(path string) (*reportFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f reportFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
