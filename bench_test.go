// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 7.2). Figures 7 and 8 plot the same runs under
// three metrics — query time (a/d), network bandwidth (b/e), and dollar
// cost (c/f) — for Q1 and Q2 across k; the harness therefore measures
// each (cluster, query) series once and reports the per-figure metric
// from the shared measurements, exactly as the paper derives its plots.
//
// Absolute values are simulated-hardware costs, not wall-clock numbers;
// the claims under reproduction are the relative shapes (see
// EXPERIMENTS.md). Run with:
//
//	go test -bench=. -benchmem
//
// For paper-style printed tables use: go run ./cmd/rjbench -fig all
package rankjoin_test

import (
	"sync"
	"testing"

	rankjoin "repro"
	"repro/internal/benchkit"
	"repro/internal/sim"
)

// Bench scale factors: large enough that data costs dominate MR job
// startup (the regime the paper evaluates in), small enough for a
// laptop-scale bench run.
const (
	benchSFEC2 = 0.02
	benchSFLC  = 0.04
)

var (
	envMu    sync.Mutex
	envCache = map[string]*benchkit.Env{}
	serCache = map[string][]benchkit.Cell{}
)

func env(b *testing.B, profile sim.Profile, sf float64) *benchkit.Env {
	b.Helper()
	envMu.Lock()
	defer envMu.Unlock()
	key := profile.Name + itoa(int(sf*100000))
	if e, ok := envCache[key]; ok {
		return e
	}
	e, err := benchkit.Setup(profile, sf, 1)
	if err != nil {
		b.Fatal(err)
	}
	envCache[key] = e
	return e
}

// series computes (once) the shared measurement set behind one figure
// column: all algorithms, all k values, one query.
func series(b *testing.B, e *benchkit.Env, q rankjoin.Query, name string, algos []rankjoin.Algorithm) []benchkit.Cell {
	b.Helper()
	envMu.Lock()
	defer envMu.Unlock()
	if s, ok := serCache[name]; ok {
		return s
	}
	s, err := e.Series(q, algos, benchkit.KValues)
	if err != nil {
		b.Fatal(err)
	}
	serCache[name] = s
	return s
}

// report emits one figure's metric for every (algorithm, k) cell.
func report(b *testing.B, cells []benchkit.Cell, m benchkit.Metric, unit string) {
	for _, c := range cells {
		b.ReportMetric(m.Get(c.Cost), string(c.Algo)+"_k"+itoa(c.K)+"_"+unit)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---- Figure 7: Q1 and Q2 on the EC2 cluster ----

func BenchmarkFig7a_Q1TimeEC2(b *testing.B) {
	e := env(b, sim.EC2(), benchSFEC2)
	for i := 0; i < b.N; i++ {
		cells := series(b, e, e.Q1, "ec2-q1", benchkit.Algorithms)
		report(b, cells, benchkit.MetricTime, "s")
	}
}

func BenchmarkFig7b_Q1BandwidthEC2(b *testing.B) {
	e := env(b, sim.EC2(), benchSFEC2)
	for i := 0; i < b.N; i++ {
		cells := series(b, e, e.Q1, "ec2-q1", benchkit.Algorithms)
		report(b, cells, benchkit.MetricBandwidth, "B")
	}
}

func BenchmarkFig7c_Q1DollarEC2(b *testing.B) {
	e := env(b, sim.EC2(), benchSFEC2)
	for i := 0; i < b.N; i++ {
		cells := series(b, e, e.Q1, "ec2-q1", benchkit.Algorithms)
		report(b, cells, benchkit.MetricDollar, "reads")
	}
}

func BenchmarkFig7d_Q2TimeEC2(b *testing.B) {
	e := env(b, sim.EC2(), benchSFEC2)
	for i := 0; i < b.N; i++ {
		cells := series(b, e, e.Q2, "ec2-q2", benchkit.Algorithms)
		report(b, cells, benchkit.MetricTime, "s")
	}
}

func BenchmarkFig7e_Q2BandwidthEC2(b *testing.B) {
	e := env(b, sim.EC2(), benchSFEC2)
	for i := 0; i < b.N; i++ {
		cells := series(b, e, e.Q2, "ec2-q2", benchkit.Algorithms)
		report(b, cells, benchkit.MetricBandwidth, "B")
	}
}

func BenchmarkFig7f_Q2DollarEC2(b *testing.B) {
	e := env(b, sim.EC2(), benchSFEC2)
	for i := 0; i < b.N; i++ {
		cells := series(b, e, e.Q2, "ec2-q2", benchkit.Algorithms)
		report(b, cells, benchkit.MetricDollar, "reads")
	}
}

// ---- Figure 8: Q1 and Q2 on the lab cluster (larger scale; the paper
// plots ISL/BFHM/DRJN here, omitting the MR trio "for presentation
// clarity" since they trail by orders of magnitude) ----

func BenchmarkFig8a_Q1TimeLC(b *testing.B) {
	e := env(b, sim.LC(), benchSFLC)
	for i := 0; i < b.N; i++ {
		cells := series(b, e, e.Q1, "lc-q1", benchkit.LCAlgorithms)
		report(b, cells, benchkit.MetricTime, "s")
	}
}

func BenchmarkFig8b_Q1BandwidthLC(b *testing.B) {
	e := env(b, sim.LC(), benchSFLC)
	for i := 0; i < b.N; i++ {
		cells := series(b, e, e.Q1, "lc-q1", benchkit.LCAlgorithms)
		report(b, cells, benchkit.MetricBandwidth, "B")
	}
}

func BenchmarkFig8c_Q1DollarLC(b *testing.B) {
	e := env(b, sim.LC(), benchSFLC)
	for i := 0; i < b.N; i++ {
		cells := series(b, e, e.Q1, "lc-q1", benchkit.LCAlgorithms)
		report(b, cells, benchkit.MetricDollar, "reads")
	}
}

func BenchmarkFig8d_Q2TimeLC(b *testing.B) {
	e := env(b, sim.LC(), benchSFLC)
	for i := 0; i < b.N; i++ {
		cells := series(b, e, e.Q2, "lc-q2", benchkit.LCAlgorithms)
		report(b, cells, benchkit.MetricTime, "s")
	}
}

func BenchmarkFig8e_Q2BandwidthLC(b *testing.B) {
	e := env(b, sim.LC(), benchSFLC)
	for i := 0; i < b.N; i++ {
		cells := series(b, e, e.Q2, "lc-q2", benchkit.LCAlgorithms)
		report(b, cells, benchkit.MetricBandwidth, "B")
	}
}

func BenchmarkFig8f_Q2DollarLC(b *testing.B) {
	e := env(b, sim.LC(), benchSFLC)
	for i := 0; i < b.N; i++ {
		cells := series(b, e, e.Q2, "lc-q2", benchkit.LCAlgorithms)
		report(b, cells, benchkit.MetricDollar, "reads")
	}
}

// ---- Figure 9: indexing time (both profiles) ----

func BenchmarkFig9_IndexingTime(b *testing.B) {
	ec2 := env(b, sim.EC2(), benchSFEC2)
	lc := env(b, sim.LC(), benchSFLC)
	for i := 0; i < b.N; i++ {
		for _, e := range []*benchkit.Env{ec2, lc} {
			for algo, cost := range e.BuildCost {
				b.ReportMetric(cost.SimTime.Seconds(), e.Profile.Name+"_"+string(algo)+"_s")
			}
		}
	}
}

// ---- Section 7.2 index size list ----

func BenchmarkIndexSizes(b *testing.B) {
	e := env(b, sim.EC2(), benchSFEC2)
	for i := 0; i < b.N; i++ {
		for _, algo := range []rankjoin.Algorithm{rankjoin.AlgoIJLMR, rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN} {
			b.ReportMetric(float64(e.DB.IndexDiskSize(e.Q1, algo)), string(algo)+"_q1_B")
			b.ReportMetric(float64(e.DB.IndexDiskSize(e.Q2, algo)), string(algo)+"_q2_B")
		}
	}
}

// ---- Section 7.2 online updates: query-time replay overhead < 10% ----

func BenchmarkUpdates_BFHMReplayOverhead(b *testing.B) {
	e := env(b, sim.EC2(), benchSFEC2)
	for i := 0; i < b.N; i++ {
		overhead, applied, err := e.UpdateExperiment(i + 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(overhead, "overhead_pct")
		b.ReportMetric(float64(applied), "mutations")
	}
}

// ---- Ablations (design choices DESIGN.md calls out) ----

// BenchmarkAblation_ScaleTrendISLvsBFHM shows the mechanism behind the
// paper's EC2 ISL/BFHM crossover: ISL's query time grows with the data
// size (its scan batches are a fixed FRACTION of the score lists), while
// BFHM's scales with k only. At the paper's SF 10+ the lines cross; at
// laptop scale ISL still wins, but the slopes are plainly visible.
func BenchmarkAblation_ScaleTrendISLvsBFHM(b *testing.B) {
	sfs := []float64{0.005, 0.01, 0.02, 0.04}
	for i := 0; i < b.N; i++ {
		for _, sf := range sfs {
			e := env(b, sim.EC2(), sf)
			isl, err := e.Run(e.Q2, rankjoin.AlgoISL, 100)
			if err != nil {
				b.Fatal(err)
			}
			bfhm, err := e.Run(e.Q2, rankjoin.AlgoBFHM, 100)
			if err != nil {
				b.Fatal(err)
			}
			tag := "sf" + itoa(int(sf*1000))
			b.ReportMetric(isl.Cost.SimTime.Seconds()*1000, "isl_"+tag+"_ms")
			b.ReportMetric(bfhm.Cost.SimTime.Seconds()*1000, "bfhm_"+tag+"_ms")
		}
	}
}

// BenchmarkAblation_ISLBatching sweeps the Section 4.2.3 batching knob:
// bigger scanner caches cut RPCs/time but fetch more tuples.
func BenchmarkAblation_ISLBatching(b *testing.B) {
	e := env(b, sim.EC2(), benchSFEC2)
	for i := 0; i < b.N; i++ {
		for _, batch := range []int{1, 10, e.ISLBatch, e.ISLBatch * 10} {
			res, err := e.DB.TopK(e.Q2.WithK(100), rankjoin.AlgoISL,
				&rankjoin.QueryOptions{ISLBatch: batch})
			if err != nil {
				b.Fatal(err)
			}
			tag := "batch" + itoa(batch)
			b.ReportMetric(res.Cost.SimTime.Seconds()*1000, tag+"_ms")
			b.ReportMetric(float64(res.Cost.KVReads), tag+"_reads")
		}
	}
}

// ---- Concurrent serving: the parallel client read path ----

// BenchmarkParallelReadPath compares simulated turnaround of the
// sequential client read path against the fanned-out one (Parallelism 4)
// for the two coordinator-driven algorithms: BFHM's reverse-mapping
// multi-gets issue per-region RPCs concurrently, and ISL's left/right
// streams prefetch so their round trips overlap.
func BenchmarkParallelReadPath(b *testing.B) {
	e := env(b, sim.EC2(), benchSFEC2)
	for i := 0; i < b.N; i++ {
		for _, algo := range []rankjoin.Algorithm{rankjoin.AlgoBFHM, rankjoin.AlgoISL} {
			seq, err := e.DB.TopK(e.Q2.WithK(100), algo, &rankjoin.QueryOptions{ISLBatch: e.ISLBatch})
			if err != nil {
				b.Fatal(err)
			}
			par, err := e.DB.TopK(e.Q2.WithK(100), algo, &rankjoin.QueryOptions{
				ISLBatch:    e.ISLBatch,
				Parallelism: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(seq.Cost.SimTime.Seconds()*1000, string(algo)+"_seq_ms")
			b.ReportMetric(par.Cost.SimTime.Seconds()*1000, string(algo)+"_par4_ms")
		}
	}
}

// BenchmarkConcurrentTopKThroughput measures real wall-clock throughput
// of one shared DB serving BFHM top-k queries from all available cores —
// the rjserve workload. Per-query metric isolation keeps the reported
// costs exact under this concurrency.
func BenchmarkConcurrentTopKThroughput(b *testing.B) {
	e := env(b, sim.EC2(), benchSFEC2)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.DB.TopK(e.Q2.WithK(100), rankjoin.AlgoBFHM,
				&rankjoin.QueryOptions{Parallelism: 4}); err != nil {
				// b.Fatal must not run on a RunParallel worker goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkAblation_BFHMBuckets sweeps the histogram resolution (the
// paper evaluates 100 vs 1000 buckets on EC2): more buckets mean tighter
// score bounds (fewer tuples fetched) but more bucket-row fetches.
func BenchmarkAblation_BFHMBuckets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, buckets := range []int{20, 100, 1000} {
			db := mustOpenDB(b)
			lh, err := db.DefineRelation("l")
			if err != nil {
				b.Fatal(err)
			}
			rh, err := db.DefineRelation("r")
			if err != nil {
				b.Fatal(err)
			}
			var lt, rt []rankjoin.Tuple
			for j := 0; j < 4000; j++ {
				lt = append(lt, rankjoin.Tuple{
					RowKey: "l" + itoa(j), JoinValue: "j" + itoa(j%500),
					Score: float64(j%997) / 997,
				})
				rt = append(rt, rankjoin.Tuple{
					RowKey: "r" + itoa(j), JoinValue: "j" + itoa((j*7)%500),
					Score: float64(j%991) / 991,
				})
			}
			if err := lh.BulkLoad(lt); err != nil {
				b.Fatal(err)
			}
			if err := rh.BulkLoad(rt); err != nil {
				b.Fatal(err)
			}
			db.SetIndexConfig(rankjoin.IndexConfig{BFHMBuckets: buckets})
			q, err := db.NewQuery("l", "r", rankjoin.Sum, 100)
			if err != nil {
				b.Fatal(err)
			}
			if err := db.EnsureIndexes(q, rankjoin.AlgoBFHM); err != nil {
				b.Fatal(err)
			}
			res, err := db.TopK(q, rankjoin.AlgoBFHM, nil)
			if err != nil {
				b.Fatal(err)
			}
			tag := "b" + itoa(buckets)
			b.ReportMetric(res.Cost.SimTime.Seconds()*1000, tag+"_ms")
			b.ReportMetric(float64(res.Cost.KVReads), tag+"_reads")
		}
	}
}
