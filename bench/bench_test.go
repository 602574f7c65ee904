package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"

	rankjoin "repro"
)

// Test sizes: small enough that the whole file runs in a few seconds.
const (
	testSF        = 0.002
	testChainRows = 400
	testOps       = 60
)

// smallWorkloads are tpch_topk_mem and chain_stream_mem with their mixes
// unchanged and their data scaled down.
func smallWorkloads(t *testing.T) []*workload {
	t.Helper()
	tpch := *workloadByName("tpch_topk_mem")
	tpch.base = func() map[string][]rankjoin.Tuple { return tpchTuples(testSF) }
	tpch.build = func(*harness) (*fixture, error) { return newTPCHMem(testSF) }
	chain := *workloadByName("chain_stream_mem")
	chain.base = func() map[string][]rankjoin.Tuple { return chainTuples(testChainRows) }
	chain.build = func(*harness) (*fixture, error) { return newChain(testChainRows) }
	return []*workload{&tpch, &chain}
}

// targetFunc adapts a function to the target interface, for targets
// that tamper with an honest one's results.
type targetFunc func(o *op) opResult

func (fn targetFunc) run(o *op) opResult { return fn(o) }

func quietHarness() *harness {
	return &harness{seed: 1, seconds: 1, log: io.Discard, hooks: map[int]func(){}}
}

func TestOpListsComeFromTheSeedAlone(t *testing.T) {
	for _, w := range smallWorkloads(t) {
		gen := func(seed int64) []byte {
			return encodeOps(genOps(rand.New(rand.NewSource(seed)), testOps, w.spec, w.base()))
		}
		if !bytes.Equal(gen(7), gen(7)) {
			t.Errorf("%s: the same seed gave two different op lists", w.name)
		}
		if bytes.Equal(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.name)
		}
	}
}

// TestSeedKeepsTheAmountOfWork checks the rule that makes runs with
// different seeds comparable: the multiset of (kind, query, algo, k,
// relation) is the same for every seed.
func TestSeedKeepsTheAmountOfWork(t *testing.T) {
	for _, w := range workloads {
		base := w.base()
		count := func(seed int64) map[string]int {
			m := map[string]int{}
			for _, o := range genOps(rand.New(rand.NewSource(seed)), 97, w.spec, base) {
				m[fmt.Sprint(o.Kind, o.Query, o.Algo, o.K, o.Pages, o.Rel)]++
			}
			return m
		}
		a, b := count(1), count(2)
		if len(a) != len(b) {
			t.Fatalf("%s: %d kinds of op with seed 1, %d with seed 2", w.name, len(a), len(b))
		}
		for k, n := range a {
			if b[k] != n {
				t.Errorf("%s: %s occurs %d times with seed 1, %d with seed 2", w.name, k, n, b[k])
			}
		}
	}
}

// TestSimulatedCostsRepeatExactly runs each scaled-down workload twice
// in process, set-up included, and wants the three simulated costs
// equal to the last bit: the property that lets a later change be
// judged on a count.
func TestSimulatedCostsRepeatExactly(t *testing.T) {
	h := quietHarness()
	for _, w := range smallWorkloads(t) {
		ops := genOps(rand.New(rand.NewSource(7)), testOps, w.spec, w.base())
		run := func() (roundStats, roundStats) {
			f, err := w.build(h)
			if err != nil {
				t.Fatal(err)
			}
			defer f.close()
			warm := h.replay(f, ops, nil, nil)
			return warm, h.replay(f, ops, nil, nil)
		}
		warm1, timed1 := run()
		warm2, timed2 := run()
		if warm1.failed+timed1.failed+warm2.failed+timed2.failed != 0 {
			t.Fatalf("%s: ops failed", w.name)
		}
		if timed1.cost != timed2.cost || warm1.cost != warm2.cost {
			t.Errorf("%s: simulated cost differs between two runs of one seed:\n  %v\n  %v", w.name, timed1.cost, timed2.cost)
		}
		if timed1.cost.KVReads == 0 || timed1.cost.SimTime == 0 || timed1.cost.NetworkBytes == 0 {
			t.Errorf("%s: a simulated cost is zero: %v", w.name, timed1.cost)
		}
	}
}

// TestCheckRoundPassesAndBites replays a scaled-down workload against
// the oracle: untouched results pass, and the same results with two
// rows swapped are a failed op.
func TestCheckRoundPassesAndBites(t *testing.T) {
	h := quietHarness()
	w := smallWorkloads(t)[0]
	ops := genOps(rand.New(rand.NewSource(3)), testOps, w.spec, w.base())
	f, err := w.build(h)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	h.replay(f, ops, nil, nil)
	st, err := h.checkRound(f, ops)
	if err != nil || st.failed != 0 || st.reads == 0 {
		t.Fatalf("clean check round: %d of %d reads failed, err %v", st.failed, st.reads, err)
	}

	honest := f.tgt
	swapped := 0
	f.tgt = targetFunc(func(o *op) opResult {
		res := honest.run(o)
		if n := len(res.rows); n >= 2 && res.rows[0].Score != res.rows[n-1].Score {
			res.rows[0], res.rows[n-1] = res.rows[n-1], res.rows[0]
			swapped++
		}
		return res
	})
	st = h.replay(f, ops, nil, nil)
	if swapped == 0 || st.failed != swapped {
		t.Errorf("order check: %d reads had two rows swapped, %d ops failed", swapped, st.failed)
	}

	// A stale row: right order, wrong score. Only the oracle sees it.
	f.tgt = targetFunc(func(o *op) opResult {
		res := honest.run(o)
		if len(res.rows) > 0 {
			res.rows[0].Score += 0.5
		}
		return res
	})
	st = h.replay(f, ops, newChecker(honest.(*dbTarget), false, f.relsOf, ops), nil)
	if st.failed != st.reads {
		t.Errorf("oracle check: %d of %d reads with a wrong top score failed", st.failed, st.reads)
	}
}

func TestVerifyAndCompareOracle(t *testing.T) {
	rows := []row{{Score: 0.9}, {Score: 0.8}, {Score: 0.7}}
	read := op{Kind: opTopK, Algo: "isl", K: 3}
	if err := verify(&read, &opResult{rows: rows}); err != nil {
		t.Errorf("ordered rows rejected: %v", err)
	}
	if err := verify(&read, &opResult{rows: []row{rows[1], rows[0], rows[2]}}); err == nil {
		t.Error("two rows swapped: verify saw nothing")
	}
	if err := verify(&read, &opResult{rows: rows[:2]}); err == nil {
		t.Error("short read: verify saw nothing")
	}
	if err := compareOracle(rows, []float64{0.9, 0.8, 0.7, 0.6}); err != nil {
		t.Errorf("matching scores rejected: %v", err)
	}
	if err := compareOracle(rows, []float64{0.9, 0.85, 0.7}); err == nil {
		t.Error("wrong second score: compareOracle saw nothing")
	}
	if err := compareOracle(rows, []float64{0.9, 0.8}); err == nil {
		t.Error("more rows than the oracle has: compareOracle saw nothing")
	}
}

func TestAggregators(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if got := speedOf(nil); got != 1 {
		t.Errorf("speedOf(no samples) = %v, want 1", got)
	}
	slow := []float64{2 * float64(yardNominal), 2 * float64(yardNominal), 40 * float64(yardNominal)}
	if got := speedOf(slow); got != 0.5 {
		t.Errorf("speedOf(twice nominal, one outlier) = %v, want 0.5", got)
	}
	if got := p50ByClass([]float64{1, 1, 1, 9, 9, 9}, []string{"a", "a", "a", "b", "b", "b"}); got != 5 {
		t.Errorf("p50ByClass of a fast and a slow class = %v, want 5", got)
	}
	for _, c := range []struct {
		total float64
		ops   int
		want  float64
	}{{100, 8, 12.5}, {0, 8, 0}, {7, 0, 0}} {
		if got := perOp(c.total, c.ops); got != c.want {
			t.Errorf("perOp(%v, %d) = %v, want %v", c.total, c.ops, got, c.want)
		}
	}
	for _, c := range []struct {
		in   []float64
		p    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2, 5}, 0.5, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95, 10},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
		{nil, 0.5, 0},
	} {
		if got := percentile(c.in, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.in, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) is
	// [2.75, 5.5, 8.25]; for [10,12,11,15,9,30,10,11] it is
	// [10.0, 11.0, 14.25].
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	if got := iqrShare([]float64{10, 12, 11, 15, 9, 30, 10, 11}); !near(got, 4.25/11) {
		t.Errorf("iqrShare = %v, want %v", got, 4.25/11)
	}
}

// TestBenchmarkJSONMatchesTheTables keeps the contract file and the
// program's own metric and workload tables from drifting apart.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory:", err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.name, w.why)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program {%s %s %s}", kind, i, g, d.name, d.unit, better)
			}
		}
	}
	compare("end-to-end", bm.EndToEnd, endToEndDefs)
	compare("per-layer", bm.PerLayer, perLayerDefs)
}
