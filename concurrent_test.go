// Concurrency tests: one shared DB serving top-k queries from many
// goroutines (run with -race). Per-query metric isolation means every
// execution must report exactly the same deterministic cost it reports
// when run alone, no matter what runs next to it — at row-cache steady
// state, since the first keyed read of a row pays the disk seek that
// later cache hits legitimately avoid.
package rankjoin_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	rankjoin "repro"
	"repro/internal/sim"
)

// mustOpenDB builds a fresh in-memory DB, failing the test on setup
// errors (disk-mode scratch dir creation). The DB closes when the test
// ends, so a KVSTORE_DISK=1 run leaves no store behind.
func mustOpenDB(tb testing.TB) *rankjoin.DB {
	tb.Helper()
	db, err := rankjoin.Open(rankjoin.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	return db
}

// concurrentDB builds a shared DB with synthetic relations and all
// indexes the mixed-algorithm workload needs.
func concurrentDB(t *testing.T) (*rankjoin.DB, rankjoin.Query) {
	t.Helper()
	db := mustOpenDB(t)
	lh, err := db.DefineRelation("cl")
	if err != nil {
		t.Fatal(err)
	}
	rh, err := db.DefineRelation("cr")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var lt, rt []rankjoin.Tuple
	for i := 0; i < 1500; i++ {
		lt = append(lt, rankjoin.Tuple{
			RowKey:    fmt.Sprintf("l%05d", i),
			JoinValue: fmt.Sprintf("j%d", rng.Intn(250)),
			Score:     float64(rng.Intn(1000)) / 1000,
		})
		rt = append(rt, rankjoin.Tuple{
			RowKey:    fmt.Sprintf("r%05d", i),
			JoinValue: fmt.Sprintf("j%d", rng.Intn(250)),
			Score:     float64(rng.Intn(1000)) / 1000,
		})
	}
	if err := lh.BulkLoad(lt); err != nil {
		t.Fatal(err)
	}
	if err := rh.BulkLoad(rt); err != nil {
		t.Fatal(err)
	}
	q, err := db.NewQuery("cl", "cr", rankjoin.Sum, 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, rankjoin.AlgoIJLMR, rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN); err != nil {
		t.Fatal(err)
	}
	return db, q
}

// workload is one query configuration of the mixed concurrent run.
type workload struct {
	algo rankjoin.Algorithm
	opts rankjoin.QueryOptions
}

func TestConcurrentTopKMixedAlgorithms(t *testing.T) {
	db, q := concurrentDB(t)
	// A disk-backed cluster bills measured block reads, and concurrent
	// queries share its block cache, so disk bytes and the time they
	// cost depend on what ran beside a query. Every other counter does
	// not, in either storage mode.
	invariant := func(s sim.Snapshot) sim.Snapshot {
		if db.Cluster().DiskBacked() {
			s.DiskBytesRead, s.SimTime = 0, 0
		}
		return s
	}

	mix := []workload{
		{algo: rankjoin.AlgoNaive},
		{algo: rankjoin.AlgoISL},
		{algo: rankjoin.AlgoISL, opts: rankjoin.QueryOptions{Parallelism: 4}},
		{algo: rankjoin.AlgoBFHM},
		{algo: rankjoin.AlgoBFHM, opts: rankjoin.QueryOptions{Parallelism: 4}},
		{algo: rankjoin.AlgoDRJN},
		{algo: rankjoin.AlgoIJLMR},
		{algo: rankjoin.AlgoHive},
	}

	// Warm-up pass: the region row cache makes the first keyed read of
	// each row dearer (disk seek) than later reads (cache hit). With no
	// writes in this test the cache reaches steady state after one pass
	// over the mix, restoring per-run cost determinism for the
	// reference and concurrent passes below.
	for _, w := range mix {
		if _, err := db.TopK(q, w.algo, &w.opts); err != nil {
			t.Fatalf("%s warm-up: %v", w.algo, err)
		}
	}

	// Sequential reference pass: per-workload scores and exact costs.
	type expect struct {
		scores []float64
		cost   rankjoin.Result
	}
	expected := make([]expect, len(mix))
	for i, w := range mix {
		res, err := db.TopK(q, w.algo, &w.opts)
		if err != nil {
			t.Fatalf("%s sequential: %v", w.algo, err)
		}
		e := expect{cost: *res}
		for _, r := range res.Results {
			e.scores = append(e.scores, r.Score)
		}
		expected[i] = e
	}

	const goroutines = 8
	const perGoroutine = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perGoroutine)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < perGoroutine; it++ {
				wi := (g*perGoroutine + it) % len(mix)
				w := mix[wi]
				res, err := db.TopK(q, w.algo, &w.opts)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", w.algo, err)
					return
				}
				want := expected[wi]
				if len(res.Results) != len(want.scores) {
					errs <- fmt.Errorf("%s: got %d results, want %d", w.algo, len(res.Results), len(want.scores))
					return
				}
				for i, r := range res.Results {
					if d := r.Score - want.scores[i]; d > 1e-9 || d < -1e-9 {
						errs <- fmt.Errorf("%s: score[%d] = %v, want %v", w.algo, i, r.Score, want.scores[i])
						return
					}
				}
				// Per-query metering is isolated: the cost must equal
				// the sequential run's cost exactly, even while other
				// queries charge the shared DB-wide collector.
				if invariant(res.Cost) != invariant(want.cost.Cost) {
					errs <- fmt.Errorf("%s: concurrent cost %+v != sequential %+v", w.algo, res.Cost, want.cost.Cost)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestConcurrentTopKAccumulatesGlobalMetrics(t *testing.T) {
	db, q := concurrentDB(t)

	before := db.Metrics().Snapshot()
	res, err := db.TopK(q, rankjoin.AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}
	delta := db.Metrics().Snapshot().Sub(before)
	// A single query folds its cost into the DB-wide collector 1:1.
	if delta != res.Cost {
		t.Errorf("global delta %+v != query cost %+v", delta, res.Cost)
	}

	// Concurrent queries fold their busy time cumulatively.
	before = db.Metrics().Snapshot()
	const n = 6
	var wg sync.WaitGroup
	costs := make([]rankjoin.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := db.TopK(q, rankjoin.AlgoBFHM, &rankjoin.QueryOptions{Parallelism: 2})
			if err == nil {
				costs[i] = *r
			}
		}(i)
	}
	wg.Wait()
	delta = db.Metrics().Snapshot().Sub(before)
	var sum rankjoin.Result
	for i := range costs {
		sum.Cost.SimTime += costs[i].Cost.SimTime
		sum.Cost.KVReads += costs[i].Cost.KVReads
		sum.Cost.NetworkBytes += costs[i].Cost.NetworkBytes
	}
	if delta.SimTime != sum.Cost.SimTime || delta.KVReads != sum.Cost.KVReads || delta.NetworkBytes != sum.Cost.NetworkBytes {
		t.Errorf("global delta %+v != summed per-query costs %+v", delta, sum.Cost)
	}
}

// TestParallelismReducesTurnaround pins the headline property: at
// Parallelism >= 4 the parallel client read path beats the sequential
// one on simulated turnaround for both BFHM and ISL.
func TestParallelismReducesTurnaround(t *testing.T) {
	db, q := concurrentDB(t)
	for _, algo := range []rankjoin.Algorithm{rankjoin.AlgoBFHM, rankjoin.AlgoISL} {
		seq, err := db.TopK(q, algo, nil)
		if err != nil {
			t.Fatal(err)
		}
		par, err := db.TopK(q, algo, &rankjoin.QueryOptions{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.Cost.SimTime >= seq.Cost.SimTime {
			t.Errorf("%s: parallel turnaround %v not below sequential %v", algo, par.Cost.SimTime, seq.Cost.SimTime)
		}
		t.Logf("%s: sequential %v -> parallel(4) %v", algo, seq.Cost.SimTime, par.Cost.SimTime)
	}
}
