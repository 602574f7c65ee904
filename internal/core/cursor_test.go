package core

import (
	"fmt"
	"testing"

	"repro/internal/kvstore"
)

// newCursorEnv loads synthetic relations, builds every index family,
// and returns what the executor-level cursor tests need.
func newCursorEnv(t *testing.T, n, joinCard, k int, seed int64) (*kvstore.Cluster, *JoinTree, *IndexStore) {
	t.Helper()
	c := newTestCluster()
	left := synthTuples("l", n, joinCard, "uniform", seed)
	right := synthTuples("r", n, joinCard, "uniform", seed+77)
	relL := loadRelation(t, c, "CL", left)
	relR := loadRelation(t, c, "CR", right)
	q := binaryTree(relL, relR, Sum, k)
	store := NewIndexStore()
	cfg := IndexBuildConfig{BFHMBuckets: 8, DRJNBuckets: 8, DRJNJoinParts: 16}.WithDefaults()
	for _, ex := range Executors() {
		if !ex.HasIndex(q, store) {
			if err := ex.EnsureIndex(c, q, store, cfg); err != nil {
				t.Fatalf("%s: EnsureIndex: %v", ex.Name(), err)
			}
		}
	}
	return c, q, store
}

// drainPages pulls total results from cur in pages of pageSize,
// returning the concatenation.
func drainPages(t *testing.T, cur Cursor, pageSize, total int) []JoinResult {
	t.Helper()
	var out []JoinResult
	for len(out) < total {
		got := 0
		for got < pageSize && len(out) < total {
			r, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if r == nil {
				return out
			}
			out = append(out, *r)
			got++
		}
		if got < pageSize {
			return out
		}
	}
	return out
}

// TestCursorPagesMatchBatch: for every registered executor, draining a
// single cursor in small pages must concatenate to exactly the batch
// TopK(n) result — same pairs, same order.
func TestCursorPagesMatchBatch(t *testing.T) {
	const page, total = 3, 21
	c, q, store := newCursorEnv(t, 120, 12, page, 42)
	opts := ExecOptions{ISLBatch: 7}.WithDefaults()

	for _, ex := range Executors() {
		batchQ := withK(q, total)
		batch, err := runExec(c, ex.Name(), batchQ, store, opts)
		if err != nil {
			t.Fatalf("%s: batch: %v", ex.Name(), err)
		}

		cur, err := ex.Open(c, q, store, opts) // q.K = page hint
		if err != nil {
			t.Fatalf("%s: Open: %v", ex.Name(), err)
		}
		paged := drainPages(t, cur, page, total)
		if err := cur.Close(); err != nil {
			t.Fatalf("%s: Close: %v", ex.Name(), err)
		}

		if len(paged) != len(batch.Results) {
			t.Fatalf("%s: paged %d results, batch %d", ex.Name(), len(paged), len(batch.Results))
		}
		for i := range paged {
			b := batch.Results[i]
			if paged[i].Left.RowKey != b.Left.RowKey || paged[i].Right.RowKey != b.Right.RowKey || paged[i].Score != b.Score {
				t.Fatalf("%s: page result %d = (%s,%s,%.4f), batch = (%s,%s,%.4f)",
					ex.Name(), i,
					paged[i].Left.RowKey, paged[i].Right.RowKey, paged[i].Score,
					b.Left.RowKey, b.Right.RowKey, b.Score)
			}
		}
		verifyResultsAreRealJoins(t, ex.Name()+"/paged", paged, q.Score)
	}
}

// TestCursorDrainsToExhaustion: draining past the full join must
// terminate with the complete ordered result set for every executor.
func TestCursorDrainsToExhaustion(t *testing.T) {
	c, q, store := newCursorEnv(t, 40, 6, 5, 7)
	// The oracle needs the raw tuples; regenerate them identically.
	left := synthTuples("l", 40, 6, "uniform", 7)
	right := synthTuples("r", 40, 6, "uniform", 7+77)
	full := oracleTopK(left, right, q.Score, 1<<30)

	opts := ExecOptions{}.WithDefaults()
	for _, ex := range Executors() {
		cur, err := ex.Open(c, q, store, opts)
		if err != nil {
			t.Fatalf("%s: Open: %v", ex.Name(), err)
		}
		var got []JoinResult
		for {
			r, err := cur.Next()
			if err != nil {
				t.Fatalf("%s: Next: %v", ex.Name(), err)
			}
			if r == nil {
				break
			}
			got = append(got, *r)
		}
		cur.Close()
		assertScoresEqual(t, ex.Name()+"/exhaust", scoresOf(got), scoresOf(full))
	}
}

// TestCursorEarlyCloseChargesNothing: a closed cursor must stop
// consuming read units — abandoning a stream early never bills for
// results that were not pulled.
func TestCursorEarlyCloseChargesNothing(t *testing.T) {
	c, q, store := newCursorEnv(t, 200, 10, 3, 99)
	opts := ExecOptions{ISLBatch: 5}.WithDefaults()
	for _, ex := range Executors() {
		cur, err := ex.Open(c, q, store, opts)
		if err != nil {
			t.Fatalf("%s: Open: %v", ex.Name(), err)
		}
		if _, err := cur.Next(); err != nil {
			t.Fatalf("%s: Next: %v", ex.Name(), err)
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("%s: Close: %v", ex.Name(), err)
		}
		before := c.Metrics().Snapshot()
		if _, err := cur.Next(); err != ErrCursorClosed {
			t.Fatalf("%s: Next after Close = %v, want ErrCursorClosed", ex.Name(), err)
		}
		delta := c.Metrics().Snapshot().Sub(before)
		if delta.KVReads != 0 || delta.NetworkBytes != 0 {
			t.Fatalf("%s: closed cursor charged reads=%d net=%d", ex.Name(), delta.KVReads, delta.NetworkBytes)
		}
	}
}

// TestHRJNStreamMatchesBounded: one operator paused after every result
// and resumed must release the sequence a fresh run bounded at k
// releases, and both must be the oracle's top-k.
func TestHRJNStreamMatchesBounded(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		left := descending(synthTuples("l", 80, 8, "uniform", seed))
		right := descending(synthTuples("r", 80, 8, "uniform", seed+5))
		stream := newSliceRun(stubBinary(Sum), left, right)
		var got []JoinResult
		for _, k := range []int{1, 5, 17} {
			for len(got) < k {
				got = append(got, stream.take(1)...)
			}
			label := fmt.Sprintf("hrjn-stream k=%d seed=%d", k, seed)
			bounded := newSliceRun(stubBinary(Sum), left, right).take(k)
			assertTreeResultsByteMatch(t, label+" vs bounded", got, bounded)
			assertTreeResultsByteMatch(t, label+" vs oracle", got, oracleTopK(left, right, Sum, k))
		}
	}
}

// TestHRJNStreamResumeCheaperThanRerun: pulling k then k more from one
// operator must consume fewer input tuples than running from scratch at
// k and then at 2k — the marginal-cost claim at the operator level.
func TestHRJNStreamResumeCheaperThanRerun(t *testing.T) {
	const k = 10
	left := descending(synthTuples("l", 400, 20, "uniform", 11))
	right := descending(synthTuples("r", 400, 20, "uniform", 12))

	pulls := func(k int) int {
		run := newSliceRun(stubBinary(Sum), left, right)
		run.take(k)
		return run.pulled
	}
	rerun := pulls(k) + pulls(2*k)

	stream := newSliceRun(stubBinary(Sum), left, right)
	stream.take(k)
	first := stream.pulled
	stream.take(k)
	if first != pulls(k) {
		t.Fatalf("the first page pulled %d tuples, a bounded run %d", first, pulls(k))
	}
	if stream.pulled >= rerun {
		t.Fatalf("streaming 2k pulled %d tuples, re-running k then 2k pulled %d — streaming should be cheaper", stream.pulled, rerun)
	}
	t.Logf("tuples pulled: stream(2k)=%d vs rerun(k)+rerun(2k)=%d", stream.pulled, rerun)
}
