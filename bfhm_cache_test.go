// What a BFHM index remembers between queries must never show: a query
// through warm indexes returns the rows, bills the costs and fails the
// way the same query does through index values that remember nothing.
package rankjoin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// withColdBFHM runs f with the two relations' BFHM indexes replaced, in
// the DB's store, by values that name the same tables and have decoded
// nothing. The warm values are put back afterwards.
func withColdBFHM(t *testing.T, db *DB, f func()) {
	t.Helper()
	var warm []*core.BFHMIndex
	for _, rel := range []string{"left", "right"} {
		idx, ok := db.store.BFHM.Get(rel)
		if !ok {
			t.Fatalf("no BFHM index on %s", rel)
		}
		warm = append(warm, idx)
		db.store.BFHM.Put(rel, &core.BFHMIndex{Table: idx.Table, Layout: idx.Layout, MBits: idx.MBits})
	}
	defer func() {
		db.store.BFHM.Put("left", warm[0])
		db.store.BFHM.Put("right", warm[1])
	}()
	f()
}

func mustTopK(t *testing.T, db *DB, q Query, algo Algorithm, opts *QueryOptions) *Result {
	t.Helper()
	res, err := db.TopK(q, algo, opts)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return res
}

// assertBFHMWarmIsCold runs q warm, cold and warm again; the first run
// settles the region row caches after a write, the other two must return
// the same rows for the same Cost, scoring like the naive join.
func assertBFHMWarmIsCold(t *testing.T, db *DB, q Query, label string) {
	t.Helper()
	mustTopK(t, db, q, AlgoBFHM, nil)
	var cold *Result
	withColdBFHM(t, db, func() { cold = mustTopK(t, db, q, AlgoBFHM, nil) })
	warm := topKLeavesStore(t, db, q, AlgoBFHM, nil, label)
	if !reflect.DeepEqual(warm.Results, cold.Results) {
		t.Fatalf("%s: warm rows differ from cold\nwarm %v\ncold %v", label, warm.Results, cold.Results)
	}
	if warm.Cost != cold.Cost {
		t.Fatalf("%s: warm bill differs from cold\nwarm %+v\ncold %+v", label, warm.Cost, cold.Cost)
	}
	naive := mustTopK(t, db, q, AlgoNaive, nil)
	if len(naive.Results) != len(warm.Results) {
		t.Fatalf("%s: %d rows, naive has %d", label, len(warm.Results), len(naive.Results))
	}
	for i := range naive.Results {
		if d := naive.Results[i].Score - warm.Results[i].Score; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s: score[%d] = %v, naive %v", label, i, warm.Results[i].Score, naive.Results[i].Score)
		}
	}
}

// TestBFHMCacheNeverStale drives the public write surface — Insert,
// Update, Delete, a Delete repeated, DeleteKey, BatchInsert, the offline
// write-back pass — and reads that must leave the store as they found it,
// in seeded random order against BFHM top-k at three depths.
func TestBFHMCacheNeverStale(t *testing.T) {
	db := mustOpen(t, Config{})
	db.SetIndexConfig(IndexConfig{BFHMBuckets: 10, DRJNBuckets: 10, DRJNJoinParts: 16})
	left, right := loadTwoRelations(t, db, 150)
	var queries []Query
	for _, k := range []int{1, 10, 100} {
		q, err := db.NewQuery("left", "right", Sum, k)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	if err := db.EnsureIndexes(queries[0], AlgoBFHM, AlgoDRJN); err != nil {
		t.Fatal(err)
	}
	sides := []struct {
		h       *RelationHandle
		tuples  *[]Tuple
		prefix  string
		deleted *Tuple
	}{{db.Relation("left"), &left, "l", nil}, {db.Relation("right"), &right, "r", nil}}
	rng := rand.New(rand.NewSource(7))
	newTuple := func(prefix string, n int) Tuple {
		return Tuple{
			RowKey:    fmt.Sprintf("%sn%05d", prefix, n),
			JoinValue: fmt.Sprintf("j%d", rng.Intn(30)),
			Score:     float64(rng.Intn(1000)) / 1000,
		}
	}
	for step := 0; step < 60; step++ {
		s := &sides[rng.Intn(2)]
		op := rng.Intn(9)
		var err error
		switch op {
		case 0:
			tp := newTuple(s.prefix, step)
			err = s.h.Insert(tp.RowKey, tp.JoinValue, tp.Score)
			*s.tuples = append(*s.tuples, tp)
		case 1:
			i := rng.Intn(len(*s.tuples))
			tp := (*s.tuples)[i]
			tp.Score = float64(rng.Intn(1000)) / 1000
			err = s.h.Update(tp.RowKey, tp.JoinValue, tp.Score)
			(*s.tuples)[i] = tp
		case 2, 3:
			i := rng.Intn(len(*s.tuples))
			tp := (*s.tuples)[i]
			if op == 2 {
				err = s.h.Delete(tp.RowKey, tp.JoinValue, tp.Score)
			} else {
				err = s.h.DeleteKey(tp.RowKey)
			}
			*s.tuples = append((*s.tuples)[:i], (*s.tuples)[i+1:]...)
			s.deleted = &tp
		case 4: // the last delete again: a second tombstone record for the same key
			if tp := s.deleted; tp != nil {
				err = s.h.Delete(tp.RowKey, tp.JoinValue, tp.Score)
			}
		case 5:
			var batch []Tuple
			for i := 0; i < 6; i++ {
				batch = append(batch, newTuple(s.prefix, 1000*(i+1)+step))
			}
			err = s.h.BatchInsert(batch)
			*s.tuples = append(*s.tuples, batch...)
		case 6:
			_, err = s.h.WriteBackBFHM()
		case 7:
			topKLeavesStore(t, db, queries[1], AlgoBFHM, nil, fmt.Sprintf("step %d", step))
		case 8:
			topKLeavesStore(t, db, queries[1], AlgoBFHM, &QueryOptions{Parallelism: 2}, fmt.Sprintf("step %d", step))
		}
		if err != nil {
			t.Fatalf("step %d op %d: %v", step, op, err)
		}
		for _, q := range queries {
			assertBFHMWarmIsCold(t, db, q, fmt.Sprintf("step %d op %d k=%d", step, op, q.K()))
		}
	}
	want := refTopK(left, right, Sum, 100)
	got := mustTopK(t, db, queries[2], AlgoBFHM, nil)
	if len(got.Results) != len(want) {
		t.Fatalf("final: %d rows, want %d", len(got.Results), len(want))
	}
	for i, r := range got.Results {
		if d := r.Score - want[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("final: score[%d] = %v, want %v", i, r.Score, want[i])
		}
	}
}

// TestBFHMWarmBudgetTripsLikeCold: a read-unit cap fires at the same
// read unit, with the same partial results, whether or not the indexes
// remember their buckets — the bucket rows are read, and billed, either
// way.
func TestBFHMWarmBudgetTripsLikeCold(t *testing.T) {
	db := mustOpen(t, Config{})
	db.SetIndexConfig(IndexConfig{BFHMBuckets: 20})
	loadTwoRelations(t, db, 300)
	q, err := db.NewQuery("left", "right", Sum, 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoBFHM); err != nil {
		t.Fatal(err)
	}
	full := mustTopK(t, db, q, AlgoBFHM, nil) // the indexes are warm from here on
	if full.Cost.KVReads < 40 {
		t.Fatalf("baseline spend %d too small to cap", full.Cost.KVReads)
	}
	tripped := 0
	for _, limit := range []uint64{1, 7, full.Cost.KVReads / 4, full.Cost.KVReads / 2, full.Cost.KVReads - 1, full.Cost.KVReads} {
		run := func() (*Result, *BudgetExceededError) {
			res, err := db.TopK(q, AlgoBFHM, &QueryOptions{MaxReadUnits: limit})
			if err == nil {
				return res, nil
			}
			var be *BudgetExceededError
			if !errors.As(err, &be) {
				t.Fatalf("limit %d: err is %T (%v), want *BudgetExceededError", limit, err, err)
			}
			return nil, be
		}
		var coldRes *Result
		var cold *BudgetExceededError
		withColdBFHM(t, db, func() { coldRes, cold = run() })
		warmRes, warm := run()
		switch {
		case (cold == nil) != (warm == nil):
			t.Fatalf("limit %d: cold tripped: %v, warm tripped: %v", limit, cold != nil, warm != nil)
		case cold == nil:
			if !reflect.DeepEqual(coldRes.Results, warmRes.Results) || coldRes.Cost != warmRes.Cost {
				t.Fatalf("limit %d: uncapped runs differ", limit)
			}
		default:
			tripped++
			if cold.Spent != warm.Spent || cold.Limit != warm.Limit || !reflect.DeepEqual(cold.Partial, warm.Partial) {
				t.Fatalf("limit %d: cold tripped at %d with %d partials, warm at %d with %d",
					limit, cold.Spent, len(cold.Partial), warm.Spent, len(warm.Partial))
			}
		}
	}
	if tripped < 4 {
		t.Fatalf("only %d of the caps fired", tripped)
	}
}

// cancelAtCheck is a context that reports cancellation from its n'th
// Err call on, so a query is cancelled at a chosen interrupt check
// rather than at a wall-clock instant.
type cancelAtCheck struct {
	context.Context
	calls, n int
}

func (c *cancelAtCheck) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestBFHMWarmCancelLikeCold: cancelling at the n'th interrupt check
// stops a warm query at the read unit it stops a cold one — the warm
// path skips no check.
func TestBFHMWarmCancelLikeCold(t *testing.T) {
	db := mustOpen(t, Config{})
	db.SetIndexConfig(IndexConfig{BFHMBuckets: 20})
	loadTwoRelations(t, db, 300)
	q, err := db.NewQuery("left", "right", Sum, 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoBFHM); err != nil {
		t.Fatal(err)
	}
	mustTopK(t, db, q, AlgoBFHM, nil)
	stoppedMidway := 0
	for _, n := range []int{1, 2, 3, 5, 8, 13, 21, 34} {
		run := func() *CanceledError {
			ctx := &cancelAtCheck{Context: context.Background(), n: n}
			_, err := db.TopK(q, AlgoBFHM, &QueryOptions{Context: ctx})
			if err == nil {
				return nil // fewer than n checks in the whole query
			}
			var ce *CanceledError
			if !errors.As(err, &ce) || !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("check %d: err is %T (%v), want *CanceledError wrapping context.Canceled", n, err, err)
			}
			return ce
		}
		var cold *CanceledError
		withColdBFHM(t, db, func() { cold = run() })
		warm := run()
		if (cold == nil) != (warm == nil) {
			t.Fatalf("check %d: cold cancelled: %v, warm cancelled: %v", n, cold != nil, warm != nil)
		}
		if cold == nil {
			continue
		}
		if cold.ReadUnits != warm.ReadUnits || !reflect.DeepEqual(cold.Partial, warm.Partial) {
			t.Fatalf("check %d: cold stopped at %d read units with %d partials, warm at %d with %d",
				n, cold.ReadUnits, len(cold.Partial), warm.ReadUnits, len(warm.Partial))
		}
		if cold.ReadUnits > 0 {
			stoppedMidway++
		}
	}
	if stoppedMidway == 0 {
		t.Fatal("no cancellation landed after the first read")
	}
}

// TestBFHMWarmFaultLikeCold: with the storage caches dropped and SSTable
// reads failing from the fourth on, a BFHM query reads one bucket row and
// fails on the next. The warm indexes must not hide that: they surface
// the typed error a cold index value does, having billed what it billed.
func TestBFHMWarmFaultLikeCold(t *testing.T) {
	type outcome struct {
		err  error
		cost sim.Snapshot
	}
	run := func(cold bool) outcome {
		ffs := faultfs.New(nil)
		db := openFaultedDB(t, ffs, 200)
		db.SetIndexConfig(IndexConfig{BFHMBuckets: 10})
		q, err := db.NewQuery("left", "right", Sum, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.EnsureIndexes(q, AlgoBFHM); err != nil {
			t.Fatal(err)
		}
		if err := db.cluster.FlushAll(); err != nil {
			t.Fatal(err)
		}
		mustTopK(t, db, q, AlgoBFHM, nil)
		// Send the next reads to the files, and fail them early in the
		// estimation phase.
		db.cluster.SetRowCacheBytes(0)
		db.cluster.SetBlockCacheBytes(0)
		ffs.AddRule(faultfs.Rule{PathContains: ".sst", Op: faultfs.OpRead, Mode: faultfs.ModeErr, Nth: 4})
		var out outcome
		query := func() {
			before := db.Metrics().Snapshot()
			_, out.err = db.TopK(q, AlgoBFHM, nil)
			out.cost = db.Metrics().Snapshot().Sub(before)
		}
		if cold {
			withColdBFHM(t, db, query)
		} else {
			query()
		}
		return out
	}
	cold, warm := run(true), run(false)
	for name, o := range map[string]outcome{"cold": cold, "warm": warm} {
		if o.err == nil {
			t.Fatalf("%s query over a failing store returned no error", name)
		}
		var ioe *IOError
		if !errors.As(o.err, &ioe) && !errors.Is(o.err, ErrCorruption) {
			t.Fatalf("%s error is %T (%v), want a typed storage error", name, o.err, o.err)
		}
	}
	var ci, wi *kvstore.IOError
	if errors.As(cold.err, &ci) != errors.As(warm.err, &wi) || (ci != nil && ci.Op != wi.Op) {
		t.Fatalf("cold failed with %v, warm with %v", cold.err, warm.err)
	}
	if cold.cost.KVReads == 0 {
		t.Fatal("the fault fired before any bucket row was read")
	}
	cold.cost.SimTime, warm.cost.SimTime = 0, 0 // disk mode bills measured block reads; the counts are exact
	if cold.cost != warm.cost {
		t.Fatalf("cold had billed %+v when it failed, warm %+v", cold.cost, warm.cost)
	}
}
