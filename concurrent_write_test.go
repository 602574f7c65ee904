// Concurrent mixed read/write exercise (run with -race): online
// Insert/Update/Delete traffic races TopK and Stream across all eight
// executors on one shared DB. Under concurrent writes exact result sets
// are timing-dependent, so each returned result is checked for
// prefix-consistency instead: every tuple it contains must be a version
// that was live at some prefix of the write history (initial load or a
// planned write — never a torn or invented version), the pair must
// actually join, the aggregate score must be the score function of its
// sides, and the result list must be in descending score order.
package rankjoin_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	rankjoin "repro"
)

// writePlan is one relation's scripted write traffic, precomputed so the
// set of ever-valid tuple versions is known before the race starts.
type writePlan struct {
	inserts []rankjoin.Tuple // fresh keys
	updates []rankjoin.Tuple // new versions of loaded keys
	deletes []string         // loaded keys to remove
}

func planWrites(prefix string, rng *rand.Rand, n int, loaded []rankjoin.Tuple) writePlan {
	var p writePlan
	for i := 0; i < n; i++ {
		p.inserts = append(p.inserts, rankjoin.Tuple{
			RowKey:    fmt.Sprintf("%snew%04d", prefix, i),
			JoinValue: fmt.Sprintf("j%d", rng.Intn(120)),
			Score:     float64(rng.Intn(1000)) / 1000,
		})
		t := loaded[rng.Intn(len(loaded)/2)] // first half: update targets
		p.updates = append(p.updates, rankjoin.Tuple{
			RowKey:    t.RowKey,
			JoinValue: fmt.Sprintf("j%d", rng.Intn(120)),
			Score:     float64(rng.Intn(1000)) / 1000,
		})
		// Second half: delete targets, disjoint from update targets so
		// the scripted writers never conflict on a key.
		p.deletes = append(p.deletes, loaded[len(loaded)/2+rng.Intn(len(loaded)/2)].RowKey)
	}
	return p
}

func versionKey(t rankjoin.Tuple) string {
	return fmt.Sprintf("%s|%s|%v", t.RowKey, t.JoinValue, t.Score)
}

func TestConcurrentWritesVsReads(t *testing.T) {
	db := mustOpenDB(t)
	db.SetIndexConfig(rankjoin.IndexConfig{DRJNBuckets: 10, DRJNJoinParts: 16})
	lh, err := db.DefineRelation("cwl")
	if err != nil {
		t.Fatal(err)
	}
	rh, err := db.DefineRelation("cwr")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	mk := func(prefix string, n int) []rankjoin.Tuple {
		var out []rankjoin.Tuple
		for i := 0; i < n; i++ {
			out = append(out, rankjoin.Tuple{
				RowKey:    fmt.Sprintf("%s%05d", prefix, i),
				JoinValue: fmt.Sprintf("j%d", rng.Intn(120)),
				Score:     float64(rng.Intn(1000)) / 1000,
			})
		}
		return out
	}
	lt, rt := mk("l", 600), mk("r", 600)
	if err := lh.BulkLoad(lt); err != nil {
		t.Fatal(err)
	}
	if err := rh.BulkLoad(rt); err != nil {
		t.Fatal(err)
	}
	q, err := db.NewQuery("cwl", "cwr", rankjoin.Sum, 15)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, rankjoin.Algorithms()...); err != nil {
		t.Fatal(err)
	}

	const writesPerSide = 60
	lPlan := planWrites("l", rng, writesPerSide, lt)
	rPlan := planWrites("r", rng, writesPerSide, rt)

	// Every tuple version that is ever live: the initial load plus every
	// planned insert and update. A read may legitimately return any of
	// them (including just-deleted ones it raced), but nothing else.
	allowed := map[string]bool{}
	for _, set := range [][]rankjoin.Tuple{lt, rt, lPlan.inserts, lPlan.updates, rPlan.inserts, rPlan.updates} {
		for _, tp := range set {
			allowed[versionKey(tp)] = true
		}
	}

	checkResult := func(algo rankjoin.Algorithm, results []rankjoin.JoinResult) error {
		prev := 2.1
		for i, r := range results {
			if r.Score > prev+1e-9 {
				return fmt.Errorf("%s: result %d out of order (%v after %v)", algo, i, r.Score, prev)
			}
			prev = r.Score
			if r.Left.JoinValue != r.Right.JoinValue {
				return fmt.Errorf("%s: non-joining pair %+v", algo, r)
			}
			if d := r.Score - (r.Left.Score + r.Right.Score); d > 1e-9 || d < -1e-9 {
				return fmt.Errorf("%s: score %v != sum of sides %+v", algo, r.Score, r)
			}
			for _, side := range []rankjoin.Tuple{r.Left, r.Right} {
				if !allowed[versionKey(side)] {
					return fmt.Errorf("%s: tuple %+v was never a live version", algo, side)
				}
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	report := func(err error) {
		if err != nil {
			select {
			case errc <- err:
			default:
			}
		}
	}

	// Writers: scripted single-writer-per-key traffic on each side.
	for _, side := range []struct {
		h    *rankjoin.RelationHandle
		plan writePlan
	}{{lh, lPlan}, {rh, rPlan}} {
		wg.Add(1)
		go func(h *rankjoin.RelationHandle, p writePlan) {
			defer wg.Done()
			for i := 0; i < writesPerSide; i++ {
				ins := p.inserts[i]
				if err := h.Insert(ins.RowKey, ins.JoinValue, ins.Score); err != nil {
					report(fmt.Errorf("insert %s: %w", ins.RowKey, err))
					return
				}
				up := p.updates[i]
				if err := h.Update(up.RowKey, up.JoinValue, up.Score); err != nil {
					report(fmt.Errorf("update %s: %w", up.RowKey, err))
					return
				}
				if err := h.DeleteKey(p.deletes[i]); err != nil {
					report(fmt.Errorf("delete %s: %w", p.deletes[i], err))
					return
				}
			}
		}(side.h, side.plan)
	}

	// Readers: every executor keeps querying while the writers run.
	for _, algo := range append(rankjoin.Algorithms(), rankjoin.AlgoNaive) {
		wg.Add(1)
		go func(algo rankjoin.Algorithm) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := db.TopK(q, algo, nil)
				if err != nil {
					report(fmt.Errorf("topk %s: %w", algo, err))
					return
				}
				report(checkResult(algo, res.Results))
			}
		}(algo)
	}

	// BFHM readers that keep going for as long as the writers do: they
	// share the buckets the indexes remember while the writers and the
	// offline write-back pass below change bucket rows under them.
	for _, parallelism := range []int{0, 0, 2} {
		wg.Add(1)
		go func(parallelism int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				res, err := db.TopK(q, rankjoin.AlgoBFHM, &rankjoin.QueryOptions{Parallelism: parallelism})
				if err != nil {
					report(fmt.Errorf("topk bfhm parallelism %d: %w", parallelism, err))
					return
				}
				report(checkResult(rankjoin.AlgoBFHM, res.Results))
			}
		}(parallelism)
	}

	// The offline write-back pass over both relations, as many rounds as
	// each BFHM reader runs, beside the writers and readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			for _, h := range []*rankjoin.RelationHandle{lh, rh} {
				if _, err := h.WriteBackBFHM(); err != nil {
					report(fmt.Errorf("offline write-back %s: %w", h.Name(), err))
					return
				}
			}
		}
	}()

	// A streaming reader with early close: partial drains racing writes
	// must hold the same per-result invariants and must not leak.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			rows, err := db.Stream(q, rankjoin.AlgoISL, nil)
			if err != nil {
				report(fmt.Errorf("stream open: %w", err))
				return
			}
			var got []rankjoin.JoinResult
			for len(got) < 8 && rows.Next() {
				got = append(got, rows.Result())
			}
			report(rows.Err())
			report(checkResult("stream-isl", got))
			report(rows.Close())
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}
}
