package rankjoin

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
)

// TestRecycledListBuffersConcurrentStreams: list cursors hand their
// leaf buffers (arena pages, equi tables, band grids) to the next
// cursor when they close. Goroutines open, page, close and abandon isl
// cursors over four trees that share relations at once, and park more
// page tokens than the cursor cache holds, so the cache closes cursors
// it evicts while other goroutines fill buffers a closed cursor gave
// back. Every row each goroutine reads must be naive's row at that rank.
func TestRecycledListBuffersConcurrentStreams(t *testing.T) {
	db := mustOpen(t, Config{})
	defer db.Close()
	rng := rand.New(rand.NewSource(44))
	names := []string{"b0", "b1", "b2", "b3", "b4"}
	for _, name := range names {
		h, err := db.DefineRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		// Enough tuples per leaf to fill two arena pages and grow a
		// band grid's table; integer join values take bandValue's digit
		// path, the rest its strconv path. Quantised scores make ties.
		tuples := make([]Tuple, 700)
		for i := range tuples {
			jv := strconv.Itoa(rng.Intn(300))
			switch rng.Intn(10) {
			case 0:
				jv = fmt.Sprintf("%d.5", rng.Intn(300))
			case 1:
				jv = "0" + jv
			}
			tuples[i] = Tuple{RowKey: fmt.Sprintf("%s-%04d", name, i), JoinValue: jv, Score: float64(rng.Intn(200)) / 200}
		}
		if err := h.BulkLoad(tuples); err != nil {
			t.Fatal(err)
		}
	}
	band := func(a, b int, w float64) TreeEdge { return TreeEdge{A: a, B: b, Kind: PredBand, Band: w} }
	equi := func(a, b int) TreeEdge { return TreeEdge{A: a, B: b, Kind: PredEqui} }
	shapes := []struct {
		rels  []string
		edges []TreeEdge
	}{
		{[]string{"b0", "b1", "b2"}, []TreeEdge{band(0, 1, 1), band(1, 2, 1)}},
		{[]string{"b1", "b2", "b3", "b4"}, []TreeEdge{band(0, 1, 2), band(1, 2, 0), band(2, 3, 1)}},
		{[]string{"b0", "b3"}, []TreeEdge{equi(0, 1)}},
		{[]string{"b2", "b4", "b0"}, []TreeEdge{equi(0, 1), band(1, 2, 3)}},
	}
	const depth = 60
	type tree struct {
		q    Query
		want []JoinResult
	}
	trees := make([]tree, len(shapes))
	for i, s := range shapes {
		q, err := db.NewTreeQuery(s.rels, s.edges, Sum, depth)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.EnsureIndexes(q, AlgoISL); err != nil {
			t.Fatal(err)
		}
		res, err := db.TopK(q, AlgoNaive, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) != depth {
			t.Fatalf("tree %d: naive returns %d results, want %d", i, len(res.Results), depth)
		}
		trees[i] = tree{q, res.Results}
	}

	const workers, rounds = 4, 60
	var mu sync.Mutex
	abandoned := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			check := func(label string, tr tree, from int, got []JoinResult) bool {
				for i, r := range got {
					if !reflect.DeepEqual(r, tr.want[from+i]) {
						t.Errorf("worker %d, %s: rank %d = %+v, naive has %+v", w, label, from+i, r, tr.want[from+i])
						return false
					}
				}
				return true
			}
			for round := 0; round < rounds; round++ {
				ti := rng.Intn(len(trees))
				tr := trees[ti]
				opts := &QueryOptions{ISLBatch: 1 + rng.Intn(20)}
				if round%2 == 0 {
					// A stream read part-way, then closed early.
					rows, err := db.Stream(tr.q, AlgoISL, opts)
					if err != nil {
						t.Errorf("worker %d: stream tree %d: %v", w, ti, err)
						return
					}
					var got []JoinResult
					for n := 1 + rng.Intn(depth); len(got) < n && rows.Next(); {
						got = append(got, rows.Result())
					}
					err = rows.Err()
					rows.Close()
					if err != nil {
						t.Errorf("worker %d: stream tree %d: %v", w, ti, err)
						return
					}
					if !check(fmt.Sprintf("stream of tree %d", ti), tr, 0, got) {
						return
					}
					continue
				}
				// Pages through tokens: the last token is usually left
				// parked, for the cache to evict and close.
				page := 1 + rng.Intn(15)
				from := 0
				for p := 0; p < 3 && from+page <= depth; p++ {
					res, err := db.TopK(tr.q.WithK(page), AlgoISL, opts)
					if errors.Is(err, errUnknownPageToken) {
						opts.PageToken = "" // evicted while parked: nothing left to check
						break
					}
					if err != nil {
						t.Errorf("worker %d: page %d of tree %d: %v", w, p, ti, err)
						return
					}
					if !check(fmt.Sprintf("page %d of tree %d", p, ti), tr, from, res.Results) {
						return
					}
					from += len(res.Results)
					opts = &QueryOptions{ISLBatch: opts.ISLBatch, PageToken: res.NextPageToken}
				}
				if opts.PageToken != "" && rng.Intn(4) > 0 {
					mu.Lock()
					abandoned++
					mu.Unlock()
					continue
				}
				if opts.PageToken != "" {
					if rows, err := db.cursors.take(opts.PageToken); err == nil {
						rows.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if abandoned <= maxCachedCursors {
		t.Fatalf("%d page tokens left parked, the cursor cache holds %d: nothing was evicted", abandoned, maxCachedCursors)
	}
}
