package rankjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// allAlgos is every concrete algorithm, naive included.
func allAlgos() []Algorithm {
	return append([]Algorithm{AlgoNaive}, Algorithms()...)
}

// pageAll drains up to total results in pages of k through page tokens,
// returning the concatenation and the summed page costs (KV read
// units).
func pageAll(t *testing.T, db *DB, q Query, algo Algorithm, k, total int) ([]JoinResult, uint64) {
	t.Helper()
	var out []JoinResult
	var reads uint64
	opts := &QueryOptions{ISLBatch: 10}
	for len(out) < total {
		res, err := db.TopK(q.WithK(k), algo, opts)
		if err != nil {
			t.Fatalf("%s: page at %d: %v", algo, len(out), err)
		}
		out = append(out, res.Results...)
		reads += res.Cost.KVReads
		if res.NextPageToken == "" {
			break
		}
		opts = &QueryOptions{ISLBatch: 10, PageToken: res.NextPageToken}
	}
	if len(out) > total {
		out = out[:total]
	}
	return out, reads
}

// TestPagingMatchesBatchAllAlgorithms: for every algorithm, draining
// pages of 3 through page tokens must concatenate to exactly the batch
// TopK(n) result.
func TestPagingMatchesBatchAllAlgorithms(t *testing.T) {
	db := mustOpen(t, Config{})
	loadTwoRelations(t, db, 150)
	q, err := db.NewQuery("left", "right", Sum, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, Algorithms()...); err != nil {
		t.Fatal(err)
	}
	const page, total = 3, 18
	for _, algo := range allAlgos() {
		batch, err := db.TopK(q.WithK(total), algo, &QueryOptions{ISLBatch: 10})
		if err != nil {
			t.Fatalf("%s: batch: %v", algo, err)
		}
		paged, _ := pageAll(t, db, q, algo, page, total)
		if len(paged) != len(batch.Results) {
			t.Fatalf("%s: paged %d results, batch %d", algo, len(paged), len(batch.Results))
		}
		for i := range paged {
			b := batch.Results[i]
			if paged[i].Left.RowKey != b.Left.RowKey || paged[i].Right.RowKey != b.Right.RowKey || paged[i].Score != b.Score {
				t.Fatalf("%s: page result %d = (%s,%s,%.4f), batch = (%s,%s,%.4f)", algo, i,
					paged[i].Left.RowKey, paged[i].Right.RowKey, paged[i].Score,
					b.Left.RowKey, b.Right.RowKey, b.Score)
			}
		}
	}
}

// TestPagingCheaperThanIndependentTopKs: the acceptance benchmark —
// paging 10×k through tokens must cost measurably fewer KV read units
// than the 10 independent, growing TopK calls a client without tokens
// would issue, for the natively incremental executors (ISL: the HRJN
// coordinator; DRJN: the band walk).
func TestPagingCheaperThanIndependentTopKs(t *testing.T) {
	db := mustOpen(t, Config{})
	loadTwoRelations(t, db, 600)
	const k, pages = 10, 10
	q, err := db.NewQuery("left", "right", Sum, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoISL, AlgoDRJN); err != nil {
		t.Fatal(err)
	}

	for _, algo := range []Algorithm{AlgoISL, AlgoDRJN} {
		// Token path: one run of k, then resumed pages.
		paged, pagedReads := pageAll(t, db, q, algo, k, k*pages)
		if len(paged) != k*pages {
			t.Fatalf("%s: paged only %d of %d results", algo, len(paged), k*pages)
		}

		// Tokenless client: to show results (i-1)k..ik it must re-run
		// TopK(ik) for every page.
		var rerunReads uint64
		for i := 1; i <= pages; i++ {
			res, err := db.TopK(q.WithK(k*i), algo, &QueryOptions{ISLBatch: 10})
			if err != nil {
				t.Fatal(err)
			}
			rerunReads += res.Cost.KVReads
		}

		if pagedReads >= rerunReads {
			t.Errorf("%s: paging read %d units, independent TopKs read %d — paging should be cheaper",
				algo, pagedReads, rerunReads)
		}
		t.Logf("%s: deep pagination %d pages x %d: paged=%d read units, independent reruns=%d (%.1fx)",
			algo, pages, k, pagedReads, rerunReads, float64(rerunReads)/float64(pagedReads))
	}
}

// TestStreamMatchesTopK: DB.Stream must enumerate exactly the batch
// order, and closing it early must stop all read-unit consumption.
func TestStreamMatchesTopK(t *testing.T) {
	db := mustOpen(t, Config{})
	loadTwoRelations(t, db, 200)
	q, err := db.NewQuery("left", "right", Product, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoISL); err != nil {
		t.Fatal(err)
	}
	const n = 37
	batch, err := db.TopK(q.WithK(n), AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}

	rows, err := db.Stream(q, AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []JoinResult
	for len(got) < n && rows.Next() {
		got = append(got, rows.Result())
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if rows.Algorithm() != "isl" {
		t.Errorf("stream algorithm = %q, want isl", rows.Algorithm())
	}
	if len(got) != len(batch.Results) {
		t.Fatalf("stream yielded %d results, batch %d", len(got), len(batch.Results))
	}
	for i := range got {
		b := batch.Results[i]
		if got[i].Left.RowKey != b.Left.RowKey || got[i].Right.RowKey != b.Right.RowKey || got[i].Score != b.Score {
			t.Fatalf("stream result %d = (%s,%s,%.4f), batch = (%s,%s,%.4f)", i,
				got[i].Left.RowKey, got[i].Right.RowKey, got[i].Score,
				b.Left.RowKey, b.Right.RowKey, b.Score)
		}
	}

	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics().Snapshot()
	if rows.Next() {
		t.Error("Next returned true after Close")
	}
	if delta := db.Metrics().Snapshot().Sub(before); delta.KVReads != 0 {
		t.Errorf("closed stream consumed %d read units", delta.KVReads)
	}
}

// TestStreamAutoPlans: AlgoAuto streaming must pick a runnable executor
// and enumerate correctly.
func TestStreamAutoPlans(t *testing.T) {
	db := mustOpen(t, Config{})
	left, right := loadTwoRelations(t, db, 150)
	q, err := db.NewQuery("left", "right", Sum, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoISL, AlgoDRJN); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Stream(q, AlgoAuto, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var scores []float64
	for len(scores) < 15 && rows.Next() {
		scores = append(scores, rows.Result().Score)
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	want := refTopK(left, right, Sum, 15)
	if len(scores) != len(want) {
		t.Fatalf("stream yielded %d scores, want %d", len(scores), len(want))
	}
	for i := range want {
		if d := scores[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("score[%d] = %.6f, want %.6f", i, scores[i], want[i])
		}
	}
}

// TestPageTokenSemantics: tokens are single-use, query-bound, and
// algorithm-bound.
func TestPageTokenSemantics(t *testing.T) {
	db := mustOpen(t, Config{})
	loadTwoRelations(t, db, 100)
	q, err := db.NewQuery("left", "right", Sum, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoISL); err != nil {
		t.Fatal(err)
	}
	res, err := db.TopK(q, AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NextPageToken == "" {
		t.Fatal("full page came back without a NextPageToken")
	}

	// Wrong algorithm for the token.
	if _, err := db.TopK(q, AlgoBFHM, &QueryOptions{PageToken: res.NextPageToken}); err == nil {
		t.Error("resume with mismatched algorithm succeeded")
	}
	// The failed resume consumed the token (single-use).
	if _, err := db.TopK(q, AlgoISL, &QueryOptions{PageToken: res.NextPageToken}); err == nil {
		t.Error("token survived a failed resume (want single-use)")
	}
	// Unknown token.
	if _, err := db.TopK(q, AlgoISL, &QueryOptions{PageToken: "pt-bogus"}); err == nil {
		t.Error("resume with unknown token succeeded")
	}

	// A fresh run's token resumes fine and rotates.
	res, err = db.TopK(q, AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := db.TopK(q, AlgoISL, &QueryOptions{PageToken: res.NextPageToken})
	if err != nil {
		t.Fatal(err)
	}
	if res2.NextPageToken == res.NextPageToken {
		t.Error("page token not rotated")
	}
	if res2.Algorithm != "isl" {
		t.Errorf("resumed page algorithm = %q", res2.Algorithm)
	}
}

// TestStreamN: a stream over a star query must match its TopK
// prefixes.
func TestStreamN(t *testing.T) {
	db := mustOpen(t, Config{})
	loadTwoRelations(t, db, 80)
	mq, err := db.NewTreeQuery([]string{"left", "right"}, starEdges(2), Sum, 4)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := db.TopK(mq.WithK(12), AlgoNaive, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.Stream(mq, AlgoNaive, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []JoinResult
	for len(got) < 12 && rows.Next() {
		got = append(got, rows.Result())
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if len(got) != len(batch.Results) {
		t.Fatalf("stream yielded %d, batch %d", len(got), len(batch.Results))
	}
	for i := range got {
		if got[i].Score != batch.Results[i].Score {
			t.Fatalf("stream score[%d] = %.4f, batch %.4f", i, got[i].Score, batch.Results[i].Score)
		}
	}
	if _, err := db.Stream(mq, AlgoBFHM, nil); err == nil {
		t.Error("Stream accepted an algorithm whose index was never built")
	}
}

// TestStarISLPaging: ISL on a 3-relation star enumerates natively, as
// its planner flag says. Page 2 by token bills fewer read units than
// page 1 and than a from-scratch run at twice the depth — together the
// two pages read exactly what that run reads — the pages concatenate to
// the batch result, and a Stream closed after one row stops billing.
func TestStarISLPaging(t *testing.T) {
	db := mustOpen(t, Config{})
	rng := rand.New(rand.NewSource(17))
	names := []string{"sa", "sb", "sc"}
	for _, name := range names {
		h, err := db.DefineRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		var tuples []Tuple
		for i := 0; i < 600; i++ {
			tuples = append(tuples, Tuple{
				RowKey:    fmt.Sprintf("%s%04d", name, i),
				JoinValue: fmt.Sprintf("j%d", rng.Intn(40)),
				Score:     float64(rng.Intn(1000)) / 1000,
			})
		}
		if err := h.BulkLoad(tuples); err != nil {
			t.Fatal(err)
		}
	}
	const k = 10
	q, err := db.NewTreeQuery(names, starEdges(len(names)), Sum, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoISL); err != nil {
		t.Fatal(err)
	}
	page1, err := db.TopK(q, AlgoISL, &QueryOptions{ISLBatch: 10})
	if err != nil {
		t.Fatal(err)
	}
	page2, err := db.TopK(q, AlgoISL, &QueryOptions{ISLBatch: 10, PageToken: page1.NextPageToken})
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := db.TopK(q.WithK(2*k), AlgoISL, &QueryOptions{ISLBatch: 10})
	if err != nil {
		t.Fatal(err)
	}
	r1, r2, r12 := page1.Cost.KVReads, page2.Cost.KVReads, scratch.Cost.KVReads
	if r2 >= r1 || r2 >= r12 || r1+r2 != r12 {
		t.Errorf("read units: page 1 = %d, page 2 = %d, from scratch at 2k = %d; want page 2 the cheapest and the pages summing to the scratch run", r1, r2, r12)
	}
	if paged := append(page1.Results, page2.Results...); !reflect.DeepEqual(paged, scratch.Results) {
		t.Errorf("pages do not concatenate to the batch result:\n paged %+v\n batch %+v", paged, scratch.Results)
	}
	naive, err := db.TopK(q.WithK(2*k), AlgoNaive, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scratch.Results, naive.Results) {
		t.Errorf("isl and naive disagree:\n isl   %+v\n naive %+v", scratch.Results, naive.Results)
	}

	rows, err := db.Stream(q, AlgoISL, &QueryOptions{ISLBatch: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("stream yielded nothing: %v", rows.Err())
	}
	if first := rows.Cost().KVReads; first == 0 || first > r1 {
		t.Errorf("one streamed row billed %d read units, a page of %d billed %d", first, k, r1)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics().Snapshot()
	if rows.Next() {
		t.Error("Next returned true after Close")
	}
	if delta := db.Metrics().Snapshot().Sub(before); delta.KVReads != 0 {
		t.Errorf("closed stream consumed %d read units", delta.KVReads)
	}
}

// TestTreePagingWithTiesMatchesBatch: on a band chain whose scores are
// quantised so that most results tie, any-k pages resumed through page
// tokens must concatenate to exactly the batch TopK — the row-key
// tie-break has to survive the operator being parked in the cursor
// cache between pages.
func TestTreePagingWithTiesMatchesBatch(t *testing.T) {
	db := mustOpen(t, Config{})
	rng := rand.New(rand.NewSource(17))
	names := []string{"t0", "t1", "t2"}
	for _, name := range names {
		h, err := db.DefineRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		tuples := make([]Tuple, 60)
		for i := range tuples {
			tuples[i] = Tuple{
				RowKey:    fmt.Sprintf("%s-%03d", name, i),
				JoinValue: strconv.Itoa(rng.Intn(10)),
				Score:     float64(rng.Intn(4)) / 10,
			}
		}
		if err := h.BulkLoad(tuples); err != nil {
			t.Fatal(err)
		}
	}
	edges := []TreeEdge{{A: 0, B: 1, Kind: PredBand, Band: 1}, {A: 1, B: 2, Kind: PredBand, Band: 0}}
	q, err := db.NewTreeQuery(names, edges, Sum, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoAnyK); err != nil {
		t.Fatal(err)
	}
	const page, total = 7, 70
	batch, err := db.TopK(q.WithK(total), AlgoAnyK, &QueryOptions{ISLBatch: 10})
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for i := 1; i < len(batch.Results); i++ {
		if batch.Results[i].Score == batch.Results[i-1].Score {
			ties++
		}
	}
	if len(batch.Results) != total || ties < total/2 {
		t.Fatalf("batch: %d results, %d tied with their predecessor — not a tie test", len(batch.Results), ties)
	}
	paged, _ := pageAll(t, db, q, AlgoAnyK, page, total)
	if len(paged) != len(batch.Results) {
		t.Fatalf("paged %d results, batch %d", len(paged), len(batch.Results))
	}
	for i := range paged {
		if !reflect.DeepEqual(paged[i], batch.Results[i]) {
			t.Fatalf("paged result %d = %+v, batch has %+v", i, paged[i], batch.Results[i])
		}
	}
}

// TestISLReadsFollowScoreDepth: on a 1:4 fan-out pair (every order
// joins four items, scores uniform on both sides) ISL reads each
// inverse score list only down to the score depth the k-th result's
// threshold needs — for a sum, list i down to the first score below
// S_k - max_other — not both lists to the same count. So it is billed
// what that depth holds (rounded up to the scanner's caching size) and
// returns naive's rows. Pages resumed by token concatenate to the batch
// at the batch's price, and a closed stream bills nothing further.
func TestISLReadsFollowScoreDepth(t *testing.T) {
	const orders, fanout, k, batch = 300, 4, 50, 10
	db := mustOpen(t, Config{})
	rng := rand.New(rand.NewSource(23))
	var left, right []Tuple
	for i := 0; i < orders; i++ {
		left = append(left, Tuple{RowKey: fmt.Sprintf("o%04d", i), JoinValue: strconv.Itoa(i), Score: float64(rng.Intn(1000)) / 1000})
		for j := 0; j < fanout; j++ {
			right = append(right, Tuple{RowKey: fmt.Sprintf("i%04d-%d", i, j), JoinValue: strconv.Itoa(i), Score: float64(rng.Intn(1000)) / 1000})
		}
	}
	for name, tuples := range map[string][]Tuple{"fo_orders": left, "fo_items": right} {
		h, err := db.DefineRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.BulkLoad(tuples); err != nil {
			t.Fatal(err)
		}
	}
	q, err := db.NewQuery("fo_orders", "fo_items", Sum, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoISL); err != nil {
		t.Fatal(err)
	}
	opts := &QueryOptions{ISLBatch: batch}
	isl, err := db.TopK(q, AlgoISL, opts)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := db.TopK(q, AlgoNaive, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(isl.Results) != k || !reflect.DeepEqual(isl.Results, naive.Results) {
		t.Fatalf("rows differ:\n isl   %+v\n naive %+v", isl.Results, naive.Results)
	}

	// What the score depth holds: a result scoring S_k or more takes
	// from list i a tuple scoring at least S_k - max_other, and the
	// threshold falls below S_k once each list has shown one tuple under
	// that. One read unit is one index cell (one tuple); a scan RPC
	// returns whole index rows (one per distinct score), batch at a time.
	sk := isl.Results[k-1].Score
	depthCells := func(list []Tuple, maxOther float64) uint64 {
		perScore := map[float64]int{}
		var scores []float64
		for _, tp := range list {
			if perScore[tp.Score]++; perScore[tp.Score] == 1 {
				scores = append(scores, tp.Score)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		rows := 0
		for rows < len(scores) && scores[rows] >= sk-maxOther {
			rows++
		}
		rows++ // the first row under the depth
		rows = min((rows+batch-1)/batch*batch, len(scores))
		cells := 0
		for _, s := range scores[:rows] {
			cells += perScore[s]
		}
		return uint64(cells)
	}
	maxOf := func(list []Tuple) float64 {
		m := list[0].Score
		for _, tp := range list {
			m = max(m, tp.Score)
		}
		return m
	}
	if want := depthCells(left, maxOf(right)) + depthCells(right, maxOf(left)); isl.Cost.KVReads != want {
		t.Errorf("isl billed %d read units, the score depth of the %d-th result holds %d", isl.Cost.KVReads, k, want)
	}

	paged, pagedReads := pageAll(t, db, q, AlgoISL, k/5, k)
	if !reflect.DeepEqual(paged, isl.Results) {
		t.Errorf("pages do not concatenate to the batch result:\n paged %+v\n batch %+v", paged, isl.Results)
	}
	if pagedReads != isl.Cost.KVReads {
		t.Errorf("five pages billed %d read units, the batch %d", pagedReads, isl.Cost.KVReads)
	}

	rows, err := db.Stream(q, AlgoISL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("stream yielded nothing: %v", rows.Err())
	}
	if first := rows.Cost().KVReads; first == 0 || first >= isl.Cost.KVReads {
		t.Errorf("one streamed row billed %d read units, %d rows billed %d", first, k, isl.Cost.KVReads)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics().Snapshot()
	if rows.Next() {
		t.Error("Next returned true after Close")
	}
	if delta := db.Metrics().Snapshot().Sub(before); delta.KVReads != 0 {
		t.Errorf("closed stream consumed %d read units", delta.KVReads)
	}
}
