package core

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/tpch"
)

// kthEstimateReference is kthEstimate as Algorithm 6 states it: sort
// every estimated result and accumulate, from scratch on each call.
func kthEstimateReference(est []estimatedResult, estCard float64, k int) (maxScore, minScore float64, ok bool) {
	if estCard < float64(k) {
		return 0, 0, false
	}
	sorted := append([]estimatedResult(nil), est...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].maxScore != sorted[b].maxScore {
			return sorted[a].maxScore > sorted[b].maxScore
		}
		return sorted[a].minScore > sorted[b].minScore
	})
	var acc float64
	for i := range sorted {
		acc += sorted[i].cardinality
		if acc >= float64(k) {
			return sorted[i].maxScore, sorted[i].minScore, true
		}
	}
	return 0, 0, false
}

// TestKthEstimateIncremental feeds a bfhmState batches of estimated
// results the way joinBucketAgainst does and checks the incrementally
// ordered k'th estimate against the from-scratch reference after every
// batch. Scores come from a small grid so ties on maxScore and on
// (maxScore, minScore) are common; k rises between calls as in the
// Section 5.3 repair loop, and some calls repeat with nothing appended.
func TestKthEstimateIncremental(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := &bfhmState{}
		k := 1 + rng.Intn(5)
		for batch := 0; batch < 60; batch++ {
			for n := rng.Intn(8); n > 0; n-- { // 0 included: an empty bucket join
				hi := float64(rng.Intn(6)) / 5
				er := estimatedResult{
					bucketA:     rng.Intn(100),
					bucketB:     rng.Intn(100),
					cardinality: 1 + 20*rng.Float64(),
					maxScore:    hi,
					minScore:    hi - float64(rng.Intn(3))/10,
				}
				st.est = append(st.est, er)
				st.estCard += er.cardinality
			}
			for _, kk := range []int{k, k, 1, k + 500} {
				gotMax, gotMin, gotOK := st.kthEstimate(kk)
				wantMax, wantMin, wantOK := kthEstimateReference(st.est, st.estCard, kk)
				if gotMax != wantMax || gotMin != wantMin || gotOK != wantOK {
					t.Fatalf("seed %d batch %d k=%d over %d results: got (%g, %g, %v), want (%g, %g, %v)",
						seed, batch, kk, len(st.est), gotMax, gotMin, gotOK, wantMax, wantMin, wantOK)
				}
			}
			if rng.Intn(3) == 0 {
				k += 1 + rng.Intn(40)
			}
		}
		if len(st.estOrder) != len(st.est) {
			t.Fatalf("seed %d: order covers %d of %d results", seed, len(st.estOrder), len(st.est))
		}
		for i := 1; i < len(st.estOrder); i++ {
			if !st.estBefore(st.estOrder[i-1], st.estOrder[i]) {
				t.Fatalf("seed %d: estOrder out of order at %d", seed, i)
			}
		}
	}
}

// BenchmarkBFHMEstimationQ1 times the estimation phase alone (Algorithm
// 6: bucket gets, blob decode, Algorithm 7 joins, k'th-estimate checks)
// for TPC-H Q1, part ⋈ lineitem on partkey with a product score, k=100,
// at the repository benchmark's scale factor 0.01, in memory. No reverse
// mappings are fetched. cold runs every iteration through index values
// that have decoded nothing (every blob decoded, every pair intersected);
// warm repeats the query on one pair of index values; warm-after-write
// applies one maintained insert to part between iterations, so one
// bucket is decoded again and its pairs intersected again.
func BenchmarkBFHMEstimationQ1(b *testing.B) {
	data := tpch.Generate(0.01, 1)
	var part, lineitem []Tuple
	for i := range data.Parts {
		r := &data.Parts[i]
		part = append(part, Tuple{RowKey: tpch.RowKeyPart(r.PartKey), JoinValue: strconv.Itoa(r.PartKey), Score: r.Score})
	}
	for i := range data.Lineitems {
		r := &data.Lineitems[i]
		lineitem = append(lineitem, Tuple{RowKey: tpch.RowKeyLineitem(r.OrderKey, r.LineNumber), JoinValue: strconv.Itoa(r.PartKey), Score: r.Score})
	}
	c := newTestCluster()
	q := binaryTree(loadRelation(b, c, "part", part), loadRelation(b, c, "lineitem_pk", lineitem), Product, 100)
	idxA, _, err := BuildBFHM(c, q.Relations[0], BFHMOptions{})
	if err != nil {
		b.Fatal(err)
	}
	idxB, _, err := BuildBFHM(c, q.Relations[1], BFHMOptions{MBits: idxA.MBits})
	if err != nil {
		b.Fatal(err)
	}
	score := q.Score.pair() // one per query, like the state's other inputs
	estimate := func(b *testing.B, idxA, idxB *BFHMIndex) {
		st := &bfhmState{c: c, k: q.K, score: score, idxA: idxA, idxB: idxB}
		fetched, err := st.estimationPhase(q.K)
		if err != nil {
			b.Fatal(err)
		}
		if fetched == 0 || len(st.est) == 0 {
			b.Fatalf("estimation did nothing: %d buckets, %d pairs", fetched, len(st.est))
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			estimate(b, coldIndex(idxA), coldIndex(idxB))
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			estimate(b, idxA, idxB)
		}
	})
	b.Run("warm-after-write", func(b *testing.B) {
		m := &Maintainer{C: c, Rel: q.Relations[0], BFHM: idxA}
		// One mutation record between estimates: a tuple goes into one of
		// the leading buckets on even iterations and out again on odd
		// ones, and the records are folded into the blobs now and then, so
		// neither the filters nor the bucket rows grow with b.N. ns/op
		// includes the write; estimate-ns/op is the estimation alone.
		tuple := func(i int) Tuple {
			return Tuple{RowKey: "bench" + strconv.Itoa(i), JoinValue: strconv.Itoa(1 + i%1000), Score: 0.995 - float64(i/2%8)/100}
		}
		var estimating time.Duration
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			var err error
			if i%2 == 0 {
				ins := tuple(i)
				err = m.Write(nil, &ins, 0)
			} else {
				del := tuple(i - 1)
				err = m.Write(&del, nil, 0)
			}
			if err == nil && i%64 == 63 {
				_, err = m.WriteBackAll()
				compactTable(b, c, idxA.Table)
			}
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			estimate(b, idxA, idxB)
			estimating += time.Since(start)
		}
		b.ReportMetric(float64(estimating.Nanoseconds())/float64(b.N), "estimate-ns/op")
	})
}

// compactTable flushes a table and merges its segments, which drops the
// cell versions and tombstones that overwrites have left behind.
func compactTable(tb testing.TB, c *kvstore.Cluster, table string) {
	tb.Helper()
	regions, err := c.TableRegions(table)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range regions {
		if err := r.Flush(); err != nil {
			tb.Fatal(err)
		}
		if err := r.Compact(); err != nil {
			tb.Fatal(err)
		}
	}
}
