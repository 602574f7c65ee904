package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// Operator microbenchmarks: what the any-k operator and its leaf index
// cost per tuple, apart from the store reads that feed them. Shapes
// follow the repository benchmark's chain workload (bench/workload.go):
// leaves of 4,000 rows, join values uniform integers in [0, rows), band
// edges of width 1 — about three band partners per tuple and neighbour.

const benchChainRows = 4000

// chainLeaves generates the tuples of n chain leaves, each sorted by
// descending score — the order an inverse score list delivers them in.
func chainLeaves(n, rows int) [][]Tuple {
	rng := rand.New(rand.NewSource(1))
	leaves := make([][]Tuple, n)
	for i := range leaves {
		tuples := make([]Tuple, rows)
		for j := range tuples {
			tuples[j] = Tuple{
				RowKey:    fmt.Sprintf("c%d-%06d", i, j),
				JoinValue: strconv.Itoa(rng.Intn(rows)),
				Score:     math.Round(rng.Float64()*1e6) / 1e6,
			}
		}
		sort.SliceStable(tuples, func(a, b int) bool { return tuples[a].Score > tuples[b].Score })
		leaves[i] = tuples
	}
	return leaves
}

// bandChain builds the n-leaf band chain over placeholder relations
// (the operator never touches the store).
func bandChain(n int) *JoinTree {
	t := &JoinTree{Score: Sum, K: 10}
	for i := 0; i < n; i++ {
		t.Relations = append(t.Relations, stubRel(fmt.Sprintf("c%d", i)))
		if i > 0 {
			t.Edges = append(t.Edges, TreeEdge{A: i - 1, B: i, Kind: PredBand, Band: 1})
		}
	}
	return t
}

// leafBenchTree returns the two-leaf tree of the given kind that the
// leaf-index benchmarks index and probe through: "band", an edge of
// width 1, or "equi", an equality edge over the same digit-string join
// values (TPC-H's key shape).
func leafBenchTree(kind string) *JoinTree {
	if kind == "equi" {
		return stubBinary(Sum)
	}
	return bandChain(2)
}

// BenchmarkLeafIndexAdd measures one add into a band- or equi-probed
// leaf, averaged over building the leaf from empty to the named size.
// The per-add cost must stay flat as the leaf grows.
func BenchmarkLeafIndexAdd(b *testing.B) {
	for _, kind := range []string{"band", "equi"} {
		tree := leafBenchTree(kind)
		for _, size := range []int{1 << 10, 4 << 10, 16 << 10} {
			b.Run(fmt.Sprintf("%s/%dk", kind, size>>10), func(b *testing.B) {
				tuples := chainLeaves(1, size)[0]
				b.ReportAllocs()
				b.ResetTimer()
				var li *leafIndex
				for i := 0; i < b.N; i++ {
					if i%size == 0 {
						li = newLeafIndex(tree, 1)
					}
					li.add(tuples[i%size])
				}
			})
		}
	}
}

// BenchmarkLeafIndexProbe measures one probe into a full band- or
// equi-probed leaf of the named size, from the tuples of a
// neighbouring chain leaf: join values are uniform over as many
// integers as the leaf has tuples, so a band probe finds about three
// partners and an equi probe about one at every size. The per-probe
// cost must stay flat as the leaf grows.
func BenchmarkLeafIndexProbe(b *testing.B) {
	for _, kind := range []string{"band", "equi"} {
		tree := leafBenchTree(kind)
		for _, size := range []int{1 << 10, 4 << 10, 16 << 10} {
			b.Run(fmt.Sprintf("%s/%dk", kind, size>>10), func(b *testing.B) {
				leaves := chainLeaves(2, size)
				from, li := newLeafIndex(tree, 0), newLeafIndex(tree, 1)
				for i := range leaves[0] {
					from.add(leaves[0][i])
					li.add(leaves[1][i])
				}
				var buf []int32
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = li.candidates(&tree.Edges[0], from, int32(i%size), buf[:0])
				}
			})
		}
	}
}

// BenchmarkAnyKPush measures one pushed tuple, driven as the list
// cursor drives the operator: each pull reads the leaf that bounds the
// threshold (anyKOp.bounding), a releasable check follows every push,
// and a query restarts on a fresh operator once it has released 30
// results, after releasing the finished operator's leaves. chain4 is
// the deepest read of the chain workload: it pulls about 4,800 tuples
// and parks about 1,000 combinations to release its 30; equi2 is the
// binary rank join (HRJN's case, what ISL runs on the TPC-H workloads):
// two leaves, about one equi partner per tuple, about 1,000 tuples
// pulled.
func BenchmarkAnyKPush(b *testing.B) {
	b.Run("chain4", func(b *testing.B) { benchPush(b, bandChain(4)) })
	b.Run("equi2", func(b *testing.B) { benchPush(b, stubBinary(Sum)) })
}

func benchPush(b *testing.B, tree *JoinTree) {
	const k = 30
	leaves := chainLeaves(len(tree.Relations), benchChainRows)
	b.ReportAllocs()
	b.ResetTimer()
	var run *sliceRun
	released := k
	for i := 0; i < b.N; i++ {
		if released == k {
			// The served path's listCursor.Close hands the finished
			// query's leaves back to the pools the next query draws on.
			if run != nil {
				for _, li := range run.op.join.leaves {
					li.release()
				}
			}
			run, released = newBoundingRun(tree, leaves...), 0
		}
		run.pull()
		for released < k && run.op.releasable() {
			run.op.pop()
			released++
		}
	}
}

// BenchmarkNaiveTreeTopK measures the full-scan reference on a 3-chain
// of 1,000-row leaves: scans, leaf-index builds and the enumeration of
// every assignment.
func BenchmarkNaiveTreeTopK(b *testing.B) {
	const n, rows = 3, 1000
	c := newTestCluster()
	tree := bandChain(n)
	for i, tuples := range chainLeaves(n, rows) {
		tree.Relations[i] = loadRelation(b, c, tree.Relations[i].Name, tuples)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := NaiveTreeTopK(c, tree)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Results) != tree.K {
			b.Fatalf("%d results, want %d", len(res.Results), tree.K)
		}
	}
}

// BenchmarkISLPullSkewed measures the two-way rank join to k = 100 over
// a 1:4 pair of lists under the list cursor's schedule (bounding: read
// the list that bounds the threshold) and under alternation, and reports
// what the schedule decides: tuples pulled per released result.
func BenchmarkISLPullSkewed(b *testing.B) {
	const k = 100
	short, long := skewedPair(1)
	l, r := descending(short), descending(long)
	for _, sched := range []struct {
		name string
		open func(*JoinTree, ...[]Tuple) *sliceRun
	}{{"bounding", newBoundingRun}, {"alternating", newSliceRun}} {
		b.Run(sched.name, func(b *testing.B) {
			b.ReportAllocs()
			pulled := 0
			for i := 0; i < b.N; i++ {
				run := sched.open(stubBinary(Sum), l, r)
				if got := run.take(k); len(got) != k {
					b.Fatalf("%d results, want %d", len(got), k)
				}
				pulled += run.pulled
			}
			b.ReportMetric(float64(pulled)/float64(b.N)/k, "tuples/result")
		})
	}
}
