package core

import (
	"testing"

	"repro/internal/kvstore"
)

// parallelEnv loads a synthetic pair of relations big enough that the
// BFHM reverse-mapping phase needs many multi-get batches and ISL pulls
// many scan batches.
func parallelEnv(t *testing.T) (*kvstore.Cluster, *JoinTree, []Tuple, []Tuple) {
	t.Helper()
	c := newTestCluster(t)
	lt := synthTuples("l", 4000, 400, "uniform", 11)
	rt := synthTuples("r", 4000, 400, "uniform", 23)
	relL := loadRelation(t, c, "pl", lt)
	relR := loadRelation(t, c, "pr", rt)
	return c, binaryTree(relL, relR, Sum, 100), lt, rt
}

func TestBFHMParallelReverseFetch(t *testing.T) {
	c, q, lt, rt := parallelEnv(t)
	idxA, _, err := BuildBFHM(c, q.Relations[0], BFHMOptions{NumBuckets: 100})
	if err != nil {
		t.Fatal(err)
	}
	idxB, _, err := BuildBFHM(c, q.Relations[1], BFHMOptions{NumBuckets: 100, MBits: idxA.MBits})
	if err != nil {
		t.Fatal(err)
	}

	seq, err := QueryBFHM(c, q, idxA, idxB, 0)
	if err != nil {
		t.Fatal(err)
	}
	par, err := QueryBFHM(c, q, idxA, idxB, 4)
	if err != nil {
		t.Fatal(err)
	}

	want := scoresOf(oracleTopK(lt, rt, q.Score, q.K))
	assertScoresEqual(t, "bfhm sequential", scoresOf(seq.Results), want)
	assertScoresEqual(t, "bfhm parallel", scoresOf(par.Results), want)
	verifyResultsAreRealJoins(t, "bfhm parallel", par.Results, q.Score)

	// Same rows fetched either way.
	if par.Cost.KVReads != seq.Cost.KVReads {
		t.Errorf("parallel read units %d != sequential %d", par.Cost.KVReads, seq.Cost.KVReads)
	}
	// Fan-out must beat the strictly sequential reverse fetch.
	if par.Cost.SimTime >= seq.Cost.SimTime {
		t.Errorf("parallel BFHM time %v not below sequential %v", par.Cost.SimTime, seq.Cost.SimTime)
	}
}

func TestISLParallelRefill(t *testing.T) {
	c, q, lt, rt := parallelEnv(t)
	idx, err := buildLists(c, q)
	if err != nil {
		t.Fatal(err)
	}

	seq, err := queryISL(c, q, idx, ExecOptions{ISLBatch: 40})
	if err != nil {
		t.Fatal(err)
	}
	par, err := queryISL(c, q, idx, ExecOptions{ISLBatch: 40, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}

	want := scoresOf(oracleTopK(lt, rt, q.Score, q.K))
	assertScoresEqual(t, "isl sequential", scoresOf(seq.Results), want)
	assertScoresEqual(t, "isl parallel", scoresOf(par.Results), want)

	// The two streams' round trips overlap: turnaround drops.
	if par.Cost.SimTime >= seq.Cost.SimTime {
		t.Errorf("parallel ISL time %v not below sequential %v", par.Cost.SimTime, seq.Cost.SimTime)
	}
}
