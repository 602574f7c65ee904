package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// costSetup loads a moderately sized workload on an EC2-profile cluster
// and builds all indexes, returning per-algorithm query costs.
type costResults struct {
	naive, hive, pig, ijlmr, isl, bfhm, drjn sim.Snapshot
}

func measureCosts(t *testing.T, k int) costResults {
	t.Helper()
	p := sim.EC2()
	c := mustCluster(t, p)
	// Large enough that data costs dominate MR job startup — the regime
	// the paper evaluates in (its smallest dataset is 60M rows).
	left := synthTuples("l", 2000, 20, "uniform", 11)
	right := synthTuples("r", 2000, 20, "uniform", 12)
	relL := loadRelation(t, c, "L", left)
	relR := loadRelation(t, c, "R", right)
	q := binaryTree(relL, relR, Sum, k)

	ijlmrIdx, _, err := BuildIJLMR(c, q)
	if err != nil {
		t.Fatal(err)
	}
	islIdx, err := buildLists(c, q)
	if err != nil {
		t.Fatal(err)
	}
	bfhmL, _, err := BuildBFHM(c, relL, BFHMOptions{NumBuckets: 100})
	if err != nil {
		t.Fatal(err)
	}
	bfhmR, _, err := BuildBFHM(c, relR, BFHMOptions{NumBuckets: 100, MBits: bfhmL.MBits})
	if err != nil {
		t.Fatal(err)
	}
	drjnL, _, err := BuildDRJN(c, relL, DRJNOptions{NumBuckets: 100, JoinParts: 64})
	if err != nil {
		t.Fatal(err)
	}
	drjnR, _, err := BuildDRJN(c, relR, DRJNOptions{NumBuckets: 100, JoinParts: 64})
	if err != nil {
		t.Fatal(err)
	}

	var out costResults
	res, err := NaiveTopK(c, q)
	if err != nil {
		t.Fatal(err)
	}
	out.naive = res.Cost
	res, err = QueryHive(c, q)
	if err != nil {
		t.Fatal(err)
	}
	out.hive = res.Cost
	res, err = QueryPig(c, q)
	if err != nil {
		t.Fatal(err)
	}
	out.pig = res.Cost
	res, err = QueryIJLMR(c, q, ijlmrIdx)
	if err != nil {
		t.Fatal(err)
	}
	out.ijlmr = res.Cost
	res, err = queryISL(c, q, islIdx, ExecOptions{ISLBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	out.isl = res.Cost
	res, err = QueryBFHM(c, q, bfhmL, bfhmR, 0)
	if err != nil {
		t.Fatal(err)
	}
	out.bfhm = res.Cost
	res, err = RunCursor(c, q.K, func() (Cursor, error) { return OpenDRJN(c, q, drjnL, drjnR) })
	if err != nil {
		t.Fatal(err)
	}
	out.drjn = res.Cost
	return out
}

// TestCostShapes checks the paper's headline relative results
// (Section 7.2) hold in the cost model:
//
//   - query time: HIVE > PIG > IJLMR > {ISL, BFHM}; DRJN way behind
//     ISL/BFHM
//   - network: IJLMR ships only top-k lists (must beat Hive by a lot);
//     ISL and BFHM ship far less than the MR baselines
//   - dollar cost (KV reads): BFHM beats ISL; both beat the full-scan
//     approaches by orders of magnitude
func TestCostShapes(t *testing.T) {
	costs := measureCosts(t, 10)

	// ---- Query processing time (Fig. 7a/7d shape). ----
	if !(costs.hive.SimTime > costs.pig.SimTime) {
		t.Errorf("time: HIVE (%v) must exceed PIG (%v)", costs.hive.SimTime, costs.pig.SimTime)
	}
	if !(costs.pig.SimTime > costs.ijlmr.SimTime) {
		t.Errorf("time: PIG (%v) must exceed IJLMR (%v)", costs.pig.SimTime, costs.ijlmr.SimTime)
	}
	if !(costs.ijlmr.SimTime > costs.isl.SimTime) {
		t.Errorf("time: IJLMR (%v) must exceed ISL (%v)", costs.ijlmr.SimTime, costs.isl.SimTime)
	}
	if !(costs.ijlmr.SimTime > costs.bfhm.SimTime) {
		t.Errorf("time: IJLMR (%v) must exceed BFHM (%v)", costs.ijlmr.SimTime, costs.bfhm.SimTime)
	}
	if !(costs.drjn.SimTime > 5*costs.bfhm.SimTime) {
		t.Errorf("time: DRJN (%v) must trail BFHM (%v) badly", costs.drjn.SimTime, costs.bfhm.SimTime)
	}
	if !(costs.drjn.SimTime > 5*costs.isl.SimTime) {
		t.Errorf("time: DRJN (%v) must trail ISL (%v) badly", costs.drjn.SimTime, costs.isl.SimTime)
	}

	// ---- Network bandwidth (Fig. 7b/7e shape). ----
	if !(costs.hive.NetworkBytes > 10*costs.ijlmr.NetworkBytes) {
		t.Errorf("net: HIVE (%d) must dwarf IJLMR (%d)", costs.hive.NetworkBytes, costs.ijlmr.NetworkBytes)
	}
	if !(costs.naive.NetworkBytes > 10*costs.bfhm.NetworkBytes) {
		t.Errorf("net: naive (%d) must dwarf BFHM (%d)", costs.naive.NetworkBytes, costs.bfhm.NetworkBytes)
	}
	if !(costs.pig.NetworkBytes > costs.bfhm.NetworkBytes) {
		t.Errorf("net: PIG (%d) must exceed BFHM (%d)", costs.pig.NetworkBytes, costs.bfhm.NetworkBytes)
	}

	// ---- Dollar cost / KV reads (Fig. 7c/7f shape). ----
	if !(costs.bfhm.KVReads < costs.isl.KVReads) {
		t.Errorf("cost: BFHM (%d reads) must beat ISL (%d reads)", costs.bfhm.KVReads, costs.isl.KVReads)
	}
	if !(costs.isl.KVReads*5 < costs.hive.KVReads) {
		t.Errorf("cost: ISL (%d) must be far below HIVE (%d)", costs.isl.KVReads, costs.hive.KVReads)
	}
	if !(costs.bfhm.KVReads*10 < costs.drjn.KVReads) {
		t.Errorf("cost: BFHM (%d) must be orders below DRJN (%d)", costs.bfhm.KVReads, costs.drjn.KVReads)
	}
	// MapReduce approaches scan everything: dollar cost ~ input size.
	if !(costs.ijlmr.KVReads > 1000) {
		t.Errorf("cost: IJLMR reads = %d; expected full index scan", costs.ijlmr.KVReads)
	}
}

// TestISLBatchingTradeoff verifies Section 4.2.3: larger scan batches cut
// query time (fewer RPCs) but fetch more tuples (bandwidth/dollar cost).
func TestISLBatchingTradeoff(t *testing.T) {
	p := sim.EC2()
	c := mustCluster(t, p)
	left := synthTuples("l", 1000, 50, "uniform", 21)
	right := synthTuples("r", 1000, 50, "uniform", 22)
	relL := loadRelation(t, c, "L", left)
	relR := loadRelation(t, c, "R", right)
	q := binaryTree(relL, relR, Sum, 5)
	idx, err := buildLists(c, q)
	if err != nil {
		t.Fatal(err)
	}
	small, err := queryISL(c, q, idx, ExecOptions{ISLBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	large, err := queryISL(c, q, idx, ExecOptions{ISLBatch: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !(large.Cost.RPCCalls < small.Cost.RPCCalls) {
		t.Errorf("RPCs: batch=200 (%d) must be below batch=1 (%d)",
			large.Cost.RPCCalls, small.Cost.RPCCalls)
	}
	if !(large.Cost.SimTime < small.Cost.SimTime) {
		t.Errorf("time: batch=200 (%v) must beat batch=1 (%v)",
			large.Cost.SimTime, small.Cost.SimTime)
	}
	if !(large.Cost.KVReads >= small.Cost.KVReads) {
		t.Errorf("reads: batch=200 (%d) must fetch at least batch=1 (%d)",
			large.Cost.KVReads, small.Cost.KVReads)
	}
}

// TestIndexingCostShape verifies the Fig. 9 relationships: map-only
// IJLMR/ISL index builds beat BFHM's (which adds a shuffle + reduce), and
// index build + query stays at or below a PIG query (Section 7.2: "we can
// afford to build our indices just before executing a query").
func TestIndexingCostShape(t *testing.T) {
	p := sim.EC2()
	c := mustCluster(t, p)
	left := synthTuples("l", 800, 100, "uniform", 31)
	right := synthTuples("r", 800, 100, "uniform", 32)
	relL := loadRelation(t, c, "L", left)
	relR := loadRelation(t, c, "R", right)
	q := binaryTree(relL, relR, Sum, 10)

	m := c.Metrics()
	before := m.Snapshot()
	islIdx, err := buildLists(c, q)
	if err != nil {
		t.Fatal(err)
	}
	islBuild := m.Snapshot().Sub(before)

	before = m.Snapshot()
	bfhmL, _, err := BuildBFHM(c, relL, BFHMOptions{NumBuckets: 100})
	if err != nil {
		t.Fatal(err)
	}
	bfhmR, _, err := BuildBFHM(c, relR, BFHMOptions{NumBuckets: 100, MBits: bfhmL.MBits})
	if err != nil {
		t.Fatal(err)
	}
	bfhmBuild := m.Snapshot().Sub(before)

	if !(islBuild.SimTime < bfhmBuild.SimTime) {
		t.Errorf("indexing: ISL (%v) must build faster than BFHM (%v)", islBuild.SimTime, bfhmBuild.SimTime)
	}

	pig, err := QueryPig(c, q)
	if err != nil {
		t.Fatal(err)
	}
	isl, err := queryISL(c, q, islIdx, ExecOptions{ISLBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	buildPlusQuery := islBuild.SimTime + isl.Cost.SimTime
	if !(buildPlusQuery <= pig.Cost.SimTime*3/2) {
		t.Errorf("ISL build+query (%v) should be on par or below PIG query (%v)",
			buildPlusQuery, pig.Cost.SimTime)
	}
	bfhm, err := QueryBFHM(c, q, bfhmL, bfhmR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(bfhmBuild.SimTime+bfhm.Cost.SimTime <= pig.Cost.SimTime*2) {
		t.Errorf("BFHM build+query (%v) should be comparable to PIG query (%v)",
			bfhmBuild.SimTime+bfhm.Cost.SimTime, pig.Cost.SimTime)
	}
}

// TestUpdateOverheadUnder10Percent reproduces the Section 7.2 online-
// updates result for what a query still pays: replaying pending mutation
// records (queries never write back). Both runs apply the SAME update
// set, so the final data is identical. The baseline run folds the records
// into the blobs with the offline pass and major-compacts the index
// table, so its bucket rows hold one version of each cell as after a
// build; the measured run leaves the records pending and replays them
// during the query. The paper reports < 10% overall time overhead.
func TestUpdateOverheadUnder10Percent(t *testing.T) {
	mk := func(pending bool) (queryTime int64) {
		c := mustCluster(t, sim.EC2())
		left := synthTuples("l", 800, 100, "uniform", 41)
		right := synthTuples("r", 800, 100, "uniform", 42)
		relL := loadRelation(t, c, "L", left)
		relR := loadRelation(t, c, "R", right)
		q := binaryTree(relL, relR, Sum, 10)
		bfhmL, _, err := BuildBFHM(c, relL, BFHMOptions{NumBuckets: 100})
		if err != nil {
			t.Fatal(err)
		}
		bfhmR, _, err := BuildBFHM(c, relR, BFHMOptions{NumBuckets: 100, MBits: bfhmL.MBits})
		if err != nil {
			t.Fatal(err)
		}
		mnt := &Maintainer{C: c, Rel: relL, BFHM: bfhmL}
		for i := 0; i < 100; i++ {
			if err := mnt.Write(nil, &Tuple{
				RowKey:    tkey("u", i),
				JoinValue: fmt.Sprintf("j%d", i%100),
				Score:     float64(i%100) / 100,
			}, 0); err != nil {
				t.Fatal(err)
			}
		}
		if !pending {
			// Offline write-back: the query starts from clean blobs. The
			// compaction drops the versions and tombstones the pass adds,
			// which a read would otherwise examine and bill.
			if _, err := mnt.WriteBackAll(); err != nil {
				t.Fatal(err)
			}
			regions, err := c.TableRegions(bfhmL.Table)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range regions {
				if err := r.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Flush so both runs query storage-resident data, and disable the
		// block cache so every random read pays its seek (the assumption
		// behind the paper's experiment and the memory-mode cost model).
		// In disk mode a memtable-only or fully cached read measures zero
		// block fetches, which would erase the seek component of the
		// baseline and inflate the relative overhead; in memory mode both
		// calls change nothing.
		if err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
		c.SetBlockCacheBytes(0)
		res, err := QueryBFHM(c, q, bfhmL, bfhmR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost.KVWrites != 0 {
			t.Fatalf("the query billed %d KV writes", res.Cost.KVWrites)
		}
		return int64(res.Cost.SimTime)
	}
	baseline := mk(false)
	updated := mk(true)
	overhead := float64(updated-baseline) / float64(baseline)
	if overhead > 0.10 {
		t.Errorf("replay overhead = %.1f%%, paper reports < 10%%", overhead*100)
	}
	if overhead < 0 {
		t.Errorf("overhead = %.1f%%; reading pending records cannot be cheaper than not", overhead*100)
	}
	t.Logf("replay overhead: %.2f%% (baseline %v)", overhead*100, baseline)
}
