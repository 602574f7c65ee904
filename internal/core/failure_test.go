package core

import (
	"fmt"
	"testing"
)

// Failure-injection tests: topology changes (region splits, moves) and
// crash recovery must not change query answers.

func TestQueriesSurviveRegionSplits(t *testing.T) {
	c := newTestCluster()
	left := synthTuples("l", 300, 40, "uniform", 71)
	right := synthTuples("r", 300, 40, "uniform", 72)
	relL := loadRelation(t, c, "L", left)
	relR := loadRelation(t, c, "R", right)
	q := binaryTree(relL, relR, Sum, 15)

	islIdx, _, err := BuildISL(c, q)
	if err != nil {
		t.Fatal(err)
	}
	bfhmL, _, err := BuildBFHM(c, relL, BFHMOptions{NumBuckets: 10})
	if err != nil {
		t.Fatal(err)
	}
	bfhmR, _, err := BuildBFHM(c, relR, BFHMOptions{NumBuckets: 10, MBits: bfhmL.MBits})
	if err != nil {
		t.Fatal(err)
	}

	// Split base tables and index tables, several times.
	for _, tbl := range []string{relL.Table, relR.Table, islIdx.Table, bfhmL.Table, bfhmR.Table} {
		if err := c.SplitRegion(tbl, ""); err != nil {
			t.Fatalf("split %s: %v", tbl, err)
		}
		if err := c.SplitRegion(tbl, ""); err != nil {
			t.Fatalf("second split %s: %v", tbl, err)
		}
	}

	want := scoresOf(oracleTopK(left, right, Sum, q.K))
	isl, err := queryISL(c, q, islIdx, ExecOptions{ISLBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, "isl-after-splits", scoresOf(isl.Results), want)
	bf, err := QueryBFHM(c, q, bfhmL, bfhmR, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, "bfhm-after-splits", scoresOf(bf.Results), want)
	nv, err := NaiveTopK(c, q)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, "naive-after-splits", scoresOf(nv.Results), want)
}

func TestQueriesSurviveRegionMoves(t *testing.T) {
	c := newTestCluster()
	left := synthTuples("l", 200, 30, "uniform", 81)
	right := synthTuples("r", 200, 30, "uniform", 82)
	relL := loadRelation(t, c, "L", left)
	relR := loadRelation(t, c, "R", right)
	q := binaryTree(relL, relR, Product, 10)
	ijlmrIdx, _, err := BuildIJLMR(c, q)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffle every region to a different node; MR locality changes but
	// results must not.
	for _, tbl := range []string{relL.Table, relR.Table, ijlmrIdx.Table} {
		regs, err := c.TableRegions(tbl)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range regs {
			row := r.StartKey()
			if row == "" {
				row = "\x01"
			}
			if err := c.MoveRegion(tbl, row, (r.Node()+i+1)%c.Nodes()); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := scoresOf(oracleTopK(left, right, Product, q.K))
	res, err := QueryIJLMR(c, q, ijlmrIdx)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, "ijlmr-after-moves", scoresOf(res.Results), want)
}

func TestSplitDuringMaintenanceWorkload(t *testing.T) {
	s := newMaintSetup(t, 91)
	// Interleave splits with online updates.
	for i := 0; i < 20; i++ {
		s.insertLeft(t, Tuple{
			RowKey:    fmt.Sprintf("lsp%03d", i),
			JoinValue: fmt.Sprintf("j%d", i%20),
			Score:     float64((i*97)%1000) / 1000,
		})
		if i == 7 {
			if err := s.c.SplitRegion(s.q.Relations[0].Table, ""); err != nil {
				t.Fatal(err)
			}
		}
		if i == 13 {
			if err := s.c.SplitRegion(s.bfhmL.Table, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.checkAll(t)
	// The offline pass rewrites bucket rows of the split index table.
	s.writeBackAll(t)
	s.checkAll(t)
}
