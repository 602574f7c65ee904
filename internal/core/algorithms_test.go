package core

import (
	"fmt"
	"testing"

	"repro/internal/kvstore"
)

// runAll executes every algorithm against the loaded cluster and checks
// each one's top-k scores against the in-memory oracle.
func runAll(t *testing.T, c *kvstore.Cluster, q *JoinTree, left, right []Tuple, skipMR bool) {
	t.Helper()
	want := scoresOf(oracleTopK(left, right, q.Score, q.K))
	label := func(name string) string {
		return fmt.Sprintf("%s k=%d f=%s", name, q.K, q.Score.Name)
	}

	naive, err := NaiveTopK(c, q)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, label("naive"), scoresOf(naive.Results), want)
	verifyResultsAreRealJoins(t, label("naive"), naive.Results, q.Score)

	if !skipMR {
		hive, err := QueryHive(c, q)
		if err != nil {
			t.Fatal(err)
		}
		assertScoresEqual(t, label("hive"), scoresOf(hive.Results), want)
		verifyResultsAreRealJoins(t, label("hive"), hive.Results, q.Score)

		pig, err := QueryPig(c, q)
		if err != nil {
			t.Fatal(err)
		}
		assertScoresEqual(t, label("pig"), scoresOf(pig.Results), want)
		verifyResultsAreRealJoins(t, label("pig"), pig.Results, q.Score)
	}

	ijlmrIdx, _, err := BuildIJLMR(c, q)
	if err != nil {
		t.Fatal(err)
	}
	ijlmr, err := QueryIJLMR(c, q, ijlmrIdx)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, label("ijlmr"), scoresOf(ijlmr.Results), want)
	verifyResultsAreRealJoins(t, label("ijlmr"), ijlmr.Results, q.Score)

	lists, err := buildLists(c, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 7, 100} {
		isl, err := queryISL(c, q, lists, ExecOptions{ISLBatch: batch})
		if err != nil {
			t.Fatal(err)
		}
		assertScoresEqual(t, label(fmt.Sprintf("isl/batch%d", batch)), scoresOf(isl.Results), want)
		verifyResultsAreRealJoins(t, label("isl"), isl.Results, q.Score)
	}

	for _, buckets := range []int{4, 16} {
		bfhmA, _, err := BuildBFHM(c, q.Relations[0], BFHMOptions{NumBuckets: buckets, FPP: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		bfhmB, _, err := BuildBFHM(c, q.Relations[1], BFHMOptions{NumBuckets: buckets, FPP: 0.05, MBits: bfhmA.MBits})
		if err != nil {
			t.Fatal(err)
		}
		bfhm, err := QueryBFHM(c, q, bfhmA, bfhmB, 0)
		if err != nil {
			t.Fatal(err)
		}
		lbl := label(fmt.Sprintf("bfhm/%db", buckets))
		assertScoresEqual(t, lbl, scoresOf(bfhm.Results), want)
		verifyResultsAreRealJoins(t, lbl, bfhm.Results, q.Score)
		if err := c.DropTable(bfhmA.Table); err != nil {
			t.Fatal(err)
		}
		if err := c.DropTable(bfhmB.Table); err != nil {
			t.Fatal(err)
		}
	}

	drjnA, _, err := BuildDRJN(c, q.Relations[0], DRJNOptions{NumBuckets: 8, JoinParts: 16})
	if err != nil {
		t.Fatal(err)
	}
	drjnB, _, err := BuildDRJN(c, q.Relations[1], DRJNOptions{NumBuckets: 8, JoinParts: 16})
	if err != nil {
		t.Fatal(err)
	}
	drjn, err := RunCursor(c, q.K, func() (Cursor, error) { return OpenDRJN(c, q, drjnA, drjnB) })
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, label("drjn"), scoresOf(drjn.Results), want)
	verifyResultsAreRealJoins(t, label("drjn"), drjn.Results, q.Score)

	// Clean up the index tables so runAll can be re-invoked.
	tables := []string{ijlmrIdx.Table, drjnA.Table, drjnB.Table}
	lists.ISL.Each(func(_ string, idx *ISLIndex) { tables = append(tables, idx.Table) })
	for _, tbl := range tables {
		if err := c.DropTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllAlgorithmsPaperExample(t *testing.T) {
	c := newTestCluster(t)
	relL := loadRelation(t, c, "R1", paperR1)
	relR := loadRelation(t, c, "R2", paperR2)
	for _, k := range []int{1, 3, 5, 100} {
		runAll(t, c, paperQuery(relL, relR, k), paperR1, paperR2, false)
	}
}

func TestAllAlgorithmsRandomWorkloads(t *testing.T) {
	configs := []struct {
		n, joinCard int
		dist        string
		f           ScoreFunc
	}{
		{200, 20, "uniform", Sum},
		{200, 20, "uniform", Product},
		{300, 60, "zipfish", Sum},
		{150, 5, "uniform", Sum},       // heavy fan-out joins
		{250, 200, "zipfish", Product}, // sparse joins
		{300, 400, "squared", Sum},     // sparse joins, low-concentrated scores
	}
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("cfg%d_%s_%s", ci, cfg.dist, cfg.f.Name), func(t *testing.T) {
			c := newTestCluster(t)
			left := synthTuples("l", cfg.n, cfg.joinCard, cfg.dist, int64(ci*17+1))
			right := synthTuples("r", cfg.n, cfg.joinCard, cfg.dist, int64(ci*31+2))
			relL := loadRelation(t, c, "L", left)
			relR := loadRelation(t, c, "R", right)
			for _, k := range []int{1, 10, 50} {
				q := binaryTree(relL, relR, cfg.f, k)
				runAll(t, c, q, left, right, k != 10) // MR baselines once per config
			}
		})
	}
}

// TestBFHMRecallUnderCollisions forces tiny Bloom filters (massive false
// positive rates) and verifies the Section 5.3 guarantee: recall stays
// 100% regardless.
func TestBFHMRecallUnderCollisions(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := newTestCluster(t)
		left := synthTuples("l", 150, 30, "uniform", seed)
		right := synthTuples("r", 150, 30, "uniform", seed+100)
		relL := loadRelation(t, c, "L", left)
		relR := loadRelation(t, c, "R", right)
		q := binaryTree(relL, relR, Sum, 10)
		// MBits=8: nearly every bit is set, collisions everywhere.
		bfhmA, _, err := BuildBFHM(c, q.Relations[0], BFHMOptions{NumBuckets: 6, MBits: 8})
		if err != nil {
			t.Fatal(err)
		}
		bfhmB, _, err := BuildBFHM(c, q.Relations[1], BFHMOptions{NumBuckets: 6, MBits: 8})
		if err != nil {
			t.Fatal(err)
		}
		got, err := QueryBFHM(c, q, bfhmA, bfhmB, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleTopK(left, right, Sum, q.K)
		assertScoresEqual(t, fmt.Sprintf("bfhm-collisions seed=%d", seed),
			scoresOf(got.Results), scoresOf(want))
		verifyResultsAreRealJoins(t, "bfhm-collisions", got.Results, Sum)
	}
}

// TestBFHMFewerResultsThanK exercises the k' < k repair path.
func TestBFHMFewerResultsThanK(t *testing.T) {
	c := newTestCluster(t)
	left := []Tuple{
		{RowKey: "l1", JoinValue: "x", Score: 0.9},
		{RowKey: "l2", JoinValue: "y", Score: 0.5},
		{RowKey: "l3", JoinValue: "zz", Score: 0.2},
	}
	right := []Tuple{
		{RowKey: "r1", JoinValue: "x", Score: 0.8},
		{RowKey: "r2", JoinValue: "y", Score: 0.1},
		{RowKey: "r3", JoinValue: "ww", Score: 0.95},
	}
	relL := loadRelation(t, c, "L", left)
	relR := loadRelation(t, c, "R", right)
	q := binaryTree(relL, relR, Sum, 10)
	bfhmA, _, err := BuildBFHM(c, q.Relations[0], BFHMOptions{NumBuckets: 10})
	if err != nil {
		t.Fatal(err)
	}
	bfhmB, _, err := BuildBFHM(c, q.Relations[1], BFHMOptions{NumBuckets: 10, MBits: bfhmA.MBits})
	if err != nil {
		t.Fatal(err)
	}
	got, err := QueryBFHM(c, q, bfhmA, bfhmB, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleTopK(left, right, Sum, q.K)
	if len(got.Results) != 2 || len(want) != 2 {
		t.Fatalf("results = %d, oracle = %d, want 2", len(got.Results), len(want))
	}
	assertScoresEqual(t, "bfhm-short", scoresOf(got.Results), scoresOf(want))
}

// TestISLIndexLayout pins the Fig. 3 index structure: keys are negated
// scores, scanning ascending keys yields descending scores, and tuples
// with equal scores share one index row.
func TestISLIndexLayout(t *testing.T) {
	c := newTestCluster(t)
	relL := loadRelation(t, c, "R1", paperR1)
	idx, _, err := BuildISLRelation(c, relL)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.ScanAll(kvstore.Scan{Table: idx.Table, Caching: 100})
	if err != nil {
		t.Fatal(err)
	}
	// First row must be the single highest score (1.00 -> {r1_10, a}).
	first := rows[0]
	s, err := kvstore.DecodeScoreDesc(first.Key)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1.00 {
		t.Fatalf("first index score = %g, want 1.00", s)
	}
	if len(first.Cells) != 1 || first.Cells[0].Qualifier != "r1_10" || string(first.Cells[0].Value) != "a" {
		t.Fatalf("first index row = %+v", first.Cells)
	}
	// The 0.82 row must hold r1_1, r1_4, r1_7 together (Fig. 3).
	found := false
	for _, r := range rows {
		sc, _ := kvstore.DecodeScoreDesc(r.Key)
		if sc == 0.82 {
			found = true
			if len(r.FamilyCells("R1")) != 3 {
				t.Fatalf("0.82 row has %d R1 entries, want 3", len(r.FamilyCells("R1")))
			}
		}
	}
	if !found {
		t.Fatal("no 0.82 index row")
	}
	// Scores must descend as keys ascend.
	prev := 2.0
	for _, r := range rows {
		sc, err := kvstore.DecodeScoreDesc(r.Key)
		if err != nil {
			t.Fatal(err)
		}
		if sc > prev {
			t.Fatalf("scores not descending: %g after %g", sc, prev)
		}
		prev = sc
	}
}

// TestIJLMRIndexLayout pins the Fig. 2 structure: one row per join
// value, entries split by relation family.
func TestIJLMRIndexLayout(t *testing.T) {
	c := newTestCluster(t)
	relL := loadRelation(t, c, "R1", paperR1)
	relR := loadRelation(t, c, "R2", paperR2)
	q := paperQuery(relL, relR, 3)
	idx, _, err := BuildIJLMR(c, q)
	if err != nil {
		t.Fatal(err)
	}
	row, err := c.Get(idx.Table, "a")
	if err != nil {
		t.Fatal(err)
	}
	if row == nil {
		t.Fatal("no index row for join value a")
	}
	// Fig. 2: a -> R1 {r1_10: 1.00, r1_5: 0.73}; R2 {r2_1, r2_7, r2_8, r2_9}.
	if got := len(row.FamilyCells("R1")); got != 2 {
		t.Errorf("R1 entries for a = %d, want 2", got)
	}
	if got := len(row.FamilyCells("R2")); got != 4 {
		t.Errorf("R2 entries for a = %d, want 4", got)
	}
	cell := row.Cell("R1", "r1_10")
	if cell == nil {
		t.Fatal("missing entry r1_10")
	}
	if s, _ := kvstore.ParseFloatValue(cell.Value); s != 1.00 {
		t.Errorf("score of r1_10 = %g", s)
	}
}

// TestDeterministicResults ensures two identical runs return identical
// result sets (ordering included).
func TestDeterministicResults(t *testing.T) {
	run := func() []JoinResult {
		c := newTestCluster(t)
		left := synthTuples("l", 200, 25, "uniform", 7)
		right := synthTuples("r", 200, 25, "uniform", 8)
		relL := loadRelation(t, c, "L", left)
		relR := loadRelation(t, c, "R", right)
		q := binaryTree(relL, relR, Sum, 20)
		bfhmA, _, err := BuildBFHM(c, q.Relations[0], BFHMOptions{NumBuckets: 10})
		if err != nil {
			t.Fatal(err)
		}
		bfhmB, _, err := BuildBFHM(c, q.Relations[1], BFHMOptions{NumBuckets: 10, MBits: bfhmA.MBits})
		if err != nil {
			t.Fatal(err)
		}
		res, err := QueryBFHM(c, q, bfhmA, bfhmB, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Results
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("two identical BFHM runs differ")
	}
}
