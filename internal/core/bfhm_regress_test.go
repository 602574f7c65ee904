package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestBFHMSquaredScoreDistribution reproduces a regression found by the
// fulltext example: relevance-like scores (rel^2, concentrated near 0,
// sparse near 1) with large relation-size asymmetry made BFHM return
// fewer than k results. Guards the repair loop against aggressive
// phase-2 purging.
func TestBFHMSquaredScoreDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	posting := func(prefix string, docs, hits int) []Tuple {
		picked := map[int]bool{}
		var out []Tuple
		for len(picked) < hits {
			d := rng.Intn(docs)
			if picked[d] {
				continue
			}
			picked[d] = true
			rel := rng.Float64()
			rel = rel * rel
			out = append(out, Tuple{
				RowKey:    fmt.Sprintf("%s-d%06d", prefix, d),
				JoinValue: fmt.Sprintf("doc%06d", d),
				Score:     rel,
			})
		}
		return out
	}
	left := posting("a", 20000, 4000)
	right := posting("b", 20000, 900)

	c := newTestCluster()
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
	got, err := QueryBFHM(c, q, bfhmL, bfhmR, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleTopK(left, right, Sum, q.K)
	assertScoresEqual(t, "bfhm-squared-scores", scoresOf(got.Results), scoresOf(want))
	verifyResultsAreRealJoins(t, "bfhm-squared-scores", got.Results, Sum)
}
