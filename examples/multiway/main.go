// Command multiway runs the paper's Section 1 motivating example in its
// full n-way form: "a collection of per-day search engine logs ...
// imagine we wish to find the k most popular phrases appearing in
// SEVERAL of these days. This would be formulated as a rank-join query,
// where the phrase text is the join attribute, and the total popularity
// of each phrase is computed as an aggregate over the per-day
// frequencies." Three days means a 3-way rank join.
package main

import (
	"fmt"
	"log"
	"math/rand"

	rankjoin "repro"
)

func main() {
	db, err := rankjoin.Open(rankjoin.Config{})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))

	const phrases = 2000
	days := []string{"mon", "tue", "wed"}
	for _, day := range days {
		h, err := db.DefineRelation("log_" + day)
		if err != nil {
			log.Fatal(err)
		}
		var tuples []rankjoin.Tuple
		for p := 0; p < phrases; p++ {
			// Persistent popularity with daily noise; some phrases
			// trend only on single days (they cannot win a 3-way join).
			base := 1.0 / (1.0 + float64(p)*0.01)
			freq := base * (0.4 + 0.6*rng.Float64())
			if rng.Intn(50) == 0 {
				freq = 0.9 + 0.1*rng.Float64() // one-day spike
			}
			tuples = append(tuples, rankjoin.Tuple{
				RowKey:    fmt.Sprintf("%s-p%04d", day, p),
				JoinValue: fmt.Sprintf("phrase-%04d", p),
				Score:     freq,
			})
		}
		if err := h.BulkLoad(tuples); err != nil {
			log.Fatal(err)
		}
	}

	q, err := db.NewTreeQuery([]string{"log_mon", "log_tue", "log_wed"},
		[]rankjoin.TreeEdge{{A: 0, B: 1, Kind: rankjoin.PredEqui}, {A: 0, B: 2, Kind: rankjoin.PredEqui}}, rankjoin.Sum, 10)
	if err != nil {
		log.Fatal(err)
	}
	if err := db.EnsureIndexes(q, rankjoin.AlgoISL); err != nil {
		log.Fatal(err)
	}

	res, err := db.TopK(q, rankjoin.AlgoISL, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Top-10 phrases by Mon+Tue+Wed popularity (3-way ISL rank join):\n\n")
	for i, r := range res.Results {
		fmt.Printf("%2d. %-14s total %.3f  (%.3f + %.3f + %.3f)\n",
			i+1, r.Left.JoinValue, r.Score,
			r.Left.Score, r.Right.Score, r.Rest[0].Score)
	}
	fmt.Printf("\ncost: %v, %d B network, %d KV reads ($%.2f)\n",
		res.Cost.SimTime, res.Cost.NetworkBytes, res.Cost.KVReads, res.Cost.Dollars())

	// Cross-check with the naive plan.
	naive, err := db.TopK(q, rankjoin.AlgoNaive, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive scan for comparison: %d KV reads — ISL read %.1f%% of that\n",
		naive.Cost.KVReads, 100*float64(res.Cost.KVReads)/float64(naive.Cost.KVReads))
}
