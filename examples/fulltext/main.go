// Command fulltext runs the paper's second motivating workload
// (Section 1): full-text search over per-keyword posting lists. Each
// posting list — one NoSQL table per keyword, as the paper argues is the
// natural layout for gigabyte-scale lists — holds (document id,
// relevance) entries; finding the most relevant documents for a
// two-keyword query is a rank join on document id with the aggregate
// relevance as the ranking function.
package main

import (
	"fmt"
	"log"
	"math/rand"

	rankjoin "repro"
)

// postingList synthesizes a keyword's posting list: each document that
// contains the keyword appears with a TF-IDF-like relevance.
func postingList(keyword string, docs, hits int, rng *rand.Rand) []rankjoin.Tuple {
	picked := map[int]bool{}
	var out []rankjoin.Tuple
	for len(picked) < hits {
		d := rng.Intn(docs)
		if picked[d] {
			continue
		}
		picked[d] = true
		// Long-tailed relevance: most matches are weak.
		rel := rng.Float64()
		rel = rel * rel
		out = append(out, rankjoin.Tuple{
			RowKey:    fmt.Sprintf("%s-d%06d", keyword, d),
			JoinValue: fmt.Sprintf("doc%06d", d),
			Score:     rel,
		})
	}
	return out
}

func main() {
	db, err := rankjoin.Open(rankjoin.Config{})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))

	const corpus = 20000 // documents in the collection
	// A slice, not a map: the lists draw from one rng in this order.
	lists := []struct {
		kw   string
		hits int
	}{
		{"database", 4000},   // common term: long posting list
		{"bloomfilter", 900}, // rarer term
	}
	for _, l := range lists {
		h, err := db.DefineRelation("postings_" + l.kw)
		if err != nil {
			log.Fatal(err)
		}
		if err := h.BulkLoad(postingList(l.kw, corpus, l.hits, rng)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded posting list %-12s: %5d entries (%d B on disk)\n",
			l.kw, l.hits, h.DiskSize())
	}

	// Query: documents most relevant to "database bloomfilter".
	q, err := db.NewQuery("postings_database", "postings_bloomfilter", rankjoin.Sum, 10)
	if err != nil {
		log.Fatal(err)
	}
	if err := db.EnsureIndexes(q, rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoIJLMR); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nTop-10 documents for \"database bloomfilter\" (%d-doc corpus):\n\n", corpus)
	res, err := db.TopK(q, rankjoin.AlgoBFHM, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range res.Results {
		fmt.Printf("%2d. %-10s relevance %.4f  (%.4f + %.4f)\n",
			i+1, r.Left.JoinValue, r.Score, r.Left.Score, r.Right.Score)
	}

	fmt.Println("\nCost comparison for the same query:")
	fmt.Printf("%-8s %-14s %-12s %-10s %s\n", "algo", "time", "net bytes", "kv reads", "dollars")
	for _, algo := range []rankjoin.Algorithm{rankjoin.AlgoIJLMR, rankjoin.AlgoISL, rankjoin.AlgoBFHM} {
		r, err := db.TopK(q, algo, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %-14v %-12d %-10d $%.2f\n",
			algo, r.Cost.SimTime, r.Cost.NetworkBytes, r.Cost.KVReads, r.Cost.Dollars())
	}
}
