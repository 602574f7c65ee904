package rankjoin_test

import (
	"fmt"
	"log"

	rankjoin "repro"
)

// ExampleOpen is the README and package-doc quick start, compiled and
// run: Open returns (*DB, error).
func ExampleOpen() {
	db, err := rankjoin.Open(rankjoin.Config{})
	if err != nil {
		log.Fatal(err)
	}
	docs, _ := db.DefineRelation("docs")
	imgs, _ := db.DefineRelation("imgs")
	docs.Insert("d1", "apple", 0.9)
	imgs.Insert("i7", "apple", 0.8)
	q, _ := db.NewQuery("docs", "imgs", rankjoin.Sum, 10)
	res, _ := db.TopK(q, rankjoin.AlgoAuto, nil) // planner picks the executor
	for _, r := range res.Results {
		fmt.Printf("%s %s %.1f\n", r.Left.RowKey, r.Right.RowKey, r.Score)
	}
	// Output: d1 i7 1.7
}
