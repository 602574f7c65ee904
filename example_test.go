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

// ExampleRelationHandle_Insert runs the README's maintained-writes
// snippet, each write followed by the query's top result. The BFHM
// index is built once, before the writes, and sees every write without
// a rebuild: an upsert over an existing key, an Update of a missing key
// (refused), a DeleteKey of an absent key (a no-op), a DeleteKey of a
// present one, and a BatchInsert.
func ExampleRelationHandle_Insert() {
	db, err := rankjoin.Open(rankjoin.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	docs, _ := db.DefineRelation("docs")
	imgs, _ := db.DefineRelation("imgs")
	docs.BulkLoad([]rankjoin.Tuple{{RowKey: "d1", JoinValue: "apple", Score: 0.5}, {RowKey: "d9", JoinValue: "pear", Score: 0.2}})
	imgs.BulkLoad([]rankjoin.Tuple{{RowKey: "i7", JoinValue: "apple", Score: 0.8}, {RowKey: "i3", JoinValue: "pear", Score: 0.6}})
	q, _ := db.NewQuery("docs", "imgs", rankjoin.Sum, 1)
	if err := db.EnsureIndexes(q, rankjoin.AlgoBFHM); err != nil {
		log.Fatal(err)
	}
	top := func(step string, err error) {
		res, qerr := db.TopK(q, rankjoin.AlgoBFHM, nil)
		if qerr != nil {
			log.Fatal(qerr)
		}
		r := res.Results[0]
		fmt.Printf("%-14s err=%v\n  top: %s %s %.1f\n", step, err, r.Left.RowKey, r.Right.RowKey, r.Score)
	}
	top("Insert d9", docs.Insert("d9", "pear", 0.9)) // upsert: d9 exists, its old entries retire
	top("Update d5", docs.Update("d5", "fig", 0.5))
	top("DeleteKey d5", docs.DeleteKey("d5"))
	top("DeleteKey d9", docs.DeleteKey("d9"))
	top("BatchInsert", docs.BatchInsert([]rankjoin.Tuple{
		{RowKey: "d10", JoinValue: "apple", Score: 1.0},
		{RowKey: "d11", JoinValue: "pear", Score: 0.1},
	}))
	// Output:
	// Insert d9      err=<nil>
	//   top: d9 i3 1.5
	// Update d5      err=rankjoin: relation "docs" has no row "d5" to update
	//   top: d9 i3 1.5
	// DeleteKey d5   err=<nil>
	//   top: d9 i3 1.5
	// DeleteKey d9   err=<nil>
	//   top: d1 i7 1.3
	// BatchInsert    err=<nil>
	//   top: d10 i7 1.8
}
