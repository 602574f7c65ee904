package rankjoin

import (
	"fmt"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/sim"
)

// TestReadCostRepeatsOnDisk: on a disk-backed store, where a read bills
// a seek per SSTable block it misses in the shared block cache, the same
// read-only sequence run twice from empty caches bills the same
// sim.Snapshot op for op. Every op runs at Parallelism 2, so the list
// executors read ahead on every leaf and BFHM's reverse mapping goes
// through ParallelMultiGet lanes; the block cache is far smaller than
// the index, so the order blocks are admitted in decides what each later
// read misses.
func TestReadCostRepeatsOnDisk(t *testing.T) {
	db, err := OpenAt(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadTwoRelations(t, db, 1500)
	q, err := db.NewQuery("left", "right", Sum, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoISL, AlgoBFHM, AlgoAnyK); err != nil {
		t.Fatal(err)
	}
	if err := db.cluster.FlushAll(); err != nil {
		t.Fatal(err)
	}
	const blockCache = 16 << 10
	if size := db.IndexDiskSize(q, AlgoISL); size < 8*blockCache {
		t.Fatalf("ISL index is %d bytes; want it far above the %d-byte block cache", size, blockCache)
	}

	type op struct {
		name string
		run  func(opts QueryOptions) error
	}
	topK := func(algo Algorithm, k int) op {
		return op{fmt.Sprintf("%s k=%d", algo, k), func(opts QueryOptions) error {
			_, err := db.TopK(q.WithK(k), algo, &opts)
			return err
		}}
	}
	ops := []op{
		topK(AlgoISL, 1), topK(AlgoISL, 10), topK(AlgoISL, 100), topK(AlgoBFHM, 10),
		{"anyk stream closed after 3 rows", func(opts QueryOptions) error {
			rows, err := db.Stream(q, AlgoAnyK, &opts)
			if err != nil {
				return err
			}
			for i := 0; i < 3 && rows.Next(); i++ {
			}
			if err := rows.Err(); err != nil {
				return err
			}
			return rows.Close()
		}},
		{"isl page resume", func(opts QueryOptions) error {
			first, err := db.TopK(q, AlgoISL, &opts)
			if err != nil {
				return err
			}
			if first.NextPageToken == "" {
				return fmt.Errorf("first page returned no page token")
			}
			opts.PageToken = first.NextPageToken
			_, err = db.TopK(q, AlgoISL, &opts)
			return err
		}},
	}
	pass := func() []sim.Snapshot {
		db.cluster.SetBlockCacheBytes(0)
		db.cluster.SetRowCacheBytes(0)
		db.cluster.SetBlockCacheBytes(blockCache)
		db.cluster.SetRowCacheBytes(kvstore.DefaultRowCacheBytes)
		costs := make([]sim.Snapshot, len(ops))
		for i, o := range ops {
			before := db.Metrics().Snapshot()
			if err := o.run(QueryOptions{Parallelism: 2}); err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			costs[i] = db.Metrics().Snapshot().Sub(before)
		}
		return costs
	}
	first, second := pass(), pass()
	for i, o := range ops {
		if first[i] != second[i] {
			t.Errorf("%s: cost moved between identical passes\nfirst  %+v\nsecond %+v", o.name, first[i], second[i])
		}
	}
}
