package kvstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// keptCell is what a consumer keeps of a scanned cell once the row it
// came in has been recycled: the strings and the Value, all views.
type keptCell struct {
	row, qual string
	value     []byte
}

// loadReuseTable writes ~1,000 rows of one to three cells each to a
// table split into three regions, flushing half way (in disk mode,
// into SSTables), and returns every cell in scan order.
func loadReuseTable(t *testing.T, c *Cluster) []keptCell {
	t.Helper()
	mustCreate(t, c, "t", []string{"cf"}, []string{"r0333", "r0666"})
	rng := rand.New(rand.NewSource(7))
	var want []keptCell
	var batch []Cell
	for i := 0; i < 1000; i++ {
		row := fmt.Sprintf("r%04d", i)
		for q := 0; q < 1+rng.Intn(3); q++ {
			qual := fmt.Sprintf("q%d", q)
			value := []byte(fmt.Sprintf("%s/%s=%d", row, qual, rng.Int63()))
			batch = append(batch, Cell{Row: row, Family: "cf", Qualifier: qual, Value: value})
			want = append(want, keptCell{row, qual, value})
		}
		if i == 500 {
			if err := c.BatchPut("t", batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.BatchPut("t", batch); err != nil {
		t.Fatal(err)
	}
	return want
}

func requireKept(t *testing.T, what string, got, want []keptCell) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: kept %d cells, wrote %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].row != want[i].row || got[i].qual != want[i].qual || string(got[i].value) != string(want[i].value) {
			t.Fatalf("%s: cell %d is %s/%s=%q after the scan, wrote %s/%s=%q", what, i,
				got[i].row, got[i].qual, got[i].value, want[i].row, want[i].qual, want[i].value)
		}
	}
}

// TestScannerBatchReuse: a scanner recycles its row block batch by
// batch, and that must never change what a consumer kept. The cells'
// strings and Values are views into the store, so every one kept while
// draining with Next still reads as written after the scan has reused
// the block many times over — at every batch size, with and without
// read-ahead billing. Rows from ScanAll
// are detached: a second scanner draining the same table leaves them
// as they were.
func TestScannerBatchReuse(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			c := testCluster(t)
			if disk {
				c = openDiskCluster(t, t.TempDir())
			}
			defer c.Close()
			want := loadReuseTable(t, c)

			for _, caching := range []int{1, 3, 100, 1000} {
				for _, prefetch := range []bool{false, true} {
					what := fmt.Sprintf("caching %d prefetch %v", caching, prefetch)
					sc, err := c.OpenScanner(Scan{Table: "t", Caching: caching, Prefetch: prefetch})
					if err != nil {
						t.Fatal(err)
					}
					var kept []keptCell
					for {
						row, err := sc.Next()
						if err != nil {
							t.Fatal(err)
						}
						if row == nil {
							break
						}
						for i := range row.Cells {
							cell := &row.Cells[i]
							kept = append(kept, keptCell{cell.Row, cell.Qualifier, cell.Value})
						}
					}
					requireKept(t, what, kept, want)
				}
			}

			all, err := c.ScanAll(Scan{Table: "t", Caching: 7, Prefetch: true})
			if err != nil {
				t.Fatal(err)
			}
			sc, err := c.OpenScanner(Scan{Table: "t", Caching: 7, Prefetch: true})
			if err != nil {
				t.Fatal(err)
			}
			for {
				row, err := sc.Next()
				if err != nil {
					t.Fatal(err)
				}
				if row == nil {
					break
				}
			}
			var kept []keptCell
			for _, row := range all {
				for _, cell := range row.Cells {
					if cell.Row != row.Key {
						t.Fatalf("ScanAll row %q holds a cell of row %q", row.Key, cell.Row)
					}
					kept = append(kept, keptCell{cell.Row, cell.Qualifier, cell.Value})
				}
			}
			requireKept(t, "ScanAll after a second scan", kept, want)
		})
	}
}

// TestScanAllocsPerBatch: draining resident rows costs a constant
// number of allocations per batch — the RPC's fixed work of seeking the
// merge and naming the next row — whatever the batch size and however
// many rows the table holds. The rows hold one cell (in the memtable or
// flushed), or two, as a relation row's join value and score do. Each
// measured run consumes exactly one batch; the first batch, which sizes
// the block, is pinned on its own. The rows are resident in a memory-mode store whatever
// KVSTORE_DISK says: a disk scan also decodes a data block every ~4 KiB,
// which the block cache then holds.
func TestScanAllocsPerBatch(t *testing.T) {
	t.Setenv("KVSTORE_DISK", "")
	first := map[string]float64{} // per shape, at 20000 rows and caching 10
	for _, rows := range []int{20000, 60000} {
		for _, shape := range []string{"memtable", "flushed", "two-cell rows"} {
			var c *Cluster
			switch shape {
			case "memtable":
				c = loadResidentRegion(t, 0, rows, false)
			case "flushed":
				c = loadResidentRegion(t, rows, 0, false)
			default:
				c = loadTwoCellRows(t, rows)
			}
			for _, caching := range []int{10, 100, 1000} {
				sc, err := c.OpenScanner(Scan{Table: "t", Caching: caching})
				if err != nil {
					t.Fatal(err)
				}
				batch := func() {
					for i := 0; i < caching; i++ {
						if row, err := sc.Next(); err != nil || row == nil {
							t.Fatalf("row %d of a batch: %v, %v", i, row, err)
						}
					}
				}
				firstBatch := mallocs(batch)
				avg := testing.AllocsPerRun(10, batch)
				t.Logf("%s, %d rows, caching %d: %d allocations in the first batch, %.0f per batch after", shape, rows, caching, firstBatch, avg)
				// The first batch sizes the block's two arrays once, for
				// two cells a row, and starts at the table's start,
				// where every later batch builds the seek key of the row it
				// resumes at: two allocations more, one fewer.
				if want := uint64(avg) + 2 - 1; firstBatch != want {
					t.Errorf("%s, %d rows, caching %d: %d allocations in the first batch, want %d (the later batches' %.0f, plus the block's two arrays, less the seek key)",
						shape, rows, caching, firstBatch, want, avg)
				}
				if want, ok := first[shape]; !ok {
					first[shape] = avg
				} else if avg != want {
					t.Errorf("%s, %d rows, caching %d: %.0f allocations per batch, %.0f at 20000 rows and caching 10: the batch allocates per row",
						shape, rows, caching, avg, want)
				}
			}
			c.Close()
		}
	}
}

// loadTwoCellRows returns a cluster whose one-region table holds n
// flushed rows of two cells each, a join value and a score.
func loadTwoCellRows(t *testing.T, n int) *Cluster {
	t.Helper()
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	c.SetFlushThreshold(1 << 40)
	batch := make([]Cell, 0, 1000)
	for i := 0; i < n; i++ {
		row := benchRowKey(i)
		batch = append(batch,
			Cell{Row: row, Family: "cf", Qualifier: "j", Value: []byte(fmt.Sprint(i % 97))},
			Cell{Row: row, Family: "cf", Qualifier: "s", Value: FloatValue(float64(i) / float64(n))})
		if len(batch) == cap(batch) || i == n-1 {
			if err := c.BatchPut("t", batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

// mallocs reports the heap allocations one call of f makes, counted
// the way testing.AllocsPerRun counts them (GOMAXPROCS 1) but without
// its warm-up call, so a first call's one-time work shows.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
