package kvstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// buildMultiSegmentRegion loads a single-region table whose rows are
// dealt round-robin across nSegs flushed segments plus one live memtable
// batch, so every segment overlaps the whole key range but each row
// lives in exactly one source — the shape BFHM reverse-mapping lookups
// and ISL random gets hit in practice.
func buildMultiSegmentRegion(tb testing.TB, nSegs, rowsPerSeg int) (*Cluster, int) {
	tb.Helper()
	c := testCluster(tb)
	if _, err := c.CreateTable("t", []string{"cf"}, nil); err != nil {
		tb.Fatal(err)
	}
	total := (nSegs + 1) * rowsPerSeg
	r := mustRegion(tb, c, "t")
	for s := 0; s <= nSegs; s++ {
		for i := 0; i < rowsPerSeg; i++ {
			row := benchRowKey(i*(nSegs+1) + s)
			if err := c.Put("t", Cell{Row: row, Family: "cf", Qualifier: "v", Value: []byte("0123456789abcdef")}); err != nil {
				tb.Fatal(err)
			}
		}
		if s < nSegs {
			r.Flush()
		}
	}
	return c, total
}

func mustRegion(tb testing.TB, c *Cluster, table string) *Region {
	tb.Helper()
	regs, err := c.TableRegions(table)
	if err != nil {
		tb.Fatal(err)
	}
	return regs[0]
}

func benchRowKey(i int) string { return fmt.Sprintf("row-%08d", i) }

// benchKeys pre-renders row keys so the loop measures the store, not
// fmt.Sprintf.
func benchKeys(total int) []string {
	keys := make([]string, total)
	for i := range keys {
		keys[i] = benchRowKey(i)
	}
	return keys
}

// BenchmarkPointGet measures keyed reads of present rows against a
// region with four segments plus a live memtable.
func BenchmarkPointGet(b *testing.B) {
	c, total := buildMultiSegmentRegion(b, 4, 5000)
	keys := benchKeys(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := c.Get("t", keys[i%total])
		if err != nil || row == nil {
			b.Fatalf("get: %v %v", row, err)
		}
	}
}

// BenchmarkPointGetNoCache isolates the structural fast path — bloom
// pruning + binary search + first-live-version cutoff — with the row
// cache disabled.
func BenchmarkPointGetNoCache(b *testing.B) {
	c, total := buildMultiSegmentRegion(b, 4, 5000)
	c.SetRowCacheBytes(0)
	keys := benchKeys(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := c.Get("t", keys[i%total])
		if err != nil || row == nil {
			b.Fatalf("get: %v %v", row, err)
		}
	}
}

// BenchmarkPointGetMiss measures keyed reads of absent rows (every key
// distinct, so no cache can help); segment pruning is the only defense.
func BenchmarkPointGetMiss(b *testing.B) {
	c, _ := buildMultiSegmentRegion(b, 4, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := c.Get("t", fmt.Sprintf("zz-miss-%09d", i))
		if err != nil || row != nil {
			b.Fatalf("get: %v %v", row, err)
		}
	}
}

// BenchmarkScanMultiSegment measures a full batched scan over the same
// multi-segment region (merge + row assembly costs).
func BenchmarkScanMultiSegment(b *testing.B) {
	c, total := buildMultiSegmentRegion(b, 4, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := c.ScanAll(Scan{Table: "t", Caching: 1000})
		if err != nil || len(rows) != total {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

// BenchmarkMergedIterDrain drains a k-way merge across eight segment
// iterators — the raw cost of the LSM merge machinery.
func BenchmarkMergedIterDrain(b *testing.B) {
	const nSegs, perSeg = 8, 4000
	segs := make([]*segment, nSegs)
	for s := 0; s < nSegs; s++ {
		var keys []string
		var cells []*Cell
		for i := 0; i < perSeg; i++ {
			c := &Cell{Row: benchRowKey(i*nSegs + s), Family: "cf", Qualifier: "v", Value: []byte("x"), Timestamp: 1}
			keys = append(keys, cellKey(c.Row, c.Family, c.Qualifier, c.Timestamp, uint64(i*nSegs+s)))
			cells = append(cells, c)
		}
		segs[s] = segmentFromCells(keys, cells)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iters := make([]cellIter, nSegs)
		for j, s := range segs {
			iters[j] = s.iterator("")
		}
		m := newMergedIter(iters...)
		n := 0
		for m.valid() {
			_ = m.key()
			_ = m.cell()
			m.next()
			n++
		}
		if n != nSegs*perSeg {
			b.Fatalf("drained %d", n)
		}
	}
}

// BenchmarkSustainedLoad measures write throughput under frequent
// flushes — the compaction policy dominates: merging everything on every
// flush is quadratic in data size, tiered merges are not.
func BenchmarkSustainedLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := testCluster(b)
		if _, err := c.CreateTable("t", []string{"cf"}, nil); err != nil {
			b.Fatal(err)
		}
		r := mustRegion(b, c, "t")
		r.mu.Lock()
		r.flushThreshold = 32 << 10 // force frequent flushes
		r.mu.Unlock()
		b.StartTimer()
		for j := 0; j < 20000; j++ {
			if err := c.Put("t", Cell{Row: benchRowKey(j), Family: "cf", Qualifier: "v", Value: []byte("0123456789abcdef")}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// buildTwoFamilyRegion loads a single-region table with families "list"
// (one cell per row) and "sibling" (siblingCols cells per row, possibly
// none), each round of rows flushed into its own run and the last left
// in the memtable — the ISL shape: two relations' score lists in one
// table, one family each, one much longer than the other.
func buildTwoFamilyRegion(tb testing.TB, rows, siblingCols int) (*Cluster, []string) {
	tb.Helper()
	c := testCluster(tb)
	if _, err := c.CreateTable("t", []string{"list", "sibling"}, nil); err != nil {
		tb.Fatal(err)
	}
	const rounds = 3
	r := mustRegion(tb, c, "t")
	keys := benchKeys(rows)
	for round := 0; round < rounds; round++ {
		for i := round; i < rows; i += rounds {
			cells := []Cell{{Row: keys[i], Family: "list", Qualifier: "v", Value: []byte("0123456789abcdef")}}
			for q := 0; q < siblingCols; q++ {
				cells = append(cells, Cell{Row: keys[i], Family: "sibling", Qualifier: fmt.Sprintf("q%02d", q), Value: []byte("0123456789abcdef")})
			}
			if err := c.GroupWrite([]TableMutation{{Table: "t", Cells: cells}}); err != nil {
				tb.Fatal(err)
			}
		}
		if round < rounds-1 {
			if err := r.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return c, keys
}

// BenchmarkScanOneFamily scans family "list" alone, with and without a
// 30x larger sibling family in the same rows. Each family has its own
// store, so ns/op must not depend on the sibling's size.
func BenchmarkScanOneFamily(b *testing.B) {
	for _, siblingCols := range []int{0, 30} {
		b.Run(fmt.Sprintf("sibling%dx", siblingCols), func(b *testing.B) {
			const rows = 3000
			c, _ := buildTwoFamilyRegion(b, rows, siblingCols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := c.ScanAll(Scan{Table: "t", Families: []string{"list"}, Caching: 1000})
				if err != nil || len(got) != rows {
					b.Fatalf("rows=%d err=%v", len(got), err)
				}
			}
		})
	}
}

// BenchmarkGetOneFamily is the keyed twin: family-restricted gets (which
// bypass the row cache) beside a 30x larger sibling family.
func BenchmarkGetOneFamily(b *testing.B) {
	c, keys := buildTwoFamilyRegion(b, 3000, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := c.Get("t", keys[i%len(keys)], "list")
		if err != nil || row == nil || len(row.Cells) != 1 {
			b.Fatalf("get: %v %v", row, err)
		}
	}
}

// BenchmarkMemtablePut measures one insert into a memtable that already
// holds 50,000 cells (rows arrive in scattered order, as index
// maintenance writes do).
func BenchmarkMemtablePut(b *testing.B) {
	const resident = 50000
	value := []byte("0123456789abcdef")
	c := Cell{Family: "cf", Qualifier: "v", Value: value, Timestamp: 1}
	var m *memtable
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%resident == 0 { // start over rather than grow without bound
			b.StopTimer()
			m = newMemtable(1)
			for j := 0; j < resident; j++ {
				c.Row = benchRowKey(j * 2)
				m.put(cellKey(c.Row, c.Family, c.Qualifier, c.Timestamp, uint64(j)), &c)
			}
			b.StartTimer()
		}
		c.Row = benchRowKey((i*7919%resident)*2 + 1)
		m.put(cellKey(c.Row, c.Family, c.Qualifier, c.Timestamp, uint64(resident+i)), &c)
	}
}

// loadResidentRegion loads one-cell rows into a single-region table
// with a flush threshold no load reaches: the first flushed cells are
// flushed into one run, the next unflushed stay in the memtable. Keys
// go in ascending order, or with shuffled in a seeded random order, the
// order an index build writes a score list in.
func loadResidentRegion(tb testing.TB, flushed, unflushed int, shuffled bool) *Cluster {
	tb.Helper()
	c := testCluster(tb)
	if _, err := c.CreateTable("t", []string{"cf"}, nil); err != nil {
		tb.Fatal(err)
	}
	c.SetFlushThreshold(1 << 40)
	n := flushed + unflushed
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	if shuffled {
		keys = rand.New(rand.NewSource(1)).Perm(n)
	}
	batch := make([]Cell, 0, 1000)
	for i, k := range keys {
		batch = append(batch, Cell{Row: benchRowKey(k), Family: "cf", Qualifier: "v", Value: []byte("0123456789abcdef0123456789abcdef")})
		if len(batch) == cap(batch) || i == flushed-1 || i == n-1 {
			if err := c.BatchPut("t", batch); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
		if i == flushed-1 {
			if err := c.FlushAll(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return c
}

// BenchmarkResidentScan is a full scan of a 100,000-cell region whose
// cells are all in the memtable, or all in one flushed run: the read
// path over resident data with no merge to speak of. The plain cases
// insert in key order, which lays the memtable's nodes out in scan
// order; the shuffled cases insert in random order, as an index build
// does, so a memtable scan chases its links across the whole arena.
func BenchmarkResidentScan(b *testing.B) {
	const cells = 100000
	for _, shape := range []struct {
		name               string
		flushed, unflushed int
		shuffled           bool
	}{
		{"memtable", 0, cells, false},
		{"flushed", cells, 0, false},
		{"memtable-shuffled", 0, cells, true},
		{"flushed-shuffled", cells, 0, true},
	} {
		b.Run(shape.name, func(b *testing.B) {
			c := loadResidentRegion(b, shape.flushed, shape.unflushed, shape.shuffled)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := c.ScanAll(Scan{Table: "t", Caching: 1000})
				if err != nil || len(rows) != cells {
					b.Fatalf("rows=%d err=%v", len(rows), err)
				}
			}
		})
	}
}

// BenchmarkGCWithResidentStore reports what a store at rest costs the
// collector: the wall time of one full runtime.GC() with 500,000 cells
// resident (half in the memtable, half flushed) and nothing else going
// on.
func BenchmarkGCWithResidentStore(b *testing.B) {
	const cells = 500000
	c := loadResidentRegion(b, cells/2, cells/2, false)
	runtime.GC()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/1000/float64(b.N), "ms/gc")
	runtime.KeepAlive(c)
}
