package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/sim"
)

// segmentFromCells builds an in-memory segment from parallel sorted
// key/cell slices through the run builder.
func segmentFromCells(keys []string, cells []*Cell) *segment {
	b := newRunBuilder(len(keys), 0, 0)
	for i, k := range keys {
		b.add(k, cells[i])
	}
	return newSegment(b.finish())
}

// dumpRun copies every entry of a run out of its arena.
func dumpRun(r *sortedRun) (keys []string, cells []Cell) {
	for it := (&runIter{run: r}); it.valid(); it.next() {
		keys = append(keys, it.key())
		cells = append(cells, *it.cell())
	}
	return keys, cells
}

// keyedCell is one stored version of a test data set: the reference the
// iterator tests compare against, built without the store's help.
type keyedCell struct {
	key  string
	cell Cell
}

// randomVersions generates multi-family, multi-version cells — values of
// every length from none to a few hundred bytes, tombstones, several
// versions per column — sorted by internal key.
func randomVersions(rng *rand.Rand, families []string, rows int) []keyedCell {
	var out []keyedCell
	seq := uint64(0)
	for r := 0; r < rows; r++ {
		row := fmt.Sprintf("row-%05d", rng.Intn(rows*4))
		for _, fam := range families {
			for q := 0; q < 1+rng.Intn(3); q++ {
				qual := fmt.Sprintf("q%d", q)
				if q == 2 {
					qual = "" // the store allows an empty qualifier
				}
				for v := 0; v < 1+rng.Intn(3); v++ {
					seq++
					c := Cell{Row: row, Family: fam, Qualifier: qual, Timestamp: int64(1 + rng.Intn(50))}
					switch rng.Intn(6) {
					case 0:
						c.Tombstone = true
					case 1: // zero-length value
					default:
						c.Value = make([]byte, 1+rng.Intn(200))
						rng.Read(c.Value)
					}
					out = append(out, keyedCell{cellKey(c.Row, c.Family, c.Qualifier, c.Timestamp, seq), c})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func sameCell(a, b *Cell) bool {
	return a.Row == b.Row && a.Family == b.Family && a.Qualifier == b.Qualifier &&
		a.Timestamp == b.Timestamp && a.Tombstone == b.Tombstone && bytes.Equal(a.Value, b.Value) &&
		(len(a.Value) > 0 || a.Value == nil) && (len(b.Value) > 0 || b.Value == nil)
}

// gcSurvivor returns the index of the first cell of ref[from:] a gcIter
// opened there yields: the first version it meets of a column, unless
// that version is a tombstone.
func gcSurvivor(ref []keyedCell, from int) int {
	for i := from; i < len(ref); i++ {
		c := &ref[i].cell
		firstOfColumn := i == from
		if i > from {
			p := &ref[i-1].cell
			firstOfColumn = p.Row != c.Row || p.Family != c.Family || p.Qualifier != c.Qualifier
		}
		if firstOfColumn && !c.Tombstone {
			return i
		}
	}
	return len(ref)
}

// TestCellIterViews holds every cellIter implementation to the iterator
// contract on the same data: cell() is a view valid until next(), a copy
// taken at each step stays correct after the walk has moved on, cell()
// twice without next() agrees with itself, and an iterator opened at any
// key — present, in a gap, before the first, past the last — starts
// where sort.SearchStrings puts that key in the reference.
func TestCellIterViews(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	families := []string{"fa", "fb", "fc"}
	all := randomVersions(rng, families, 1500)

	ofFamily := func(fam string) []keyedCell {
		var out []keyedCell
		for _, kc := range all {
			if kc.cell.Family == fam {
				out = append(out, kc)
			}
		}
		return out
	}
	segmentOfRef := func(ref []keyedCell) *segment {
		b := newRunBuilder(len(ref), 0, 0)
		for i := range ref {
			b.add(ref[i].key, &ref[i].cell)
		}
		return newSegment(b.finish())
	}
	memtableOfRef := func(ref []keyedCell) *memtable {
		m := newMemtable(3)
		for _, i := range rng.Perm(len(ref)) {
			m.put(ref[i].key, &ref[i].cell)
		}
		return m
	}

	type iterCase struct {
		name string
		ref  []keyedCell
		open func(start string) cellIter
		gc   bool
	}
	var cases []iterCase

	mem := memtableOfRef(all)
	cases = append(cases, iterCase{name: "memtable", ref: all, open: func(start string) cellIter { return mem.iterator(start) }})

	seg := segmentOfRef(all)
	cases = append(cases, iterCase{name: "run", ref: all, open: func(start string) cellIter { return seg.iterAt(start, nil) }})

	// An SSTable holds one family: one disk case per family, each
	// spanning more than one index block of data blocks.
	dir := t.TempDir()
	cache := newBlockCache(64 << 10) // smaller than a table: seeks evict and re-decode
	for i, fam := range families {
		ref := ofFamily(fam)
		d, err := writeSSTable(DefaultVFS(), dir, fmt.Sprintf("%06d.sst", i+1), cache, segmentOfRef(ref).iterator(""))
		if err != nil {
			t.Fatal(err)
		}
		defer d.close()
		if len(d.summary) < 2 {
			t.Fatalf("family %s fits one index block; the disk case needs more data", fam)
		}
		cases = append(cases, iterCase{name: "disk/" + fam, ref: ref, open: func(start string) cellIter { return d.iterAt(start, nil) }})
	}

	// Three sources dealt at random: a memtable and two segments.
	parts := make([][]keyedCell, 3)
	for _, kc := range all {
		p := rng.Intn(3)
		parts[p] = append(parts[p], kc)
	}
	pm, ps1, ps2 := memtableOfRef(parts[0]), segmentOfRef(parts[1]), segmentOfRef(parts[2])
	merged := func(start string) cellIter {
		return newMergedIter(pm.iterator(start), ps1.iterAt(start, nil), ps2.iterAt(start, nil))
	}
	cases = append(cases, iterCase{name: "mergedIter", ref: all, open: merged})
	cases = append(cases, iterCase{name: "gcIter", ref: all, gc: true, open: func(start string) cellIter { return newGCIter(merged(start)) }})

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			keys := make([]string, len(tc.ref))
			for i := range tc.ref {
				keys[i] = tc.ref[i].key
			}
			// expect maps the reference position an iterator is opened
			// at to the position it must start from.
			expect := func(i int) int {
				if tc.gc {
					return gcSurvivor(tc.ref, i)
				}
				return i
			}
			// walk lists the reference positions a full walk visits.
			var walk []int
			for i := range tc.ref {
				c := &tc.ref[i].cell
				if tc.gc {
					if c.Tombstone {
						continue
					}
					if p := &tc.ref[max(i, 1)-1].cell; i > 0 && p.Row == c.Row && p.Family == c.Family && p.Qualifier == c.Qualifier {
						continue
					}
				}
				walk = append(walk, i)
			}

			// Full walk: copy at every step, compare after the walk.
			type step struct {
				key  string
				cell Cell
			}
			var got []step
			it := tc.open("")
			for ; it.valid(); it.next() {
				first := it.cell()
				copied := *first
				if again := it.cell(); !sameCell(&copied, again) || it.key() != it.key() {
					t.Fatalf("cell() twice without next() disagrees: %v then %v", &copied, again)
				}
				got = append(got, step{it.key(), copied})
			}
			if err := it.fail(); err != nil {
				t.Fatal(err)
			}
			runtime.GC() // the copies keep their arenas; nothing they point at may move
			if len(got) != len(walk) {
				t.Fatalf("walk yielded %d cells, reference has %d", len(got), len(walk))
			}
			for n, i := range walk {
				g := &got[n]
				if g.key != tc.ref[i].key || !sameCell(&g.cell, &tc.ref[i].cell) {
					t.Fatalf("step %d: got %q %v\nwant %q %v", n, g.key, &g.cell, tc.ref[i].key, &tc.ref[i].cell)
				}
				if k := cellKey(g.cell.Row, g.cell.Family, g.cell.Qualifier, g.cell.Timestamp, 0); k[:len(k)-8] != g.key[:len(g.key)-8] {
					t.Fatalf("step %d: coordinates %v do not render key %q", n, &g.cell, g.key)
				}
			}

			// Seeks: every present key, the gap after it, before the
			// first and past the last.
			seekTo := func(start string) {
				t.Helper()
				i := expect(sort.SearchStrings(keys, start))
				it := tc.open(start)
				if err := it.fail(); err != nil {
					t.Fatal(err)
				}
				if i == len(tc.ref) {
					if it.valid() {
						t.Fatalf("seek %q: iterator at %q, want exhausted", start, it.key())
					}
					return
				}
				if !it.valid() || it.key() != tc.ref[i].key || !sameCell(it.cell(), &tc.ref[i].cell) {
					t.Fatalf("seek %q: want %q %v (reference position %d), iterator valid=%v", start, tc.ref[i].key, &tc.ref[i].cell, i, it.valid())
				}
			}
			seekTo("")
			seekTo("\x00")
			for _, k := range keys {
				seekTo(k)
				seekTo(k + "\x00")
			}
			seekTo(keys[len(keys)-1] + "\xff")
			seekTo("\xff\xff")
		})
	}
}

// writeEntryPoints are the ways a cell reaches a region: the three
// metered doors, and the region's one-row primitive that the doors and
// anti-entropy repair write through.
var writeEntryPoints = []struct {
	name  string
	write func(c *Cluster, cell Cell) error
}{
	{"Put", func(c *Cluster, cell Cell) error { return c.Put("t", cell) }},
	{"MutateRow", func(c *Cluster, cell Cell) error {
		regs, err := c.TableRegions("t")
		if err != nil {
			return err
		}
		cell.Timestamp = c.Now()
		return regs[0].mutateRow([]Cell{cell})
	}},
	{"BatchPut", func(c *Cluster, cell Cell) error { return c.BatchPut("t", []Cell{cell}) }},
	{"GroupWrite", func(c *Cluster, cell Cell) error {
		return c.GroupWrite([]TableMutation{{Table: "t", Cells: []Cell{cell}}})
	}},
}

// bothModes runs f against a fresh memory cluster and a fresh disk
// cluster, whatever KVSTORE_DISK says.
func bothModes(t *testing.T, f func(t *testing.T, c *Cluster)) {
	t.Run("memory", func(t *testing.T) { f(t, memCluster(t)) })
	t.Run("disk", func(t *testing.T) {
		c := openDiskCluster(t, t.TempDir())
		defer c.Close()
		f(t, c)
	})
}

// memCluster returns a memory-only cluster, whatever KVSTORE_DISK says.
func memCluster(t *testing.T) *Cluster {
	t.Helper()
	t.Setenv("KVSTORE_DISK", "")
	c, err := NewCluster(sim.LC())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWriteDoesNotAliasCallerValue: a write copies the value it is
// given. The caller's buffer is rewritten the moment the write returns,
// and the stored cell must still read "hello" — from the memtable, from
// the run a flush makes of it, and, on disk, from the memtable cold
// start rebuilds out of the WAL file after a close and reopen (the log
// always held the original bytes, so a store that aliased disagreed
// with its own log). A memory cluster keeps no log and has no recovery
// stage.
func TestWriteDoesNotAliasCallerValue(t *testing.T) {
	stages := []struct {
		name     string
		diskOnly bool
		// run moves the cluster to the stage and returns the cluster
		// to read from.
		run func(t *testing.T, c *Cluster, dir string) *Cluster
	}{
		{"before flush", false, func(_ *testing.T, c *Cluster, _ string) *Cluster { return c }},
		{"after flush", false, func(t *testing.T, c *Cluster, _ string) *Cluster {
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"after recover", true, func(t *testing.T, c *Cluster, dir string) *Cluster {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			return openDiskCluster(t, dir)
		}},
	}
	for _, ep := range writeEntryPoints {
		for _, stage := range stages {
			check := func(t *testing.T, c *Cluster, dir string) {
				c.SetRowCacheBytes(0)
				mustCreate(t, c, "t", []string{"cf"}, nil)
				buf := []byte("hello")
				if err := ep.write(c, Cell{Row: "r", Family: "cf", Qualifier: "q", Value: buf}); err != nil {
					t.Fatal(err)
				}
				copy(buf, "XXXXX")
				c = stage.run(t, c, dir)
				defer c.Close()
				row, err := c.Get("t", "r")
				if err != nil || row == nil {
					t.Fatalf("get: %v, %v", row, err)
				}
				if got := string(row.Cells[0].Value); got != "hello" {
					t.Fatalf("stored value reads %q after the caller reused its buffer, want %q", got, "hello")
				}
			}
			t.Run(ep.name+"/"+stage.name, func(t *testing.T) {
				if !stage.diskOnly {
					t.Run("memory", func(t *testing.T) { check(t, memCluster(t), "") })
				}
				t.Run("disk", func(t *testing.T) {
					dir := t.TempDir()
					check(t, openDiskCluster(t, dir), dir)
				})
			})
		}
	}
}

// TestReturnedValueCannotGrowIntoArena: values of neighbouring cells sit
// back to back in a slab, and a returned Value is clipped to its own
// length, so appending to one reallocates instead of overwriting the
// next cell's bytes.
func TestReturnedValueCannotGrowIntoArena(t *testing.T) {
	for _, cacheBytes := range []uint64{0, DefaultRowCacheBytes} {
		for _, flushed := range []bool{false, true} {
			cacheBytes, flushed := cacheBytes, flushed
			t.Run(fmt.Sprintf("rowcache%d/flushed=%v", cacheBytes, flushed), func(t *testing.T) {
				bothModes(t, func(t *testing.T, c *Cluster) {
					c.SetRowCacheBytes(cacheBytes)
					mustCreate(t, c, "t", []string{"cf"}, nil)
					cells := []Cell{
						{Row: "r", Family: "cf", Qualifier: "a", Value: []byte("aaaa")},
						{Row: "r", Family: "cf", Qualifier: "b", Value: []byte("bbbb")},
					}
					if err := c.GroupWrite([]TableMutation{{Table: "t", Cells: cells}}); err != nil {
						t.Fatal(err)
					}
					if flushed {
						if err := c.FlushAll(); err != nil {
							t.Fatal(err)
						}
					}
					reads := []func() (*Row, error){
						func() (*Row, error) { return c.Get("t", "r") },
						func() (*Row, error) {
							rows, err := c.ScanAll(Scan{Table: "t"})
							if err != nil || len(rows) != 1 {
								return nil, fmt.Errorf("scan: %d rows, %v", len(rows), err)
							}
							return &rows[0], nil
						},
					}
					for round := 0; round < 2; round++ { // the second Get is a row-cache hit
						for _, read := range reads {
							row, err := read()
							if err != nil || row == nil || len(row.Cells) != 2 {
								t.Fatalf("read: %v, %v", row, err)
							}
							if v := row.Cells[0].Value; cap(v) != len(v) {
								t.Fatalf("returned value has %d spare bytes of capacity", cap(v)-len(v))
							}
							_ = append(row.Cells[0].Value, "ZZZZZZZZ"...)
							again, err := read()
							if err != nil || again == nil {
								t.Fatalf("re-read: %v, %v", again, err)
							}
							if a, b := string(again.Cells[0].Value), string(again.Cells[1].Value); a != "aaaa" || b != "bbbb" {
								t.Fatalf("after appending to a returned value the row reads %q, %q", a, b)
							}
						}
					}
				})
			})
		}
	}
}

// TestCachedRowSurvivesItsArena: the row cache keeps its own copy of a
// row. The read that fills it assembles views into a memtable; the
// memtable is then flushed and the segment compacted away, retiring
// both arenas, and the next get — a cache hit — still returns the row
// the first read did.
func TestCachedRowSurvivesItsArena(t *testing.T) {
	bothModes(t, func(t *testing.T, c *Cluster) {
		c.SetRowCacheBytes(DefaultRowCacheBytes)
		mustCreate(t, c, "t", []string{"fa", "fb"}, nil)
		for i := 0; i < 200; i++ {
			cells := []Cell{
				{Row: fmt.Sprintf("r%03d", i), Family: "fa", Qualifier: "q", Value: []byte(fmt.Sprintf("a-%d", i))},
				{Row: fmt.Sprintf("r%03d", i), Family: "fb", Qualifier: "", Value: nil},
				{Row: fmt.Sprintf("r%03d", i), Family: "fb", Qualifier: "w", Value: bytes.Repeat([]byte{byte(i)}, 40)},
			}
			if err := c.GroupWrite([]TableMutation{{Table: "t", Cells: cells}}); err != nil {
				t.Fatal(err)
			}
		}
		first, err := c.Get("t", "r100")
		if err != nil || first == nil {
			t.Fatalf("get: %v, %v", first, err)
		}
		want := fmt.Sprint(*first)
		r := mustRegion(t, c, "t")
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := r.Compact(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		hitsBefore, _ := r.RowCacheStats()
		again, err := c.Get("t", "r100")
		if err != nil || again == nil {
			t.Fatalf("get: %v, %v", again, err)
		}
		if hits, _ := r.RowCacheStats(); hits != hitsBefore+1 {
			t.Fatalf("second get was not a row-cache hit (hits %d -> %d)", hitsBefore, hits)
		}
		if got := fmt.Sprint(*again); got != want {
			t.Fatalf("cached row changed:\ngot  %s\nwant %s", got, want)
		}
		requireEmptyValuesNil(t, "cache hit", []Row{*again})
	})
}

// TestDetachRowCopies: the copy the row cache keeps shares no value
// bytes with the row it was made from, and is cell for cell equal.
func TestDetachRowCopies(t *testing.T) {
	v1, v2 := []byte("one"), []byte("three")
	src := &Row{Key: "r", Cells: []Cell{
		{Row: "r", Family: "fa", Qualifier: "q1", Value: v1, Timestamp: 4},
		{Row: "r", Family: "fa", Qualifier: "", Timestamp: 5},
		{Row: "r", Family: "fb", Qualifier: "q3", Value: v2, Timestamp: 6},
	}}
	want := fmt.Sprint(*src)
	got := detachRow(src)
	copy(v1, "XXX")
	copy(v2, "XXXXX")
	if fmt.Sprint(*got) != want {
		t.Fatalf("detached row\ngot  %v\nwant %s", *got, want)
	}
	if got.Cells[1].Value != nil {
		t.Fatal("empty value detached as non-nil")
	}
	for _, c := range got.Cells {
		if cap(c.Value) != len(c.Value) {
			t.Fatalf("detached value %q has spare capacity", c.Value)
		}
	}
}

// TestResidentCellsAreNotHeapObjects pins the mechanism: cells at rest —
// in memtables, and in flushed and compacted segments — cost the garbage
// collector (almost) no objects. 50,000 cells, half left in memtables
// and half flushed then compacted, may add at most 0.05 heap objects per
// cell (five objects per cell before the arenas).
func TestResidentCellsAreNotHeapObjects(t *testing.T) {
	const cells = 50000
	c, err := NewCluster(sim.LC())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", []string{"fa", "fb"}, []string{"row-00012500", "row-00025000", "row-00037500"}); err != nil {
		t.Fatal(err)
	}
	keys := benchKeys(cells / 2)
	value := []byte("0123456789abcdef0123456789abcdef")
	load := func(family string) {
		batch := make([]Cell, 0, 500)
		for i, k := range keys {
			batch = append(batch, Cell{Row: k, Family: family, Qualifier: "v", Value: value})
			if len(batch) == cap(batch) || i == len(keys)-1 {
				if err := c.BatchPut("t", batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	}
	heap := func() runtime.MemStats {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms
	}

	before := heap()
	load("fa")
	regs, err := c.TableRegions("t")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		if err := r.Compact(); err != nil { // flush, then merge
			t.Fatal(err)
		}
	}
	load("fb") // stays in the memtables
	after := heap()

	stored := 0
	for _, r := range regs {
		stored += r.CellCount()
	}
	if stored != cells {
		t.Fatalf("table holds %d cells, want %d", stored, cells)
	}
	logical, err := c.TableDiskSize("t")
	if err != nil {
		t.Fatal(err)
	}
	objects := float64(after.HeapObjects) - float64(before.HeapObjects)
	perCell := objects / cells
	t.Logf("%d cells (%d logical bytes): %+.0f heap objects (%.4f per cell), HeapAlloc %+d bytes = %.2fx logical (memtables, segments and the memory-mode WAL mirror of the unflushed half)",
		cells, logical, objects, perCell, int64(after.HeapAlloc)-int64(before.HeapAlloc),
		(float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(logical))
	if perCell >= 0.05 {
		t.Fatalf("resident cells cost %.3f heap objects each, want < 0.05", perCell)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(keys)
}

// TestMemtablePutAllocs: a steady-state put appends to slabs and arrays
// that grow geometrically — amortised, at most one allocation.
func TestMemtablePutAllocs(t *testing.T) {
	m := newMemtable(1)
	value := []byte("0123456789abcdef")
	keys := make([]string, 40000)
	for i := range keys {
		keys[i] = cellKey(benchRowKey(i*7919%len(keys)), "cf", "v", 1, uint64(i))
	}
	c := Cell{Family: "cf", Qualifier: "v", Value: value, Timestamp: 1}
	put := func(i int) {
		c.Row = keys[i][:len("row-00000000")]
		m.put(keys[i], &c)
	}
	n := 0
	for ; n < 10000; n++ { // reach steady state
		put(n)
	}
	allocs := testing.AllocsPerRun(20000, func() {
		put(n)
		n++
	})
	if allocs > 1 {
		t.Fatalf("memtable.put allocates %.2f times per call, want <= 1", allocs)
	}
	if m.count != n {
		t.Fatalf("memtable holds %d cells after %d puts", m.count, n)
	}
}

// TestDecodeDataBlockAllocs: decoding a block allocates the block, its
// reference array and its slabs — the same handful for 16 entries as for
// 256.
func TestDecodeDataBlockAllocs(t *testing.T) {
	payload := func(entries int) []byte {
		var w blockWriter
		for i := 0; i < entries; i++ {
			w.add(&Cell{Row: benchRowKey(i / 4), Family: "cf", Qualifier: fmt.Sprintf("q%d", i%4), Value: []byte("0123456789abcdef"), Timestamp: int64(i)}, uint64(i))
		}
		p, err := w.finish()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	allocs := func(p []byte, entries int) float64 {
		return testing.AllocsPerRun(50, func() {
			blk, err := decodeDataBlock(p)
			if err != nil || blk.len() != entries {
				t.Fatalf("decode: %v", err)
			}
		})
	}
	small, large := allocs(payload(16), 16), allocs(payload(256), 256)
	t.Logf("decodeDataBlock: %.0f allocations for 16 entries, %.0f for 256", small, large)
	if large != small {
		t.Fatalf("decodeDataBlock allocations grow with the block: %.0f for 16 entries, %.0f for 256", small, large)
	}
}
