package kvstore

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestSegmentBloomFPR is a regression bound on the per-segment row bloom
// filter: absent rows must be pruned with a false-positive rate near the
// configured target (1%, asserted with slack at 3%), and present rows
// must never be pruned.
func TestSegmentBloomFPR(t *testing.T) {
	const n = 20000
	var keys []string
	var cells []*Cell
	for i := 0; i < n; i++ {
		c := &Cell{Row: fmt.Sprintf("present-%06d", i), Family: "cf", Qualifier: "v", Value: []byte("x"), Timestamp: 1}
		keys = append(keys, cellKey(c.Row, c.Family, c.Qualifier, c.Timestamp, uint64(i)))
		cells = append(cells, c)
	}
	seg := segmentFromCells(keys, cells)
	for i := 0; i < n; i++ {
		if !seg.mayContainRow(fmt.Sprintf("present-%06d", i)) {
			t.Fatalf("false negative for present row %d", i)
		}
	}
	// Absent rows inside the [min,max] range, so only the filter prunes.
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if seg.mayContainRow(fmt.Sprintf("present-%06d-absent-%d", i%n, i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Fatalf("bloom false-positive rate %.4f exceeds 0.03", rate)
	}
	// Rows outside the key range are pruned without consulting the filter.
	if seg.mayContainRow("aaa") || seg.mayContainRow("zzz") {
		t.Error("out-of-range row not pruned")
	}
}

// TestMergedIterEquivalence drives the heap merge against a model: the
// merged stream must equal the sorted union of all source entries.
func TestMergedIterEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nSegs := 1 + rng.Intn(6)
		var model []string
		var iters []cellIter
		for s := 0; s < nSegs; s++ {
			n := rng.Intn(40)
			keySet := map[string]bool{}
			for i := 0; i < n; i++ {
				keySet[fmt.Sprintf("k%04d-s%d", rng.Intn(500), s)] = true
			}
			var keys []string
			for k := range keySet {
				keys = append(keys, k)
			}
			sortStrings(keys)
			var cells []*Cell
			for i, k := range keys {
				// Fixed-width rows: internal keys sort as the rows do.
				cells = append(cells, &Cell{Row: k, Family: "cf", Qualifier: "v", Timestamp: 1})
				keys[i] = cellKey(k, "cf", "v", 1, 0)
			}
			model = append(model, keys...)
			iters = append(iters, segmentFromCells(keys, cells).iterator(""))
		}
		sortStrings(model)
		m := newMergedIter(iters...)
		var got []string
		for m.valid() {
			got = append(got, m.key())
			if m.cell() == nil {
				t.Fatal("nil cell")
			}
			m.next()
		}
		if fmt.Sprint(got) != fmt.Sprint(model) {
			t.Fatalf("trial %d: merged stream diverges from model\ngot  %v\nwant %v", trial, got, model)
		}
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestGetMatchesScan cross-checks the dedicated point-get fast path
// against the generic scan path on randomized multi-segment state,
// including tombstones, overwrites, and family restrictions.
func TestGetMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := testCluster(t)
	c.SetRowCacheBytes(0) // exercise the segment path, not the cache
	mustCreate(t, c, "t", []string{"a", "b"}, nil)
	regs, _ := c.TableRegions("t")
	r := regs[0]
	for op := 0; op < 4000; op++ {
		row := fmt.Sprintf("k%03d", rng.Intn(200))
		fam := "a"
		if rng.Intn(2) == 0 {
			fam = "b"
		}
		switch rng.Intn(10) {
		case 0:
			if err := c.Delete("t", row, fam, "v", 0); err != nil {
				t.Fatal(err)
			}
		case 1:
			if rng.Intn(3) == 0 {
				r.Flush()
			}
		default:
			if err := c.Put("t", Cell{Row: row, Family: fam, Qualifier: "v", Value: []byte(fmt.Sprint(op))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	famSets := [][]string{nil, {"a"}, {"b"}, {"a", "b"}}
	for i := 0; i < 200; i++ {
		row := fmt.Sprintf("k%03d", i)
		for _, fams := range famSets {
			got, _, err := r.get(row, fams)
			if err != nil {
				t.Fatal(err)
			}
			rows, _, err := r.scan(row, row+"\x01", 1, fams, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want *Row
			if len(rows) > 0 && rows[0].Key == row {
				want = &rows[0]
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("row %q fams %v: get=%+v scan=%+v", row, fams, got, want)
			}
		}
	}
}

// TestRowCacheServesAndInvalidates exercises the sequential cache
// contract: a repeated get hits, a mutation invalidates, deletes are
// cached negatively, and family-restricted reads are served from the
// full cached row.
func TestRowCacheServesAndInvalidates(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"a", "b"}, nil)
	put := func(fam, val string) {
		t.Helper()
		if err := c.Put("t", Cell{Row: "r", Family: fam, Qualifier: "v", Value: []byte(val)}); err != nil {
			t.Fatal(err)
		}
	}
	put("a", "1")
	put("b", "2")
	if _, err := c.Get("t", "r"); err != nil { // populate
		t.Fatal(err)
	}
	hits0, _ := c.RowCacheStats()
	row, err := c.Get("t", "r")
	if err != nil || row == nil || len(row.Cells) != 2 {
		t.Fatalf("cached get = %+v, %v", row, err)
	}
	hits1, _ := c.RowCacheStats()
	if hits1 != hits0+1 {
		t.Fatalf("expected a cache hit, hits %d -> %d", hits0, hits1)
	}
	// Family-restricted gets bypass the cache (so their billed work is
	// identical on every repetition) but must still be correct.
	row, _ = c.Get("t", "r", "b")
	if row == nil || len(row.Cells) != 1 || string(row.Cells[0].Value) != "2" {
		t.Fatalf("family-restricted get = %+v", row)
	}
	if h, _ := c.RowCacheStats(); h != hits1 {
		t.Fatalf("family-restricted get touched the cache: hits %d -> %d", hits1, h)
	}
	// Mutation invalidates: the next get must see the new value.
	put("a", "updated")
	row, _ = c.Get("t", "r")
	if string(row.Cell("a", "v").Value) != "updated" {
		t.Fatalf("stale cache after put: %+v", row)
	}
	// Delete both columns; absence is observed and cached.
	c.Delete("t", "r", "a", "v", 0)
	c.Delete("t", "r", "b", "v", 0)
	if row, _ = c.Get("t", "r"); row != nil {
		t.Fatalf("row visible after delete: %+v", row)
	}
	if row, _ = c.Get("t", "r"); row != nil {
		t.Fatalf("negative cache returned a row: %+v", row)
	}
	// Reinsert after a cached miss must be visible again.
	put("a", "back")
	if row, _ = c.Get("t", "r"); row == nil || string(row.Cells[0].Value) != "back" {
		t.Fatalf("reinsert after negative cache = %+v", row)
	}
}

// TestRowCacheBillsWarmLikeCold pins the cost contract: a warm (cached)
// get of a row bills exactly the read units and network bytes of the
// cold get that populated it — including tombstoned columns, which are
// examined but not returned — while its simulated time drops because
// the seek and disk bytes are skipped.
func TestRowCacheBillsWarmLikeCold(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"a"}, nil)
	c.Put("t", Cell{Row: "r", Family: "a", Qualifier: "x", Value: []byte("1")})
	c.Put("t", Cell{Row: "r", Family: "a", Qualifier: "y", Value: []byte("2")})
	c.Delete("t", "r", "a", "x", 0)
	// Flush so the cold read pays real storage costs in disk mode too
	// (a memtable-only read measures zero block fetches there; in
	// memory mode the flush changes nothing).
	regs, _ := c.TableRegions("t")
	for _, r := range regs {
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	measure := func() sim.Snapshot {
		t.Helper()
		before := c.Metrics().Snapshot()
		if _, err := c.Get("t", "r"); err != nil {
			t.Fatal(err)
		}
		return c.Metrics().Snapshot().Sub(before)
	}
	cold := measure()
	warm := measure()
	if warm.KVReads != cold.KVReads {
		t.Errorf("warm KVReads %d != cold %d", warm.KVReads, cold.KVReads)
	}
	if warm.NetworkBytes != cold.NetworkBytes {
		t.Errorf("warm network %d != cold %d", warm.NetworkBytes, cold.NetworkBytes)
	}
	if warm.SimTime >= cold.SimTime {
		t.Errorf("warm time %v not below cold %v", warm.SimTime, cold.SimTime)
	}
	if warm.DiskBytesRead != 0 {
		t.Errorf("warm read %d disk bytes", warm.DiskBytesRead)
	}
	// Same contract for a negative entry (row with only tombstones).
	c.Delete("t", "r", "a", "y", 0)
	cold = measure()
	warm = measure()
	if warm.KVReads != cold.KVReads {
		t.Errorf("negative: warm KVReads %d != cold %d", warm.KVReads, cold.KVReads)
	}
}

// TestRowCacheConcurrent hammers one table with concurrent writers,
// point readers, and scanners (run under -race), then verifies every
// row's final value against a per-row model.
func TestRowCacheConcurrent(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, []string{"k050"})
	const rows = 100
	var mu sync.Mutex
	model := map[string]string{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k%03d", rng.Intn(rows))
				v := fmt.Sprintf("w%d-%d", w, i)
				mu.Lock()
				if err := c.Put("t", Cell{Row: k, Family: "cf", Qualifier: "v", Value: []byte(v)}); err != nil {
					mu.Unlock()
					t.Error(err)
					return
				}
				model[k] = v
				mu.Unlock()
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%03d", rng.Intn(rows))
				if _, err := c.Get("t", k); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := c.ScanAll(Scan{Table: "t", Caching: 17}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k, want := range model {
		row, err := c.Get("t", k)
		if err != nil {
			t.Fatal(err)
		}
		if row == nil || string(row.Cells[0].Value) != want {
			t.Fatalf("row %q = %+v, want %q", k, row, want)
		}
	}
}

// TestTieredCompactionEquivalence is the compaction property test: a
// region compacted by the online tiered policy must expose exactly the
// same rows as a twin region that never auto-compacts, at every probe
// point and after a final major compaction — tombstones included.
func TestTieredCompactionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tiered := testCluster(t)
	naive := testCluster(t)
	mustCreate(t, tiered, "t", []string{"cf"}, nil)
	mustCreate(t, naive, "t", []string{"cf"}, nil)
	tr := mustRegion(t, tiered, "t")
	nr := mustRegion(t, naive, "t")
	// Tiny flush threshold so the tiered policy runs constantly; the
	// naive twin flushes at the same points but never merges.
	tr.mu.Lock()
	tr.flushThreshold = 2 << 10
	tr.mu.Unlock()
	nr.mu.Lock()
	nr.flushThreshold = 2 << 10
	nr.compactThreshold = 1 << 30
	nr.mu.Unlock()

	check := func(stage string) {
		t.Helper()
		a, err := tiered.ScanAll(Scan{Table: "t", Caching: 1000})
		if err != nil {
			t.Fatal(err)
		}
		b, err := naive.ScanAll(Scan{Table: "t", Caching: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%s: tiered(%d rows) != uncompacted(%d rows)", stage, len(a), len(b))
		}
	}

	for op := 0; op < 6000; op++ {
		k := fmt.Sprintf("k%03d", rng.Intn(250))
		if rng.Intn(5) == 0 {
			// Tombstone half the deletes against rows that may only
			// exist in older runs, so retained tombstones must keep
			// shadowing them.
			ts := tiered.Now()
			if err := tiered.Delete("t", k, "cf", "v", ts); err != nil {
				t.Fatal(err)
			}
			if err := naive.Delete("t", k, "cf", "v", ts); err != nil {
				t.Fatal(err)
			}
		} else {
			ts := tiered.Now()
			v := []byte(fmt.Sprintf("v%d-%032d", op, op)) // pad to force flushes
			if err := tiered.Put("t", Cell{Row: k, Family: "cf", Qualifier: "v", Value: v, Timestamp: ts}); err != nil {
				t.Fatal(err)
			}
			if err := naive.Put("t", Cell{Row: k, Family: "cf", Qualifier: "v", Value: v, Timestamp: ts}); err != nil {
				t.Fatal(err)
			}
		}
		if op%1500 == 1499 {
			check(fmt.Sprintf("op %d", op))
		}
	}
	check("final")
	tr.mu.RLock()
	nseg := len(tr.stores[0].runs)
	tr.mu.RUnlock()
	if nseg > tr.maxSegmentsLocked() {
		t.Errorf("tiered policy left %d segments, cap %d", nseg, tr.maxSegmentsLocked())
	}
	// After a major compaction both must still agree, and the tiered
	// region must have purged tombstones.
	tr.Compact()
	nr.Compact()
	check("after major compaction")
}

// TestSubsetMergeKeepsShadowedTombstones pins the snapshot-read safety
// of subset merges: a tombstone that is NOT the newest version of its
// column inside the merged runs must survive the merge, because it may
// still shadow an older live version in a run outside the merge. Layout
// before the merge: seg C (outside) holds ts=30 live, seg B ts=50
// tombstone, seg A ts=100 live; merging A+B must not let a ReadTs=60
// snapshot resurrect the deleted ts=30 value.
func TestSubsetMergeKeepsShadowedTombstones(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	r := mustRegion(t, c, "t")
	put := func(ts int64, tomb bool) {
		t.Helper()
		cell := Cell{Row: "r", Family: "cf", Qualifier: "v", Timestamp: ts, Tombstone: tomb}
		if !tomb {
			cell.Value = []byte(fmt.Sprintf("v@%d", ts))
		}
		if err := r.mutateRow([]Cell{cell}); err != nil {
			t.Fatal(err)
		}
		r.Flush()
	}
	put(30, false) // oldest segment, stays outside the merge
	put(50, true)
	put(100, false)
	snapshot := func() []Row {
		t.Helper()
		rows, _, err := r.scan("", "", 0, nil, 60, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	if rows := snapshot(); len(rows) != 0 {
		t.Fatalf("pre-merge snapshot at ts=60 sees %+v, want deleted", rows)
	}
	r.mu.Lock()
	st := r.storeLocked("cf")
	r.mergeSegmentsLocked(st, []int{0, 1}) // runs are newest first: A, B
	nseg := len(st.runs)
	r.mu.Unlock()
	if nseg != 2 {
		t.Fatalf("expected 2 segments after subset merge, got %d", nseg)
	}
	if rows := snapshot(); len(rows) != 0 {
		t.Fatalf("subset merge resurrected deleted value for snapshot read: %+v", rows)
	}
	// The latest view still sees ts=100.
	row, err := c.Get("t", "r")
	if err != nil || row == nil || string(row.Cells[0].Value) != "v@100" {
		t.Fatalf("latest read after subset merge = %+v, %v", row, err)
	}
}

// TestSubsetMergeKeepsShadowedVersions is the overwrite twin of the
// tombstone test: a live version shadowed by a newer one inside the
// merged runs must survive a subset merge, or a ReadTs snapshot read
// would resolve to an even older value from a run outside the merge.
func TestSubsetMergeKeepsShadowedVersions(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	r := mustRegion(t, c, "t")
	for _, ts := range []int64{30, 50, 100} {
		cell := Cell{Row: "r", Family: "cf", Qualifier: "v", Timestamp: ts, Value: []byte(fmt.Sprintf("v@%d", ts))}
		if err := r.mutateRow([]Cell{cell}); err != nil {
			t.Fatal(err)
		}
		r.Flush()
	}
	r.mu.Lock()
	r.mergeSegmentsLocked(r.storeLocked("cf"), []int{0, 1}) // merge ts=100 and ts=50 runs; ts=30 stays outside
	r.mu.Unlock()
	rows, _, err := r.scan("", "", 0, nil, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || string(rows[0].Cells[0].Value) != "v@50" {
		t.Fatalf("snapshot at ts=60 after subset merge = %+v, want v@50", rows)
	}
}

// TestTieredCompactionGarbageCollects pins the steady-state GC
// property: under a sustained overwrite workload (the online
// index-maintenance shape), the periodic full-merge fallback must
// reclaim dead versions, keeping the region's disk footprint a small
// fraction of the total bytes ever written. Without it, subset merges
// (which retain every version) would let DiskSize grow to the write
// volume.
func TestTieredCompactionGarbageCollects(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	r := mustRegion(t, c, "t")
	r.mu.Lock()
	r.flushThreshold = 8 << 10
	r.mu.Unlock()
	const rows = 50
	var written uint64
	for i := 0; i < 20000; i++ {
		cell := Cell{Row: fmt.Sprintf("k%02d", i%rows), Family: "cf", Qualifier: "v", Value: []byte(fmt.Sprintf("v%06d-%032d", i, i))}
		written += cell.StoredSize()
		if err := c.Put("t", cell); err != nil {
			t.Fatal(err)
		}
	}
	ds := r.DiskSize()
	if ds > written/3 {
		t.Errorf("disk size %d after %d bytes written — dead versions not collected", ds, written)
	}
}

// TestTieredCompactionCutsWriteAmplification asserts the point of the
// policy: under sustained load with frequent flushes, tiered compaction
// must write far fewer bytes than rewriting the whole region per flush
// (which would be ~sum over flushes of the data size so far).
func TestTieredCompactionCutsWriteAmplification(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	r := mustRegion(t, c, "t")
	r.mu.Lock()
	r.flushThreshold = 16 << 10
	r.mu.Unlock()
	for i := 0; i < 20000; i++ {
		if err := c.Put("t", Cell{Row: fmt.Sprintf("r%06d", i), Family: "cf", Qualifier: "v", Value: []byte("0123456789abcdef")}); err != nil {
			t.Fatal(err)
		}
	}
	data := r.DiskSize()
	written := r.CompactionBytes()
	if written == 0 {
		t.Fatal("no compactions ran — flush threshold too large for the workload")
	}
	// Major-on-every-flush would rewrite ~half the dataset per flush:
	// with ~70 flushes that is >30x the data size. Tiered stays within
	// a small multiple (log-ish in the number of tiers).
	if written > 8*data {
		t.Errorf("compaction wrote %d bytes for %d live bytes (amplification %.1fx)", written, data, float64(written)/float64(data))
	}
}

// TestFamilyScanWalksOnlyItsFamily pins the family-store layout by
// counting, not timing: on a two-family region whose sibling family is
// 30x larger, with data spread over a live memtable and two flushed
// runs, the iterator a one-family scan or get is handed yields exactly
// that family's stored versions — shadowed versions and tombstones
// included — and not one cell of the sibling.
func TestFamilyScanWalksOnlyItsFamily(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"big", "small"}, nil)
	r := mustRegion(t, c, "t")
	const rows, siblingCols = 40, 30
	stored, perRow := 0, 0
	for round := 0; round < 3; round++ {
		for i := 0; i < rows; i++ {
			row := fmt.Sprintf("r%03d", i)
			cells := []Cell{{Row: row, Family: "small", Qualifier: "v", Value: []byte(fmt.Sprint(round)), Timestamp: int64(round + 1)}}
			for q := 0; q < siblingCols; q++ {
				cells = append(cells, Cell{Row: row, Family: "big", Qualifier: fmt.Sprintf("q%02d", q), Value: []byte("sibling"), Timestamp: int64(round + 1)})
			}
			if err := r.mutateRow(cells); err != nil {
				t.Fatal(err)
			}
			stored++
		}
		perRow++
		if round < 2 {
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A tombstone is a stored version of its family too.
	if err := r.mutateRow([]Cell{{Row: "r000", Family: "small", Qualifier: "v", Timestamp: 9, Tombstone: true}}); err != nil {
		t.Fatal(err)
	}
	stored++

	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, st := range r.stores {
		if len(st.runs) < 2 || st.mem.count == 0 {
			t.Fatalf("family %q: %d runs, %d memtable cells; want >= 2 runs and a live memtable", st.family, len(st.runs), st.mem.count)
		}
	}
	steps := 0
	for it := r.iteratorsLocked("", []string{"small"}, nil); it.valid(); it.next() {
		if f := it.cell().Family; f != "small" {
			t.Fatalf("one-family scan iterator yielded a %q cell", f)
		}
		steps++
	}
	if steps != stored {
		t.Errorf("one-family scan iterator took %d steps, want the family's %d stored versions", steps, stored)
	}

	prefix := rowPrefix("r007")
	it, err := r.rowIterLocked("r007", prefix, []string{"small"}, nil)
	if err != nil || it == nil {
		t.Fatalf("rowIterLocked = %v, %v", it, err)
	}
	steps = 0
	for ; it.valid() && strings.HasPrefix(it.key(), prefix); it.next() {
		if f := it.cell().Family; f != "small" {
			t.Fatalf("one-family get iterator yielded a %q cell", f)
		}
		steps++
	}
	if steps != perRow {
		t.Errorf("one-family get iterator took %d steps inside the row, want its %d stored versions", steps, perRow)
	}
}

// storedVersion is one physical cell version of the model in
// TestMultiFamilyModelEquivalence, with the global write order that
// breaks timestamp ties.
type storedVersion struct {
	cell  Cell
	order int
}

// familyModel is the brute-force oracle of the multi-family property
// test: every version ever written, never compacted.
type familyModel struct {
	versions []storedVersion
}

func (m *familyModel) write(c Cell) {
	m.versions = append(m.versions, storedVersion{cell: c, order: len(m.versions)})
}

// rows resolves the model to what a read of the given families (nil =
// all) at readTs (0 = latest) must return: per column the newest
// version not after readTs, tombstones dropping the column, rows in key
// order with cells in (family, qualifier) order.
func (m *familyModel) rows(families []string, readTs int64) []Row {
	type col struct{ row, fam, qual string }
	newest := map[col]storedVersion{}
	for _, v := range m.versions {
		if !famMatch(families, v.cell.Family) || (readTs != 0 && v.cell.Timestamp > readTs) {
			continue
		}
		k := col{v.cell.Row, v.cell.Family, v.cell.Qualifier}
		if cur, ok := newest[k]; !ok || v.cell.Timestamp > cur.cell.Timestamp ||
			(v.cell.Timestamp == cur.cell.Timestamp && v.order > cur.order) {
			newest[k] = v
		}
	}
	byRow := map[string][]Cell{}
	for _, v := range newest {
		if !v.cell.Tombstone {
			byRow[v.cell.Row] = append(byRow[v.cell.Row], v.cell)
		}
	}
	out := make([]Row, 0, len(byRow))
	for row, cells := range byRow {
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].Family != cells[j].Family {
				return cells[i].Family < cells[j].Family
			}
			return cells[i].Qualifier < cells[j].Qualifier
		})
		out = append(out, Row{Key: row, Cells: cells})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// physicalCells dumps every stored version of a region — each family
// store's memtable and runs walked one source at a time, the read
// path's merge not involved — sorted by internal key: the mixed-family
// stream the single-store layout used to hand its read loops.
func physicalCells(t *testing.T, r *Region) (keys []string, cells []*Cell) {
	t.Helper()
	r.mu.RLock()
	defer r.mu.RUnlock()
	var sources []cellIter
	for _, st := range r.stores {
		sources = append(sources, st.mem.iterator(""))
		for _, s := range st.runs {
			sources = append(sources, s.iterAt("", nil))
		}
	}
	type kc struct {
		k string
		c *Cell
	}
	var all []kc
	for _, it := range sources {
		for ; it.valid(); it.next() {
			c := *it.cell() // a view: copy it to keep it past next()
			all = append(all, kc{it.key(), &c})
		}
		if err := it.fail(); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	for _, e := range all {
		keys = append(keys, e.k)
		cells = append(cells, e.c)
	}
	return keys, cells
}

// referenceScan is the scan loop of the single-store layout, run over
// the mixed-family dump of physicalCells with a per-cell family filter:
// the formula OpStats must keep matching.
func referenceScan(r *Region, keys []string, cells []*Cell, startRow, endRow string, limit int, families []string, readTs int64) ([]Row, OpStats) {
	var stats OpStats
	var rows []Row
	var cur *Row
	lastFam, lastQual := "", ""
	sawCol := false
	flush := func() {
		if cur != nil && len(cur.Cells) > 0 {
			stats.CellsReturned += uint64(len(cur.Cells))
			stats.BytesReturned += cur.Size()
			rows = append(rows, *cur)
		}
		cur = nil
	}
	i := 0
	if startRow != "" {
		i = sort.SearchStrings(keys, rowPrefix(startRow))
	}
	for ; i < len(cells); i++ {
		c := cells[i]
		if endRow != "" && c.Row >= endRow {
			break
		}
		if !famMatch(families, c.Family) {
			continue
		}
		stats.BytesRead += c.StoredSize()
		if cur == nil || cur.Key != c.Row {
			flush()
			if limit > 0 && len(rows) >= limit {
				return rows, stats
			}
			cur = &Row{Key: c.Row}
			sawCol = false
		}
		if (readTs == 0 || c.Timestamp <= readTs) && (!sawCol || c.Family != lastFam || c.Qualifier != lastQual) {
			sawCol = true
			lastFam, lastQual = c.Family, c.Qualifier
			stats.CellsExamined++
			if !c.Tombstone {
				cur.Cells = append(cur.Cells, *c)
			}
		}
	}
	flush()
	return rows, stats
}

// requireEmptyValuesNil fails when a read returned a zero-length value
// that is not nil: the store has one answer for it on every path.
func requireEmptyValuesNil(t *testing.T, what string, rows []Row) {
	t.Helper()
	for _, r := range rows {
		for _, c := range r.Cells {
			if c.Value != nil && len(c.Value) == 0 {
				t.Fatalf("after %s: %s holds an empty non-nil value", what, c.String())
			}
		}
	}
}

// TestMultiFamilyModelEquivalence is the randomised property test of
// the family-store layout: seeded interleavings of puts, deletes,
// flushes (which trigger tiered compaction), major compactions and
// recoveries (in disk mode a close and reopen, which replays the WAL
// files) on a 3-family table pre-split into two regions, and after every
// step, for EVERY family subset:
//
//   - cluster-level scans and gets equal the brute-force model, at the
//     latest view and at a ReadTs snapshot (taken no older than the last
//     step that may have garbage-collected history);
//   - region-level scans and gets — random ranges, limits and ReadTs —
//     return the rows AND bill the OpStats the single-store read loop
//     produced over the same stored versions (BytesRead compared in
//     memory mode only; disk mode bills measured block reads).
//
// Under KVSTORE_DISK=1 the cluster lives in a directory of its own and
// is closed and reopened mid-run, besides at every recovery step.
func TestMultiFamilyModelEquivalence(t *testing.T) {
	fams := []string{"fa", "fb", "fc"}
	subsets := [][]string{nil}
	for mask := 1; mask < 1<<len(fams); mask++ {
		var sub []string
		for i, f := range fams {
			if mask&(1<<i) != 0 {
				sub = append(sub, f)
			}
		}
		subsets = append(subsets, sub)
	}
	onDisk := os.Getenv("KVSTORE_DISK") == "1"
	steps := 200
	if testing.Short() {
		steps = 80
	}

	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := ""
			var c *Cluster
			if onDisk {
				dir = t.TempDir()
				c = openDiskCluster(t, dir)
			} else {
				c = testCluster(t)
			}
			defer func() { c.Close() }()
			c.SetRowCacheBytes(0) // gets must bill the LSM walk every time
			mustCreate(t, c, "t", fams, []string{"k15"})
			model := &familyModel{}
			var now, horizon int64 = 1, 0
			rowKey := func() string { return fmt.Sprintf("k%02d", rng.Intn(30)) }
			regions := func() []*Region {
				regs, err := c.TableRegions("t")
				if err != nil {
					t.Fatal(err)
				}
				return regs
			}

			check := func(step int, what string) {
				t.Helper()
				type dump struct {
					keys  []string
					cells []*Cell
				}
				regs := regions()
				dumps := make([]dump, len(regs))
				for i, r := range regs {
					dumps[i].keys, dumps[i].cells = physicalCells(t, r)
				}
				snapTs := horizon + rng.Int63n(now-horizon+1)
				for _, sub := range subsets {
					for _, ts := range []int64{0, snapTs} {
						got, err := c.ScanAll(Scan{Table: "t", Families: sub, ReadTs: ts, Caching: 7})
						if err != nil {
							t.Fatalf("step %d (%s) fams %v ts %d: %v", step, what, sub, ts, err)
						}
						if want := model.rows(sub, ts); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("step %d (%s) fams %v ts %d: scan diverges from the model\ngot  %v\nwant %v", step, what, sub, ts, got, want)
						}
						requireEmptyValuesNil(t, what, got)
					}
					latest := map[string]Row{}
					for _, row := range model.rows(sub, 0) {
						latest[row.Key] = row
					}
					for n := 0; n < 3; n++ {
						key := rowKey()
						got, err := c.Get("t", key, sub...)
						if err != nil {
							t.Fatal(err)
						}
						want, ok := latest[key]
						if (got != nil) != ok || (ok && fmt.Sprint(*got) != fmt.Sprint(want)) {
							t.Fatalf("step %d (%s) fams %v: get %q = %v, model %v (present %v)", step, what, sub, key, got, want, ok)
						}
						if got != nil {
							requireEmptyValuesNil(t, what, []Row{*got})
						}
					}

					for i, r := range regs {
						start, end, limit, ts := "", "", rng.Intn(4), int64(0)
						if rng.Intn(2) == 0 {
							start = rowKey()
						}
						if rng.Intn(2) == 0 {
							end = rowKey()
						}
						if rng.Intn(2) == 0 {
							ts = 1 + rng.Int63n(now)
						}
						got, gotStats, err := r.scan(start, end, limit, sub, ts, nil)
						if err != nil {
							t.Fatal(err)
						}
						refStart := start
						if refStart == "" || refStart < r.startKey {
							refStart = r.startKey
						}
						want, wantStats := referenceScan(r, dumps[i].keys, dumps[i].cells, refStart, end, limit, sub, ts)
						if onDisk {
							gotStats.BytesRead, wantStats.BytesRead = 0, 0
							gotStats.BlockReads, gotStats.BlockCacheHits = 0, 0
						}
						if fmt.Sprint(got) != fmt.Sprint(want) || gotStats != wantStats {
							t.Fatalf("step %d (%s) region %d fams %v scan[%q,%q) limit %d ts %d:\ngot  %v %+v\nwant %v %+v",
								step, what, r.id, sub, start, end, limit, ts, got, gotStats, want, wantStats)
						}

						key := rowKey()
						if !r.contains(key) {
							continue
						}
						gotRow, gs, err := r.get(key, sub)
						if err != nil {
							t.Fatal(err)
						}
						wantRows, ws := referenceScan(r, dumps[i].keys, dumps[i].cells, key, key+"\x00", 0, sub, 0)
						// A keyed read bills its returned payload, not the
						// versions it walked, and nothing when it returns
						// no row.
						ws.BytesRead = ws.BytesReturned
						if onDisk {
							gs.BytesRead, ws.BytesRead = 0, 0
							gs.BlockReads, gs.BlockCacheHits = 0, 0
						}
						if (gotRow != nil) != (len(wantRows) == 1) || (gotRow != nil && fmt.Sprint(*gotRow) != fmt.Sprint(wantRows[0])) || gs != ws {
							t.Fatalf("step %d (%s) region %d fams %v get %q:\ngot  %v %+v\nwant %v %+v", step, what, r.id, sub, key, gotRow, gs, wantRows, ws)
						}
					}
				}
			}

			for step := 0; step < steps; step++ {
				what := ""
				switch op := rng.Intn(100); {
				case op < 55:
					what = "put"
					if rng.Intn(4) > 0 {
						now++ // otherwise reuse the timestamp: write order breaks the tie
					}
					cell := Cell{Row: rowKey(), Family: fams[rng.Intn(len(fams))], Qualifier: fmt.Sprintf("q%d", rng.Intn(2)),
						Value: []byte(fmt.Sprintf("v%d-%024d", step, step)), Timestamp: now}
					if rng.Intn(6) == 0 {
						// A zero-length value: nil from the memtable, and
						// still nil once a later step has flushed,
						// compacted, recovered or reopened it.
						what = "put empty"
						cell.Value = []byte{}
					}
					if err := c.Put("t", cell); err != nil {
						t.Fatal(err)
					}
					model.write(cell)
				case op < 70:
					what = "delete"
					now++
					cell := Cell{Row: rowKey(), Family: fams[rng.Intn(len(fams))], Qualifier: fmt.Sprintf("q%d", rng.Intn(2)), Timestamp: now, Tombstone: true}
					if err := c.Delete("t", cell.Row, cell.Family, cell.Qualifier, cell.Timestamp); err != nil {
						t.Fatal(err)
					}
					model.write(cell)
				case op < 85:
					what = "flush"
					for _, r := range regions() {
						if err := r.Flush(); err != nil {
							t.Fatal(err)
						}
					}
					horizon = now
				case op < 93:
					what = "major compaction"
					regs := regions()
					if err := regs[rng.Intn(len(regs))].Compact(); err != nil {
						t.Fatal(err)
					}
					horizon = now
				default:
					// Recovery is a cold start: close and reopen, which
					// replays each region's WAL file. A memory cluster
					// keeps no log and has nothing to recover.
					what = "recover"
					if onDisk {
						if err := c.Close(); err != nil {
							t.Fatal(err)
						}
						c = openDiskCluster(t, dir)
						c.SetRowCacheBytes(0)
					}
				}
				if onDisk && step == steps/2 {
					what += " + reopen"
					if err := c.Close(); err != nil {
						t.Fatal(err)
					}
					c = openDiskCluster(t, dir)
					c.SetRowCacheBytes(0)
				}
				check(step, what)
			}
		})
	}
}
