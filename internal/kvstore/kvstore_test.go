package kvstore

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/sim"
)

// testCluster builds an LC-profile cluster that closes when the test
// ends, so a KVSTORE_DISK=1 run leaves no store behind.
func testCluster(t testing.TB) *Cluster {
	t.Helper()
	c, err := NewCluster(sim.LC())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustCreate(t *testing.T, c *Cluster, name string, families []string, splits []string) *Table {
	t.Helper()
	tab, err := c.CreateTable(name, families, splits)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestCreateTableValidation(t *testing.T) {
	c := testCluster(t)
	if _, err := c.CreateTable("t", nil, nil); err == nil {
		t.Error("no families accepted")
	}
	mustCreate(t, c, "t", []string{"cf"}, nil)
	if _, err := c.CreateTable("t", []string{"cf"}, nil); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := c.CreateTable("", []string{"cf"}, nil); err == nil {
		t.Error("empty name accepted")
	}
	names := c.TableNames()
	if len(names) != 1 || names[0] != "t" {
		t.Errorf("TableNames = %v", names)
	}
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("t"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestPutGetDelete(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	if err := c.Put("t", Cell{Row: "r1", Family: "cf", Qualifier: "a", Value: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	row, err := c.Get("t", "r1")
	if err != nil {
		t.Fatal(err)
	}
	if row == nil || len(row.Cells) != 1 || string(row.Cells[0].Value) != "v1" {
		t.Fatalf("Get = %+v", row)
	}
	// Overwrite with a newer version.
	if err := c.Put("t", Cell{Row: "r1", Family: "cf", Qualifier: "a", Value: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	row, _ = c.Get("t", "r1")
	if string(row.Cells[0].Value) != "v2" {
		t.Fatalf("latest version not returned: %+v", row)
	}
	// Delete hides the column.
	if err := deleteCell(c, "t", "r1", "cf", "a", 0); err != nil {
		t.Fatal(err)
	}
	row, _ = c.Get("t", "r1")
	if row != nil {
		t.Fatalf("row visible after delete: %+v", row)
	}
	// Re-insert after delete becomes visible again.
	if err := c.Put("t", Cell{Row: "r1", Family: "cf", Qualifier: "a", Value: []byte("v3")}); err != nil {
		t.Fatal(err)
	}
	row, _ = c.Get("t", "r1")
	if row == nil || string(row.Cells[0].Value) != "v3" {
		t.Fatalf("reinsert not visible: %+v", row)
	}
}

func TestGetMissingRowAndBadFamily(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	row, err := c.Get("t", "nope")
	if err != nil || row != nil {
		t.Errorf("missing row = %+v, %v", row, err)
	}
	if err := c.Put("t", Cell{Row: "r", Family: "wrong", Qualifier: "q"}); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := c.Get("missing", "r"); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestMultipleFamiliesAndSelection(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"a", "b"}, nil)
	c.Put("t", Cell{Row: "r", Family: "a", Qualifier: "x", Value: []byte("1")})
	c.Put("t", Cell{Row: "r", Family: "b", Qualifier: "y", Value: []byte("2")})
	row, _ := c.Get("t", "r")
	if len(row.Cells) != 2 {
		t.Fatalf("want 2 cells, got %+v", row)
	}
	row, _ = c.Get("t", "r", "b")
	if len(row.Cells) != 1 || row.Cells[0].Family != "b" {
		t.Fatalf("family selection failed: %+v", row)
	}
	if got := row.Cell("b", "y"); got == nil || string(got.Value) != "2" {
		t.Errorf("Row.Cell = %+v", got)
	}
	if got := row.FamilyCells("b"); len(got) != 1 {
		t.Errorf("FamilyCells = %+v", got)
	}
}

func TestScanOrderingAcrossRegions(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, []string{"m", "s"})
	keys := []string{"zz", "a", "m", "r", "s", "b", "q", "x", "mm"}
	for _, k := range keys {
		if err := c.Put("t", Cell{Row: k, Family: "cf", Qualifier: "v", Value: []byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := c.ScanAll(Scan{Table: "t", Caching: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, r.Key)
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan order = %v, want %v", got, want)
	}
}

func TestScannerBatchingChargesPerRPC(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	for i := 0; i < 50; i++ {
		c.Put("t", Cell{Row: fmt.Sprintf("r%03d", i), Family: "cf", Qualifier: "v", Value: []byte("x")})
	}
	before := c.Metrics().Snapshot()
	if _, err := c.ScanAll(Scan{Table: "t", Caching: 10}); err != nil {
		t.Fatal(err)
	}
	delta := c.Metrics().Snapshot().Sub(before)
	// 50 rows at caching 10 = 5 full batches + 1 final short batch.
	if delta.RPCCalls < 5 || delta.RPCCalls > 7 {
		t.Errorf("RPCs = %d, want ~6", delta.RPCCalls)
	}
	before = c.Metrics().Snapshot()
	if _, err := c.ScanAll(Scan{Table: "t", Caching: 1}); err != nil {
		t.Fatal(err)
	}
	delta = c.Metrics().Snapshot().Sub(before)
	if delta.RPCCalls < 50 {
		t.Errorf("RPCs with caching 1 = %d, want >= 50", delta.RPCCalls)
	}
}

func TestScanWithFilterCostsReadsButNotBandwidth(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	for i := 0; i < 100; i++ {
		c.Put("t", Cell{
			Row: fmt.Sprintf("r%03d", i), Family: "cf", Qualifier: "score",
			Value: FloatValue(float64(i) / 100),
		})
	}
	// Unfiltered baseline.
	before := c.Metrics().Snapshot()
	all, err := c.ScanAll(Scan{Table: "t", Caching: 1000})
	if err != nil {
		t.Fatal(err)
	}
	unfiltered := c.Metrics().Snapshot().Sub(before)
	if len(all) != 100 {
		t.Fatalf("unfiltered rows = %d", len(all))
	}
	// Filtered: only scores >= 0.9 ship.
	before = c.Metrics().Snapshot()
	rows, err := c.ScanAll(Scan{
		Table: "t", Caching: 1000,
		Filter: FloatColumnMinFilter{Family: "cf", Qualifier: "score", Min: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	filtered := c.Metrics().Snapshot().Sub(before)
	if len(rows) != 10 {
		t.Fatalf("filtered rows = %d, want 10", len(rows))
	}
	if filtered.KVReads != unfiltered.KVReads {
		t.Errorf("filtered scan reads %d KVs, unfiltered %d — server still examines all",
			filtered.KVReads, unfiltered.KVReads)
	}
	if filtered.NetworkBytes >= unfiltered.NetworkBytes {
		t.Errorf("filter did not reduce network: %d vs %d",
			filtered.NetworkBytes, unfiltered.NetworkBytes)
	}
}

func TestFloatValueRoundTrip(t *testing.T) {
	v, ok := ParseFloatValue(FloatValue(0.125))
	if !ok || v != 0.125 {
		t.Errorf("ParseFloatValue = %g, %v", v, ok)
	}
	if _, ok := ParseFloatValue([]byte{1, 2}); ok {
		t.Error("short value accepted")
	}
}

func TestMutateRowAtomicAndSpanCheck(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf", "idx"}, nil)
	cells := []Cell{
		{Row: "r", Family: "cf", Qualifier: "a", Value: []byte("1")},
		{Row: "r", Family: "idx", Qualifier: "b", Value: []byte("2")},
	}
	if err := c.GroupWrite([]TableMutation{{Table: "t", Cells: cells}}); err != nil {
		t.Fatal(err)
	}
	row, _ := c.Get("t", "r")
	if len(row.Cells) != 2 {
		t.Fatalf("a one-row group write stored %d cells", len(row.Cells))
	}
	bad := []Cell{
		{Row: "r1", Family: "cf", Qualifier: "a", Timestamp: c.Now()},
		{Row: "r2", Family: "cf", Qualifier: "a", Timestamp: c.Now()},
	}
	if err := mustRegion(t, c, "t").mutateRow(bad); err == nil {
		t.Error("cross-row mutate accepted")
	}
}

func TestFlushCompactPreserveData(t *testing.T) {
	c := testCluster(t)
	tab := mustCreate(t, c, "t", []string{"cf"}, nil)
	for i := 0; i < 200; i++ {
		c.Put("t", Cell{Row: fmt.Sprintf("r%04d", i), Family: "cf", Qualifier: "v", Value: []byte("x")})
	}
	// Delete half, then force flush+compaction.
	for i := 0; i < 200; i += 2 {
		deleteCell(c, "t", fmt.Sprintf("r%04d", i), "cf", "v", 0)
	}
	for _, r := range tab.Regions() {
		r.Compact()
	}
	rows, err := c.ScanAll(Scan{Table: "t", Caching: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("rows after compaction = %d, want 100", len(rows))
	}
	// Compaction must have purged tombstones and dead versions.
	for _, r := range tab.Regions() {
		if r.CellCount() != 100 {
			t.Errorf("region holds %d cell versions, want 100", r.CellCount())
		}
	}
}

func TestVersionsAcrossFlush(t *testing.T) {
	c := testCluster(t)
	tab := mustCreate(t, c, "t", []string{"cf"}, nil)
	c.Put("t", Cell{Row: "r", Family: "cf", Qualifier: "v", Value: []byte("old")})
	tab.Regions()[0].Flush()
	c.Put("t", Cell{Row: "r", Family: "cf", Qualifier: "v", Value: []byte("new")})
	row, _ := c.Get("t", "r")
	if string(row.Cells[0].Value) != "new" {
		t.Fatalf("memtable version must shadow flushed: %+v", row)
	}
	tab.Regions()[0].Flush()
	row, _ = c.Get("t", "r")
	if string(row.Cells[0].Value) != "new" {
		t.Fatalf("newest segment must shadow older: %+v", row)
	}
}

func TestDeleteShadowsAcrossFlush(t *testing.T) {
	c := testCluster(t)
	tab := mustCreate(t, c, "t", []string{"cf"}, nil)
	c.Put("t", Cell{Row: "r", Family: "cf", Qualifier: "v", Value: []byte("x")})
	tab.Regions()[0].Flush()
	deleteCell(c, "t", "r", "cf", "v", 0)
	row, _ := c.Get("t", "r")
	if row != nil {
		t.Fatalf("tombstone in memtable must hide flushed cell: %+v", row)
	}
}

// TestWALRecovery: 50 puts and a delete that never left the memtable
// come back from the WAL when a disk cluster is closed and reopened —
// all 51 records replayed, 49 rows, no resurrected r10. A memory
// cluster keeps no log: its WAL size stays zero and it serves the same
// rows.
func TestWALRecovery(t *testing.T) {
	write := func(t *testing.T, c *Cluster) {
		t.Helper()
		mustCreate(t, c, "t", []string{"cf"}, nil)
		for i := 0; i < 50; i++ {
			if err := c.Put("t", Cell{Row: fmt.Sprintf("r%02d", i), Family: "cf", Qualifier: "v", Value: []byte(fmt.Sprint(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := deleteCell(c, "t", "r10", "cf", "v", 0); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, c *Cluster) {
		t.Helper()
		if n := mustRegion(t, c, "t").CellCount(); n != 51 {
			t.Errorf("memtable holds %d cell versions, want 51", n)
		}
		rows, err := c.ScanAll(Scan{Table: "t", Caching: 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 49 {
			t.Fatalf("rows after recovery = %d, want 49", len(rows))
		}
		for _, r := range rows {
			if r.Key == "r10" {
				t.Error("deleted row resurrected by recovery")
			}
		}
	}
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		c := openDiskCluster(t, dir)
		write(t, c)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c = openDiskCluster(t, dir)
		defer c.Close()
		check(t, c)
	})
	t.Run("memory", func(t *testing.T) {
		c := memCluster(t)
		write(t, c)
		if sz := mustRegion(t, c, "t").WALSize(); sz != 0 {
			t.Errorf("memory region reports a %d-byte WAL, want none", sz)
		}
		check(t, c)
	})
}

// TestConcurrentAccessAndStats drives keyed reads, full scans, writes
// and the cluster-wide stats aggregators against one table pre-split
// into four regions, all at once. Run with -race: every reader of the
// region list and of per-region counters races the writer here.
func TestConcurrentAccessAndStats(t *testing.T) {
	c := testCluster(t)
	const rows = 400
	mustCreate(t, c, "t", []string{"d"}, []string{"r0100", "r0200", "r0300"})
	var cells []Cell
	for i := 0; i < rows; i++ {
		cells = append(cells, Cell{Row: fmt.Sprintf("r%04d", i), Family: "d", Qualifier: "v", Value: []byte{byte(i)}})
	}
	if err := c.BatchPut("t", cells); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}

	// Writer: its fixed run of updates bounds the test.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 600; i++ {
			row := fmt.Sprintf("r%04d", (i*13)%rows)
			if err := c.Put("t", Cell{Row: row, Family: "d", Qualifier: "w", Value: []byte("x")}); err != nil {
				t.Errorf("put %s: %v", row, err)
				return
			}
		}
	}()

	// Readers: keyed gets must always see their row.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; running(); i += 7 {
				row := fmt.Sprintf("r%04d", i%rows)
				got, err := c.Get("t", row)
				if err != nil {
					t.Errorf("get %s: %v", row, err)
					return
				}
				if got == nil {
					t.Errorf("get %s: row missing", row)
					return
				}
			}
		}(g)
	}

	// Scanner: full scans must keep seeing every row exactly once.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for running() {
			all, err := c.ScanAll(Scan{Table: "t", Caching: 64})
			if err != nil {
				t.Errorf("scan: %v", err)
				return
			}
			if len(all) != rows {
				t.Errorf("scan saw %d rows, want %d", len(all), rows)
				return
			}
		}
	}()

	// Stats aggregators: cluster-wide iteration over every region's
	// counters while the writer moves them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; running(); i++ {
			c.RowCacheStats()
			c.CompactionBytes()
			if _, err := c.TableStats("t"); err != nil {
				t.Errorf("TableStats: %v", err)
				return
			}
			if i%16 == 0 {
				c.SetRowCacheBytes(DefaultRowCacheBytes)
			}
		}
	}()

	wg.Wait()

	// Every row still present, with its original cell.
	all, err := c.ScanAll(Scan{Table: "t", Caching: 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != rows {
		t.Fatalf("after the run: %d rows, want %d", len(all), rows)
	}
	for i, r := range all {
		if v := r.Cell("d", "v"); r.Key != fmt.Sprintf("r%04d", i) || v == nil || v.Value[0] != byte(i) {
			t.Fatalf("row %d = %v, want r%04d with d:v = %d", i, r, i, byte(i))
		}
	}
}

// TestLiveCellCountIgnoresVersionChurn: LiveCellCount must report the
// live column count regardless of how many stored versions updates have
// piled up, and TableStats must surface it.
func TestLiveCellCountIgnoresVersionChurn(t *testing.T) {
	c := testCluster(t)
	if _, err := c.CreateTable("t", []string{"d"}, nil); err != nil {
		t.Fatal(err)
	}
	const rows = 50
	for round := 0; round < 5; round++ {
		for i := 0; i < rows; i++ {
			if err := c.Put("t", Cell{Row: fmt.Sprintf("r%02d", i), Family: "d", Qualifier: "v", Value: []byte{byte(round)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := c.TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != rows*5 {
		t.Errorf("stored versions = %d, want %d", st.Cells, rows*5)
	}
	if st.LiveCells != rows {
		t.Errorf("LiveCells = %d, want %d", st.LiveCells, rows)
	}
	// Deleting a column removes it from the live set.
	if err := deleteCell(c, "t", "r00", "d", "v", 0); err != nil {
		t.Fatal(err)
	}
	st, err = c.TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.LiveCells != rows-1 {
		t.Errorf("LiveCells after delete = %d, want %d", st.LiveCells, rows-1)
	}
}

func TestBatchPut(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, []string{"m"})
	var cells []Cell
	for i := 0; i < 500; i++ {
		cells = append(cells, Cell{
			Row: fmt.Sprintf("key-%04d", i), Family: "cf", Qualifier: "v",
			Value: []byte(fmt.Sprint(i)),
		})
	}
	before := c.Metrics().Snapshot()
	if err := c.BatchPut("t", cells); err != nil {
		t.Fatal(err)
	}
	delta := c.Metrics().Snapshot().Sub(before)
	if delta.KVWrites != 500 {
		t.Errorf("KVWrites = %d, want 500", delta.KVWrites)
	}
	if delta.RPCCalls != 1 {
		t.Errorf("BatchPut RPCs = %d, want 1", delta.RPCCalls)
	}
	rows, _ := c.ScanAll(Scan{Table: "t", Caching: 1000})
	if len(rows) != 500 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestScanModelEquivalence(t *testing.T) {
	// Randomized operations against a model map; final scans must agree.
	rng := rand.New(rand.NewSource(123))
	c := testCluster(t)
	tab := mustCreate(t, c, "t", []string{"cf"}, []string{"g", "p"})
	model := map[string]string{}
	for op := 0; op < 3000; op++ {
		k := fmt.Sprintf("k%03d", rng.Intn(300))
		switch rng.Intn(10) {
		case 0, 1:
			if err := deleteCell(c, "t", k, "cf", "v", 0); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		case 2:
			if rng.Intn(4) == 0 {
				tab.Regions()[rng.Intn(len(tab.Regions()))].Flush()
			}
		default:
			v := fmt.Sprintf("v%d", op)
			if err := c.Put("t", Cell{Row: k, Family: "cf", Qualifier: "v", Value: []byte(v)}); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
	}
	rows, err := c.ScanAll(Scan{Table: "t", Caching: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(model) {
		t.Fatalf("scan rows = %d, model = %d", len(rows), len(model))
	}
	for _, r := range rows {
		want, ok := model[r.Key]
		if !ok {
			t.Fatalf("phantom row %q", r.Key)
		}
		if string(r.Cells[0].Value) != want {
			t.Fatalf("row %q = %q, want %q", r.Key, r.Cells[0].Value, want)
		}
	}
}

func TestConcurrentWritesAndScans(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, []string{"k050"})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("k%03d", (w*100+i)%100)
				if err := c.Put("t", Cell{Row: k, Family: "cf", Qualifier: "v", Value: []byte{byte(w)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := c.ScanAll(Scan{Table: "t", Caching: 13}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rows, err := c.ScanAll(Scan{Table: "t", Caching: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("rows = %d, want 100", len(rows))
	}
}

func TestDiskSizeAccounting(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	if sz, _ := c.TableDiskSize("t"); sz != 0 {
		t.Errorf("empty table size = %d", sz)
	}
	c.Put("t", Cell{Row: "r", Family: "cf", Qualifier: "q", Value: make([]byte, 100)})
	sz, err := c.TableDiskSize("t")
	if err != nil {
		t.Fatal(err)
	}
	wc := Cell{Row: "r", Family: "cf", Qualifier: "q", Value: make([]byte, 100)}
	want := wc.StoredSize()
	if sz != want {
		t.Errorf("table size = %d, want %d", sz, want)
	}
	if _, err := c.TableDiskSize("none"); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestClockMonotonic(t *testing.T) {
	c := testCluster(t)
	prev := c.Now()
	for i := 0; i < 1000; i++ {
		now := c.Now()
		if now <= prev {
			t.Fatal("clock not strictly increasing")
		}
		prev = now
	}
}

func BenchmarkPut(b *testing.B) {
	c := testCluster(b)
	c.CreateTable("t", []string{"cf"}, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Put("t", Cell{Row: fmt.Sprintf("r%09d", i), Family: "cf", Qualifier: "v", Value: []byte("x")})
	}
}

// BenchmarkPutCounted is BenchmarkPut into a region whose live count is
// maintained: each write first looks up its column's newest version.
func BenchmarkPutCounted(b *testing.B) {
	c := testCluster(b)
	c.CreateTable("t", []string{"cf"}, nil)
	if _, err := c.TableStats("t"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Put("t", Cell{Row: fmt.Sprintf("r%09d", i), Family: "cf", Qualifier: "v", Value: []byte("x")})
	}
}

// BenchmarkTableStatsAfterWrite times the planner's statistics call
// right after a write, on one-region tables of two sizes. The region
// keeps its live count current as it applies the write, so the two
// sizes cost about the same; a per-write walk would scale with the
// table. Both sizes overwrite the same 1,000 rows, so their version
// chains, and the write itself, grow alike with b.N.
func BenchmarkTableStatsAfterWrite(b *testing.B) {
	for _, n := range []int{1000, 60000} {
		b.Run(fmt.Sprintf("cells=%dk", n/1000), func(b *testing.B) {
			c := testCluster(b)
			c.CreateTable("t", []string{"cf"}, nil)
			cells := make([]Cell, n)
			for i := range cells {
				cells[i] = Cell{Row: fmt.Sprintf("r%09d", i), Family: "cf", Qualifier: "v", Value: []byte("x")}
			}
			if err := c.BatchPut("t", cells); err != nil {
				b.Fatal(err)
			}
			if _, err := c.TableStats("t"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Put("t", Cell{Row: fmt.Sprintf("r%09d", i%1000), Family: "cf", Qualifier: "v", Value: []byte("y")}); err != nil {
					b.Fatal(err)
				}
				if st, err := c.TableStats("t"); err != nil || st.LiveCells != uint64(n) {
					b.Fatalf("LiveCells = %d, %v; want %d", st.LiveCells, err, n)
				}
			}
		})
	}
}

func BenchmarkGet(b *testing.B) {
	c := testCluster(b)
	c.CreateTable("t", []string{"cf"}, nil)
	for i := 0; i < 10000; i++ {
		c.Put("t", Cell{Row: fmt.Sprintf("r%09d", i), Family: "cf", Qualifier: "v", Value: []byte("x")})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get("t", fmt.Sprintf("r%09d", i%10000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan10k(b *testing.B) {
	c := testCluster(b)
	c.CreateTable("t", []string{"cf"}, nil)
	for i := 0; i < 10000; i++ {
		c.Put("t", Cell{Row: fmt.Sprintf("r%09d", i), Family: "cf", Qualifier: "v", Value: []byte("x")})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := c.ScanAll(Scan{Table: "t", Caching: 1000})
		if err != nil || len(rows) != 10000 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

func TestGroupWriteMultiTableOneRPC(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "base", []string{"d"}, nil)
	mustCreate(t, c, "idx1", []string{"d"}, nil)
	mustCreate(t, c, "idx2", []string{"d"}, nil)

	before := c.Metrics().Snapshot()
	err := c.GroupWrite([]TableMutation{
		{Table: "base", Cells: []Cell{
			{Row: "r1", Family: "d", Qualifier: "join", Value: []byte("j1")},
			{Row: "r1", Family: "d", Qualifier: "score", Value: []byte("0.5")},
		}},
		{Table: "idx1", Cells: []Cell{
			{Row: "j1", Family: "d", Qualifier: "r1", Value: []byte("0.5")},
		}},
		{Table: "idx2", Cells: []Cell{
			{Row: "s0.5", Family: "d", Qualifier: "r1", Value: []byte("j1")},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := c.Metrics().Snapshot().Sub(before)
	if d.RPCCalls != 1 {
		t.Errorf("group write cost %d RPCs, want 1", d.RPCCalls)
	}
	if d.KVWrites != 4 {
		t.Errorf("group write counted %d KV writes, want 4", d.KVWrites)
	}

	// Every cell landed, and all share one timestamp.
	var ts int64
	for _, probe := range []struct{ table, row, qual string }{
		{"base", "r1", "join"}, {"base", "r1", "score"},
		{"idx1", "j1", "r1"}, {"idx2", "s0.5", "r1"},
	} {
		row, err := c.Get(probe.table, probe.row)
		if err != nil || row == nil {
			t.Fatalf("%s/%s: %v %v", probe.table, probe.row, row, err)
		}
		cell := row.Cell("d", probe.qual)
		if cell == nil {
			t.Fatalf("%s/%s/%s missing", probe.table, probe.row, probe.qual)
		}
		if ts == 0 {
			ts = cell.Timestamp
		} else if cell.Timestamp != ts {
			t.Errorf("%s/%s/%s ts %d != shared ts %d", probe.table, probe.row, probe.qual, cell.Timestamp, ts)
		}
	}
}

func TestGroupWritePartialFailureTyped(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "base", []string{"d"}, nil)
	err := c.GroupWrite([]TableMutation{
		{Table: "base", Cells: []Cell{{Row: "r1", Family: "d", Qualifier: "a", Value: []byte("x")}}},
		{Table: "gone", Cells: []Cell{{Row: "r1", Family: "d", Qualifier: "a", Value: []byte("x")}}},
	})
	gwe, ok := err.(*GroupWriteError)
	if !ok {
		t.Fatalf("error %v (%T), want *GroupWriteError", err, err)
	}
	if gwe.Table != "gone" {
		t.Errorf("failed table %q, want gone", gwe.Table)
	}
	if len(gwe.Applied) != 1 || gwe.Applied[0] != "base" {
		t.Errorf("applied %v, want [base]", gwe.Applied)
	}
	// The divergence is real: base got the cell.
	row, err2 := c.Get("base", "r1")
	if err2 != nil || row == nil || row.Cell("d", "a") == nil {
		t.Fatalf("base cell missing after partial failure: %v %v", row, err2)
	}

	// Re-applying the identical group with the same timestamp converges
	// without duplicating versions' visible state.
	mustCreate(t, c, "gone", []string{"d"}, nil)
	ts := row.Cell("d", "a").Timestamp
	if err := c.GroupWrite([]TableMutation{
		{Table: "base", Cells: []Cell{{Row: "r1", Family: "d", Qualifier: "a", Value: []byte("x"), Timestamp: ts}}},
		{Table: "gone", Cells: []Cell{{Row: "r1", Family: "d", Qualifier: "a", Value: []byte("x"), Timestamp: ts}}},
	}); err != nil {
		t.Fatalf("re-apply: %v", err)
	}
	got, err := c.Get("gone", "r1")
	if err != nil || got == nil || got.Cell("d", "a") == nil {
		t.Fatalf("gone cell missing after re-apply: %v %v", got, err)
	}
	if got.Cell("d", "a").Timestamp != ts {
		t.Errorf("re-applied ts %d != original %d", got.Cell("d", "a").Timestamp, ts)
	}
}

func TestGroupWriteEmptyAndBadFamily(t *testing.T) {
	c := testCluster(t)
	mustCreate(t, c, "base", []string{"d"}, nil)
	before := c.Metrics().Snapshot()
	if err := c.GroupWrite(nil); err != nil {
		t.Fatalf("empty group: %v", err)
	}
	if err := c.GroupWrite([]TableMutation{{Table: "base"}}); err != nil {
		t.Fatalf("empty table mutation: %v", err)
	}
	if d := c.Metrics().Snapshot().Sub(before); d.RPCCalls != 0 {
		t.Errorf("empty group charged %d RPCs", d.RPCCalls)
	}
	err := c.GroupWrite([]TableMutation{
		{Table: "base", Cells: []Cell{{Row: "r", Family: "nope", Qualifier: "a"}}},
	})
	gwe, ok := err.(*GroupWriteError)
	if !ok || gwe.Table != "base" || len(gwe.Applied) != 0 {
		t.Fatalf("bad family error = %v", err)
	}
}

func TestMutationSeqAdvancesOnWrites(t *testing.T) {
	c := testCluster(t)
	tab := mustCreate(t, c, "t", []string{"cf"}, nil)
	if tab.MutationSeq() != 0 {
		t.Fatalf("fresh table seq %d", tab.MutationSeq())
	}
	if err := c.Put("t", Cell{Row: "r", Family: "cf", Qualifier: "a", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	s1 := tab.MutationSeq()
	if s1 == 0 {
		t.Fatal("Put did not advance mutation seq")
	}
	st, err := c.TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.MutSeq != s1 {
		t.Errorf("TableStats.MutSeq %d != table seq %d", st.MutSeq, s1)
	}
	if err := deleteCell(c, "t", "r", "cf", "a", 0); err != nil {
		t.Fatal(err)
	}
	if tab.MutationSeq() <= s1 {
		t.Error("Delete did not advance mutation seq")
	}
}

// deleteCell writes one tombstone through GroupWrite (ts 0 stamps a
// fresh Now()).
func deleteCell(c *Cluster, table, row, family, qualifier string, ts int64) error {
	return c.GroupWrite([]TableMutation{{Table: table, Cells: []Cell{
		{Row: row, Family: family, Qualifier: qualifier, Timestamp: ts, Tombstone: true}}}})
}
