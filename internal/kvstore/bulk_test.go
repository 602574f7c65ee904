package kvstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// seededOp is one step of a seeded write sequence.
type seededOp struct {
	cell   Cell
	delete bool
}

// seededOps returns a seeded sequence of puts, overwrites and deletes over
// 120 rows, two families and two qualifiers, in shuffled key order and
// with explicit timestamps, so two clusters given it hold the same cell
// versions.
func seededOps(seed int64, n int) []seededOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]seededOp, n)
	for i := range ops {
		c := Cell{
			Row:       fmt.Sprintf("r%03d", rng.Intn(120)),
			Family:    []string{"a", "b"}[rng.Intn(2)],
			Qualifier: []string{"q0", "q1"}[rng.Intn(2)],
			Timestamp: int64(i + 1),
		}
		if rng.Intn(10) < 3 {
			ops[i] = seededOp{cell: c, delete: true}
			continue
		}
		c.Value = []byte(fmt.Sprintf("v%d-%d", i, rng.Intn(1000)))
		ops[i] = seededOp{cell: c}
	}
	return ops
}

func applySeededOps(t *testing.T, c *Cluster, ops []seededOp) {
	t.Helper()
	for _, op := range ops {
		var err error
		if op.delete {
			err = deleteCell(c, "t", op.cell.Row, op.cell.Family, op.cell.Qualifier, op.cell.Timestamp)
		} else {
			err = c.Put("t", op.cell)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// renderRows prints rows, nil entries included, for comparison.
func renderRows(rows []*Row) string {
	var b strings.Builder
	for _, r := range rows {
		if r == nil {
			b.WriteString("<nil>;")
			continue
		}
		b.WriteString(r.Key + ":")
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %s/%s@%d=%q", c.Family, c.Qualifier, c.Timestamp, c.Value)
		}
		b.WriteString(";")
	}
	return b.String()
}

// billingTranscript runs one fixed sequence of reads — scans (whole,
// one row per batch, family-restricted), gets, MultiGet,
// ParallelMultiGet and a LocalScan of every region — and records each
// read's rows beside the simulated-cost snapshot after it (and
// LocalScan's OpStats).
func billingTranscript(t *testing.T, c *Cluster) []string {
	t.Helper()
	c.Metrics().Reset()
	var out []string
	note := func(what, rows string) {
		out = append(out, fmt.Sprintf("%s %s | %+v", what, rows, c.Metrics().Snapshot()))
	}
	for _, s := range []Scan{
		{Table: "t", Caching: 7},
		{Table: "t", Caching: 1},
		{Table: "t", Caching: 13, Families: []string{"b"}},
		{Table: "t", Caching: 5, Families: []string{"a"}},
	} {
		rows, err := c.ScanAll(s)
		if err != nil {
			t.Fatal(err)
		}
		ptrs := make([]*Row, len(rows))
		for i := range rows {
			ptrs[i] = &rows[i]
		}
		note(fmt.Sprintf("scan %+v", s), renderRows(ptrs))
	}
	var keys []string
	for i := 0; i < 125; i += 3 {
		keys = append(keys, fmt.Sprintf("r%03d", i))
	}
	for _, k := range keys[:10] {
		for range 2 { // the second get may come from the row cache
			r, err := c.Get("t", k)
			if err != nil {
				t.Fatal(err)
			}
			note("get "+k, renderRows([]*Row{r}))
		}
		r, err := c.Get("t", k, "a")
		if err != nil {
			t.Fatal(err)
		}
		note("get "+k+" a", renderRows([]*Row{r}))
	}
	rows, err := c.MultiGet("t", keys)
	if err != nil {
		t.Fatal(err)
	}
	note("multiget", renderRows(rows))
	rows, err = c.ParallelMultiGet("t", keys, 3, "b")
	if err != nil {
		t.Fatal(err)
	}
	note("parallel multiget", renderRows(rows))
	regions, err := c.TableRegions("t")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		var b strings.Builder
		st, err := r.LocalScan(nil, nil, func(row *Row) error {
			b.WriteString(renderRows([]*Row{row}))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("localscan %d %s | %+v", r.ID(), b.String(), st))
	}
	return out
}

// TestMemoryBillingIgnoresLayout pins what the bulk door relies on: in
// memory mode the rows a read returns and what it bills are the same
// whether the cells sit in a memtable, in a flushed run, or in a run
// with later writes in the memtable above it.
func TestMemoryBillingIgnoresLayout(t *testing.T) {
	const n = 900
	ops := seededOps(7, n)
	build := func(flushAt int) *Cluster {
		c := memCluster(t)
		if _, err := c.CreateTable("t", []string{"a", "b"}, []string{"r040", "r080"}); err != nil {
			t.Fatal(err)
		}
		applySeededOps(t, c, ops[:flushAt])
		if flushAt > 0 {
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
		applySeededOps(t, c, ops[flushAt:])
		return c
	}
	memtable, flushed, flushedThenWritten := build(0), build(n), build(n/2)

	regions, _ := flushed.TableRegions("t")
	for _, r := range regions {
		if got := r.MemtableCells(); got != 0 {
			t.Fatalf("region %d keeps %d memtable cells after a flush", r.ID(), got)
		}
	}
	want := billingTranscript(t, memtable)
	for name, c := range map[string]*Cluster{"flushed": flushed, "flushed then written": flushedThenWritten} {
		got := billingTranscript(t, c)
		if len(got) != len(want) {
			t.Fatalf("%s: %d reads, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: read %d differs from the memtable store:\n got %s\nwant %s", name, i, got[i], want[i])
			}
		}
	}
}

// seededCells turns a seeded write sequence into the cells a batched
// write of it carries: a delete becomes a tombstone cell.
func seededCells(ops []seededOp) []Cell {
	cells := make([]Cell, len(ops))
	for i, op := range ops {
		cells[i] = op.cell
		cells[i].Tombstone = op.delete
	}
	return cells
}

// perRowWrite is the per-row path the bulk door's memory mode replaces:
// each zero timestamp stamped with its own Now() in input order, then
// consecutive cells of one row in a part applied as one row mutation
// through the WAL and the memtable.
func perRowWrite(c *Cluster, table string, parts ...[]Cell) error {
	t, err := c.table(table)
	if err != nil {
		return err
	}
	for _, p := range parts {
		for i := range p {
			if p[i].Timestamp == 0 {
				p[i].Timestamp = c.Now()
			}
		}
		for i := 0; i < len(p); {
			j := i + 1
			for j < len(p) && p[j].Row == p[i].Row {
				j++
			}
			if err := t.applyRow(p[i:j]); err != nil {
				return err
			}
			i = j
		}
	}
	return nil
}

// TestBulkWriteDiskModeMatchesPerRow checks that on a disk cluster the
// bulk door takes the per-row path: the same files, MANIFEST bytes, WAL
// lengths and memtable cells as per-row writes of the same cells. At
// the default threshold it writes no SSTable and leaves the cells
// logged in the memtables; at a small one it flushes exactly where
// per-row writes flush.
func TestBulkWriteDiskModeMatchesPerRow(t *testing.T) {
	open := func() (*Cluster, string, []*Region) {
		dir := t.TempDir()
		c := openDiskCluster(t, dir)
		t.Cleanup(func() { c.Close() })
		if _, err := c.CreateTable("t", []string{"a", "b"}, []string{"r060"}); err != nil {
			t.Fatal(err)
		}
		regions, _ := c.TableRegions("t")
		return c, dir, regions
	}
	bulk, bulkDir, bulkRegions := open()
	perRow, perRowDir, perRowRegions := open()
	state := func(dir string, regions []*Region) string {
		var b strings.Builder
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b.WriteString(e.Name() + " ")
		}
		manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "| manifest %q |", manifest)
		for _, r := range regions {
			fmt.Fprintf(&b, " region %d wal %d mem %d", r.ID(), r.WALSize(), r.MemtableCells())
		}
		return b.String()
	}
	same := func(step string) {
		t.Helper()
		got, want := state(bulkDir, bulkRegions), state(perRowDir, perRowRegions)
		if got != want {
			t.Fatalf("%s: the bulk door left the disk store\n %s\nper-row writes left\n %s", step, got, want)
		}
	}

	cells := seededCells(seededOps(3, 300))
	if _, err := bulk.BulkWrite("t", slices.Clone(cells[:120]), slices.Clone(cells[120:])); err != nil {
		t.Fatal(err)
	}
	if err := perRowWrite(perRow, "t", slices.Clone(cells[:120]), slices.Clone(cells[120:])); err != nil {
		t.Fatal(err)
	}
	for _, r := range bulkRegions {
		if r.MemtableCells() == 0 || r.WALSize() == 0 {
			t.Fatalf("region %d should hold logged, unflushed cells: %s", r.ID(), state(bulkDir, bulkRegions))
		}
	}
	if strings.Contains(state(bulkDir, bulkRegions), ".sst") {
		t.Fatalf("a bulk write under the flush threshold wrote an SSTable: %s", state(bulkDir, bulkRegions))
	}
	same("under the threshold")

	bulk.SetFlushThreshold(2 << 10)
	perRow.SetFlushThreshold(2 << 10)
	cells = seededCells(seededOps(4, 400))
	if _, err := bulk.BulkWrite("t", slices.Clone(cells)); err != nil {
		t.Fatal(err)
	}
	if err := perRowWrite(perRow, "t", slices.Clone(cells)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(state(bulkDir, bulkRegions), ".sst") {
		t.Fatalf("a bulk write over the flush threshold wrote no SSTable: %s", state(bulkDir, bulkRegions))
	}
	same("over the threshold")
	if got, want := billingTranscript(t, bulk), billingTranscript(t, perRow); !slices.Equal(got, want) {
		t.Fatalf("reads differ after the bulk write:\n got %q\nwant %q", got, want)
	}
}

// TestBulkWriteDuringScan lands a bulk write — a new version of every
// row, same value — on a table while scanners (several batch sizes,
// with and without prefetch) and a LocalScan are part-way through it:
// every row must still come back exactly once, in key order, and the
// write must leave no memtable cell behind.
func TestBulkWriteDuringScan(t *testing.T) {
	c := memCluster(t)
	if _, err := c.CreateTable("t", []string{"cf"}, []string{"k02500"}); err != nil {
		t.Fatal(err)
	}
	const rows = 5000
	keys := make([]string, rows)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
	}
	shuffled := slices.Clone(keys)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for i := 0; i < rows; i += 500 {
		batch := make([]Cell, 0, 500)
		for _, k := range shuffled[i : i+500] {
			batch = append(batch, Cell{Row: k, Family: "cf", Qualifier: "v", Value: []byte(k)})
		}
		if err := c.BatchPut("t", batch); err != nil {
			t.Fatal(err)
		}
	}

	type consumer struct {
		name string
		// drain reads until it has seen mid rows, calls paused, and
		// reads the rest, returning every key it saw.
		drain func(paused func()) ([]string, error)
	}
	var consumers []consumer
	for _, caching := range []int{1, 7, 100} {
		for _, prefetch := range []bool{false, true} {
			s := Scan{Table: "t", Caching: caching, Prefetch: prefetch}
			consumers = append(consumers, consumer{fmt.Sprintf("scanner %+v", s), func(paused func()) ([]string, error) {
				sc, err := c.OpenScanner(s)
				if err != nil {
					return nil, err
				}
				var seen []string
				for {
					if len(seen) == rows/3 {
						paused()
					}
					row, err := sc.Next()
					if err != nil || row == nil {
						return seen, err
					}
					if string(row.Cells[0].Value) != row.Key {
						return seen, fmt.Errorf("row %q holds value %q", row.Key, row.Cells[0].Value)
					}
					seen = append(seen, row.Key)
				}
			}})
		}
	}
	regions, _ := c.TableRegions("t")
	consumers = append(consumers, consumer{"LocalScan", func(paused func()) ([]string, error) {
		var seen []string
		_, err := regions[0].LocalScan(nil, nil, func(row *Row) error {
			if len(seen) == 100 {
				paused()
			}
			seen = append(seen, row.Key)
			return nil
		})
		return seen, err
	}})

	rewrite := make([]Cell, 0, rows)
	for _, k := range shuffled {
		rewrite = append(rewrite, Cell{Row: k, Family: "cf", Qualifier: "v", Value: []byte(k)})
	}

	var mid, done sync.WaitGroup
	mid.Add(len(consumers))
	landing := make(chan struct{})
	results := make([][]string, len(consumers))
	errs := make([]error, len(consumers))
	for i, cs := range consumers {
		done.Add(1)
		go func() {
			defer done.Done()
			// A consumer that fails before its pause still releases
			// the bulk write.
			var once sync.Once
			reached := func() { once.Do(mid.Done) }
			defer reached()
			results[i], errs[i] = cs.drain(func() {
				reached()
				<-landing
			})
		}()
	}
	mid.Wait()
	close(landing)
	if _, err := c.BulkWrite("t", rewrite); err != nil {
		t.Fatal(err)
	}
	done.Wait()

	for i, cs := range consumers {
		if errs[i] != nil {
			t.Fatalf("%s: %v", cs.name, errs[i])
		}
		want := keys
		if cs.name == "LocalScan" {
			want = keys[:rows/2]
		}
		if !slices.Equal(results[i], want) {
			t.Fatalf("%s: read %d rows, want each of %d once and in order", cs.name, len(results[i]), len(want))
		}
	}
	for _, r := range regions {
		if got := r.MemtableCells(); got != 0 {
			t.Fatalf("region %d keeps %d memtable cells after the bulk write", r.ID(), got)
		}
	}
}

// storeDump renders every family store of table's regions: the
// internal keys, tombstone bits and values of its memtable and of each
// run, newest run first.
func storeDump(t *testing.T, c *Cluster, table string) string {
	t.Helper()
	regions, err := c.TableRegions(table)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	dump := func(it cellIter) {
		for ; it.valid(); it.next() {
			cell := it.cell()
			fmt.Fprintf(&b, " %x/%v=%q", it.key(), cell.Tombstone, cell.Value)
		}
		if err := it.fail(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range regions {
		r.mu.RLock()
		for _, st := range r.stores {
			fmt.Fprintf(&b, "region %d family %s\n mem:", r.ID(), st.family)
			dump(st.mem.iterator(""))
			for i, s := range st.runs {
				fmt.Fprintf(&b, "\n run %d:", i)
				dump(s.iterAt("", nil))
			}
			b.WriteString("\n")
		}
		r.mu.RUnlock()
	}
	return b.String()
}

// bulkFuzzCells returns n seeded cells over rows r000..r<rows-1>, three
// families and three qualifiers (one empty): rows shuffled, repeated
// back to back and across the input, half the timestamps zero and the
// rest explicit and colliding, a fifth of the cells tombstones.
func bulkFuzzCells(rng *rand.Rand, n, rows int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		c := Cell{
			Row:       fmt.Sprintf("r%03d", rng.Intn(rows)),
			Family:    []string{"a", "b", "c"}[rng.Intn(3)],
			Qualifier: []string{"q0", "q1", ""}[rng.Intn(3)],
		}
		if i > 0 && rng.Intn(3) == 0 {
			c.Row = cells[i-1].Row
		}
		if rng.Intn(2) == 0 {
			c.Timestamp = 1 + rng.Int63n(40)
		}
		c.Tombstone = rng.Intn(5) == 0
		if l := rng.Intn(12); l > 0 {
			c.Value = []byte(fmt.Sprintf("%0*d", l, rng.Intn(1000)))
		}
		cells[i] = c
	}
	return cells
}

// FuzzBulkRunMatchesFlush holds the memory-mode bulk door to the
// per-row path it replaces — per-row writes through the memtable, then
// a flush of every region. Both clusters first take the same seeded
// writes through BatchPut, optionally flushed chunk by chunk into runs
// (enough of them to compact), with the live count maintained and the
// row caches filled; then one gets a bulk write in several parts and
// the other the per-row writes and the flush. They must hold the same
// run keys and values, return the same rows and bill the same OpStats
// to every scan, get, MultiGet and LocalScan, report the same
// TableStats, and have stamped the same clock.
func FuzzBulkRunMatchesFlush(f *testing.F) {
	f.Setenv("KVSTORE_DISK", "")
	f.Add(int64(1), uint16(300), uint16(0), uint8(0))
	f.Add(int64(2), uint16(500), uint16(200), uint8(1))
	f.Add(int64(3), uint16(80), uint16(400), uint8(2|4*5|1))
	f.Add(int64(4), uint16(0), uint16(60), uint8(2))
	f.Add(int64(5), uint16(900), uint16(300), uint8(3|4*3|128))
	f.Add(int64(6), uint16(400), uint16(200), uint8(2|64))
	f.Fuzz(func(t *testing.T, seed int64, bulkN, preN uint16, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows := 120
		if mode&128 != 0 {
			rows = 70 // the last region gets nothing staged
		}
		pre := bulkFuzzCells(rng, int(preN%600), rows)
		bulk := bulkFuzzCells(rng, int(bulkN%1500), rows)
		chunks := 1 + int(mode>>2&31)%6
		cuts := []int{0, len(bulk) / 3, len(bulk) * 2 / 3, len(bulk)}

		build := func(door bool) *Cluster {
			c, err := NewCluster(sim.LC())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.CreateTable("t", []string{"a", "b", "c"}, []string{"r040", "r080"}); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < chunks; k++ {
				if err := c.BatchPut("t", slices.Clone(pre[k*len(pre)/chunks:(k+1)*len(pre)/chunks])); err != nil {
					t.Fatal(err)
				}
				if mode&1 != 0 && k < chunks-1 {
					if err := c.FlushAll(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if mode&2 != 0 {
				if _, err := c.TableStats("t"); err != nil { // count from here on
					t.Fatal(err)
				}
			}
			if mode&64 != 0 { // fill the row caches, which the write must invalidate
				for i := 0; i < rows; i++ {
					if _, err := c.Get("t", fmt.Sprintf("r%03d", i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			parts := make([][]Cell, 3)
			for i := range parts {
				parts[i] = slices.Clone(bulk[cuts[i]:cuts[i+1]])
			}
			if door {
				n, err := c.BulkWrite("t", parts...)
				if err != nil {
					t.Fatal(err)
				}
				var want uint64
				for i := range bulk {
					want += bulk[i].StoredSize()
				}
				if n != want {
					t.Fatalf("BulkWrite reported %d bytes, the cells hold %d", n, want)
				}
				return c
			}
			if err := perRowWrite(c, "t", parts...); err != nil {
				t.Fatal(err)
			}
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
			return c
		}
		got, want := build(true), build(false)

		if g, w := storeDump(t, got, "t"), storeDump(t, want, "t"); g != w {
			t.Fatalf("runs differ:\nbulk door:\n%s\nper-row then flush:\n%s", g, w)
		}
		gs, err := got.TableStats("t")
		if err != nil {
			t.Fatal(err)
		}
		ws, err := want.TableStats("t")
		if err != nil {
			t.Fatal(err)
		}
		if gs != ws {
			t.Fatalf("TableStats %+v, per-row then flush %+v", gs, ws)
		}
		if g, w := billingTranscript(t, got), billingTranscript(t, want); !slices.Equal(g, w) {
			for i := range min(len(g), len(w)) {
				if g[i] != w[i] {
					t.Fatalf("read %d differs:\n got %s\nwant %s", i, g[i], w[i])
				}
			}
			t.Fatalf("%d reads, want %d", len(g), len(w))
		}
		if g, w := got.Now(), want.Now(); g != w {
			t.Fatalf("clock at %d after the bulk write, per-row path at %d", g, w)
		}
	})
}
