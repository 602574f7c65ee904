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
)

// sealOp is one step of a seeded write sequence.
type sealOp struct {
	cell   Cell
	delete bool
}

// sealOps returns a seeded sequence of puts, overwrites and deletes over
// 120 rows, two families and two qualifiers, in shuffled key order and
// with explicit timestamps, so two clusters given it hold the same cell
// versions.
func sealOps(seed int64, n int) []sealOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]sealOp, n)
	for i := range ops {
		c := Cell{
			Row:       fmt.Sprintf("r%03d", rng.Intn(120)),
			Family:    []string{"a", "b"}[rng.Intn(2)],
			Qualifier: []string{"q0", "q1"}[rng.Intn(2)],
			Timestamp: int64(i + 1),
		}
		if rng.Intn(10) < 3 {
			ops[i] = sealOp{cell: c, delete: true}
			continue
		}
		c.Value = []byte(fmt.Sprintf("v%d-%d", i, rng.Intn(1000)))
		ops[i] = sealOp{cell: c}
	}
	return ops
}

func applySealOps(t *testing.T, c *Cluster, ops []sealOp) {
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

// TestMemoryBillingIgnoresLayout pins what Seal relies on: in memory
// mode the rows a read returns and what it bills are the same whether
// the cells sit in a memtable, in a sealed run, or in a run with later
// writes in the memtable above it.
func TestMemoryBillingIgnoresLayout(t *testing.T) {
	const n = 900
	ops := sealOps(7, n)
	build := func(sealAt int) *Cluster {
		c := memCluster(t)
		if _, err := c.CreateTable("t", []string{"a", "b"}, []string{"r040", "r080"}); err != nil {
			t.Fatal(err)
		}
		applySealOps(t, c, ops[:sealAt])
		if sealAt > 0 {
			if err := c.Seal("t"); err != nil {
				t.Fatal(err)
			}
		}
		applySealOps(t, c, ops[sealAt:])
		return c
	}
	memtable, sealed, sealedThenWritten := build(0), build(n), build(n/2)

	regions, _ := sealed.TableRegions("t")
	for _, r := range regions {
		if got := r.MemtableCells(); got != 0 {
			t.Fatalf("region %d keeps %d memtable cells after Seal", r.ID(), got)
		}
	}
	want := billingTranscript(t, memtable)
	for name, c := range map[string]*Cluster{"sealed": sealed, "sealed then written": sealedThenWritten} {
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

// TestSealDiskModeIsNoOp checks that on a disk cluster Seal writes no
// SSTable and leaves the memtables, the WAL files and the MANIFEST as
// they were.
func TestSealDiskModeIsNoOp(t *testing.T) {
	dir := t.TempDir()
	c := openDiskCluster(t, dir)
	defer c.Close()
	if _, err := c.CreateTable("t", []string{"a", "b"}, []string{"r060"}); err != nil {
		t.Fatal(err)
	}
	applySealOps(t, c, sealOps(3, 300))
	regions, _ := c.TableRegions("t")
	state := func() string {
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
	before := state()
	for _, r := range regions {
		if r.MemtableCells() == 0 || r.WALSize() == 0 {
			t.Fatalf("region %d should hold logged, unflushed cells: %s", r.ID(), before)
		}
	}
	if err := c.Seal("t"); err != nil {
		t.Fatal(err)
	}
	if after := state(); after != before {
		t.Fatalf("Seal changed the disk store:\nbefore %s\n after %s", before, after)
	}
}

// TestSealDuringScan seals a table while scanners (several batch sizes,
// with and without prefetch) and a LocalScan are part-way through it:
// every row must still come back exactly once, in key order.
func TestSealDuringScan(t *testing.T) {
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

	var mid, done sync.WaitGroup
	mid.Add(len(consumers))
	sealing := make(chan struct{})
	results := make([][]string, len(consumers))
	errs := make([]error, len(consumers))
	for i, cs := range consumers {
		done.Add(1)
		go func() {
			defer done.Done()
			// A consumer that fails before its pause still releases
			// the seal.
			var once sync.Once
			reached := func() { once.Do(mid.Done) }
			defer reached()
			results[i], errs[i] = cs.drain(func() {
				reached()
				<-sealing
			})
		}()
	}
	mid.Wait()
	close(sealing)
	if err := c.Seal("t"); err != nil {
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
			t.Fatalf("region %d keeps %d memtable cells after Seal", r.ID(), got)
		}
	}
}
