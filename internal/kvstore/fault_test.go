// Fault-schedule tests: drive the storage engine through deterministic
// injected failures (EIO, torn writes, lying fsync, bit-rot) via
// internal/faultfs and require the hardened contract everywhere —
// recover with zero acknowledged-write loss, or fail with a typed
// CorruptionError/IOError naming the damage. Panics and silent
// truncation are always bugs.
//
// The tests live in an external package because faultfs imports
// kvstore; they run against the exported API only, like a client would.
// Each test is gated on a named schedule so CI's fault matrix
// (KVSTORE_FAULT_SCHEDULE ∈ {eio-read, torn-write, bit-rot}) can run
// the groups separately under -race; with the variable unset a plain
// `go test` runs all of them.
package kvstore_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// gateSchedule skips the test unless its schedule is selected (or none
// is, in which case every schedule runs).
func gateSchedule(t *testing.T, name string) {
	t.Helper()
	if env := os.Getenv("KVSTORE_FAULT_SCHEDULE"); env != "" && env != name {
		t.Skipf("schedule %q not selected (KVSTORE_FAULT_SCHEDULE=%s)", name, env)
	}
}

// openFaultCluster opens dir through the given (possibly fault-laden)
// filesystem.
func openFaultCluster(t *testing.T, dir string, fsys kvstore.VFS) (*kvstore.Cluster, error) {
	t.Helper()
	return kvstore.OpenClusterFS(sim.LC(), dir, fsys)
}

// seedDiskTable creates table "t" with n flushed rows and closes the
// cluster, leaving a recoverable directory with real SSTables on disk.
func seedDiskTable(t *testing.T, dir string, n int) {
	t.Helper()
	c, err := openFaultCluster(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustPutRows(t, c, 0, n)
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// mustPutRows writes rows [from, to) into table "t", creating it if
// needed.
func mustPutRows(t *testing.T, c *kvstore.Cluster, from, to int) {
	t.Helper()
	if from == 0 {
		if _, err := c.CreateTable("t", []string{"cf"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := from; i < to; i++ {
		cell := kvstore.Cell{Row: fmt.Sprintf("row%03d", i), Family: "cf", Qualifier: "v",
			Value: []byte(fmt.Sprintf("val%d", i))}
		if err := c.Put("t", cell); err != nil {
			t.Fatal(err)
		}
	}
}

// scanRowKeys returns the table's row keys, failing on scan error.
func scanRowKeys(t *testing.T, c *kvstore.Cluster) []string {
	t.Helper()
	rows, err := c.ScanAll(kvstore.Scan{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(rows))
	for _, r := range rows {
		keys = append(keys, r.Key)
	}
	return keys
}

// TestFaultScheduleEIOReadRetried: two consecutive EIOs on the same
// SSTable read are transient — the bounded retry loop absorbs them and
// the open plus a full scan succeed with every row intact.
func TestFaultScheduleEIOReadRetried(t *testing.T) {
	gateSchedule(t, "eio-read")
	dir := t.TempDir()
	seedDiskTable(t, dir, 40)

	ffs := faultfs.New(nil, faultfs.Rule{
		PathContains: ".sst", Op: faultfs.OpRead, Nth: 1, Count: 2, Mode: faultfs.ModeErr,
	})
	c, err := openFaultCluster(t, dir, ffs)
	if err != nil {
		t.Fatalf("open under transient EIO failed: %v", err)
	}
	defer c.Close()
	if keys := scanRowKeys(t, c); len(keys) != 40 {
		t.Fatalf("recovered %d rows under transient EIO, want 40", len(keys))
	}
}

// TestFaultScheduleEIOReadExhaustedTyped: a persistent EIO outlives the
// retry budget and must surface as a typed *IOError naming the file and
// operation — with no partial rows pretending to be a result.
func TestFaultScheduleEIOReadExhaustedTyped(t *testing.T) {
	gateSchedule(t, "eio-read")
	dir := t.TempDir()
	seedDiskTable(t, dir, 40)

	ffs := faultfs.New(nil)
	c, err := openFaultCluster(t, dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ffs.AddRule(faultfs.Rule{PathContains: ".sst", Op: faultfs.OpRead, Mode: faultfs.ModeErr})

	rows, err := c.ScanAll(kvstore.Scan{Table: "t"})
	if err == nil {
		t.Fatalf("scan under persistent EIO returned %d rows and no error", len(rows))
	}
	var ioe *kvstore.IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("scan error is %T (%v), want *kvstore.IOError", err, err)
	}
	if !strings.HasSuffix(ioe.Path, ".sst") || ioe.Op != "read" {
		t.Errorf("IOError names %q op %q, want an .sst read", ioe.Path, ioe.Op)
	}
	if len(rows) != 0 {
		t.Errorf("scan returned %d rows alongside its error — silent truncation risk", len(rows))
	}
	if _, err := c.Get("t", "row005"); err == nil {
		t.Error("point get under persistent EIO succeeded")
	}
}

// TestFaultScheduleEIOReadMultiGetBillsNothing: a persistent EIO under
// a batched get fails ParallelMultiGet the way it fails MultiGet — the
// first failing read returns its typed *IOError — and neither call
// bills anything, although ParallelMultiGet's lanes read whole batches
// from unflushed regions before they reach the failing one.
func TestFaultScheduleEIOReadMultiGetBillsNothing(t *testing.T) {
	gateSchedule(t, "eio-read")
	ffs := faultfs.New(nil)
	c, err := openFaultCluster(t, t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CreateTable("t", []string{"cf"}, []string{"m"}); err != nil {
		t.Fatal(err)
	}
	put := func(prefix string) []string {
		var keys []string
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("%s%03d", prefix, i)
			keys = append(keys, key)
			if err := c.Put("t", kvstore.Cell{Row: key, Family: "cf", Qualifier: "v", Value: []byte(key)}); err != nil {
				t.Fatal(err)
			}
		}
		return keys
	}
	// Region [, m) is flushed to an SSTable; region [m, ) stays in its
	// memtable and reads no file. The request asks for the memtable rows
	// first, so the failing reads come in the last batches.
	flushed := put("a")
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	keys := append(put("x"), flushed...)
	c.SetRowCacheBytes(0)
	c.SetBlockCacheBytes(0)
	ffs.AddRule(faultfs.Rule{PathContains: ".sst", Op: faultfs.OpRead, Mode: faultfs.ModeErr})

	for _, call := range []struct {
		name string
		get  func() ([]*kvstore.Row, error)
	}{
		{"MultiGet", func() ([]*kvstore.Row, error) { return c.MultiGet("t", keys) }},
		{"ParallelMultiGet", func() ([]*kvstore.Row, error) { return c.ParallelMultiGet("t", keys, 4) }},
	} {
		before := c.Metrics().Snapshot()
		rows, err := call.get()
		var ioe *kvstore.IOError
		if !errors.As(err, &ioe) {
			t.Fatalf("%s under persistent EIO: rows %d, error %T (%v), want *kvstore.IOError", call.name, len(rows), err, err)
		}
		if !strings.HasSuffix(ioe.Path, ".sst") || ioe.Op != "read" {
			t.Errorf("%s: IOError names %q op %q, want an .sst read", call.name, ioe.Path, ioe.Op)
		}
		if rows != nil {
			t.Errorf("%s returned %d rows alongside its error", call.name, len(rows))
		}
		if got := c.Metrics().Snapshot().Sub(before); got != (sim.Snapshot{}) {
			t.Errorf("%s billed a failed call: %+v", call.name, got)
		}
	}
}

// TestFaultScheduleTornWriteOnFlush: the first SSTable write during a
// flush tears. The flush must fail typed, the memtable must keep every
// acknowledged row readable, and a crash-reopen of the directory must
// recover all of them from the WAL.
func TestFaultScheduleTornWriteOnFlush(t *testing.T) {
	gateSchedule(t, "torn-write")
	dir := t.TempDir()
	ffs := faultfs.New(nil, faultfs.Rule{
		PathContains: ".sst", Op: faultfs.OpWrite, Nth: 1, Count: 1, Mode: faultfs.ModeTornWrite,
	})
	c, err := openFaultCluster(t, dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	mustPutRows(t, c, 0, 30)

	err = c.FlushAll()
	if err == nil {
		t.Fatal("flush with torn SSTable write reported success")
	}
	var ioe *kvstore.IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("flush error is %T (%v), want *kvstore.IOError", err, err)
	}
	// The failed flush must not have lost the memtable.
	if keys := scanRowKeys(t, c); len(keys) != 30 {
		t.Fatalf("%d rows readable after failed flush, want 30", len(keys))
	}

	// Crash: abandon the handle, reopen the directory with a clean fs.
	c2, err := openFaultCluster(t, dir, nil)
	if err != nil {
		t.Fatalf("reopen after torn flush failed: %v", err)
	}
	defer c2.Close()
	if keys := scanRowKeys(t, c2); len(keys) != 30 {
		t.Fatalf("recovered %d rows after torn flush, want 30 — acknowledged-write loss", len(keys))
	}
}

// TestFaultScheduleTornWALAppend: one WAL append tears mid-record. The
// put must fail typed, later puts must keep working (the torn fragment
// is rolled out of the file, not left for a record to land after), and
// a crash-reopen must recover exactly the acknowledged rows.
func TestFaultScheduleTornWALAppend(t *testing.T) {
	gateSchedule(t, "torn-write")
	dir := t.TempDir()
	ffs := faultfs.New(nil, faultfs.Rule{
		PathContains: ".wal", Op: faultfs.OpWrite, Nth: 6, Count: 1, Mode: faultfs.ModeTornWrite,
	})
	c, err := openFaultCluster(t, dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", []string{"cf"}, nil); err != nil {
		t.Fatal(err)
	}
	regs, err := c.TableRegions("t")
	if err != nil {
		t.Fatal(err)
	}
	region := regs[0]
	walPath := filepath.Join(dir, fmt.Sprintf("r%06d.wal", region.ID()))
	acked := map[string]bool{}
	var tornRow string
	failures := 0
	var size uint64
	for i := 0; i < 12; i++ {
		row := fmt.Sprintf("row%03d", i)
		err := c.Put("t", kvstore.Cell{Row: row, Family: "cf", Qualifier: "v", Value: []byte("x")})
		// The file is the log's only copy: WALSize is its length, which
		// grows with every acknowledged append and is back at the last
		// acknowledged length after the torn one rolls back.
		fi, serr := os.Stat(walPath)
		if serr != nil {
			t.Fatal(serr)
		}
		if got := region.WALSize(); got != uint64(fi.Size()) || (err == nil) != (got > size) {
			t.Fatalf("put %d (err %v): WALSize %d, file %d bytes, acknowledged before %d", i, err, got, fi.Size(), size)
		}
		size = region.WALSize()
		if err != nil {
			failures++
			tornRow = row
			var ioe *kvstore.IOError
			if !errors.As(err, &ioe) {
				t.Fatalf("torn append error is %T (%v), want *kvstore.IOError", err, err)
			}
			continue
		}
		acked[row] = true
	}
	if failures != 1 {
		t.Fatalf("%d puts failed, want exactly 1 (the torn append)", failures)
	}

	// Crash-reopen: every acknowledged row, and only those, recover.
	c2, err := openFaultCluster(t, dir, nil)
	if err != nil {
		t.Fatalf("reopen after torn WAL append failed: %v", err)
	}
	defer c2.Close()
	keys := scanRowKeys(t, c2)
	if len(keys) != len(acked) {
		t.Fatalf("recovered %d rows, want %d acknowledged", len(keys), len(acked))
	}
	for _, k := range keys {
		if !acked[k] {
			t.Errorf("recovered unacknowledged row %q", k)
		}
		if k == tornRow {
			t.Errorf("torn row %q resurfaced after crash", k)
		}
	}
}

// TestFaultScheduleLyingSyncCrash: every fsync lies, then the machine
// loses power. Whatever the store can still prove intact it may serve;
// what it cannot, it must refuse loudly — a typed error, never a
// cluster that silently opens over rolled-back files.
func TestFaultScheduleLyingSyncCrash(t *testing.T) {
	gateSchedule(t, "torn-write")
	dir := t.TempDir()
	ffs := faultfs.New(nil,
		faultfs.Rule{Op: faultfs.OpSync, Mode: faultfs.ModeLyingSync},
		faultfs.Rule{Op: faultfs.OpSyncDir, Mode: faultfs.ModeLyingSync},
	)
	c, err := openFaultCluster(t, dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	mustPutRows(t, c, 0, 25)
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}

	c2, err := openFaultCluster(t, dir, nil)
	if err != nil {
		if !errors.Is(err, kvstore.ErrCorruption) {
			var ioe *kvstore.IOError
			if !errors.As(err, &ioe) {
				t.Fatalf("post-crash open error is %T (%v), want typed corruption or IO error", err, err)
			}
		}
		return // loud refusal: acceptable
	}
	defer c2.Close()
	// The open succeeded, so it vouches for the data: every
	// acknowledged row must be present and readable.
	if keys := scanRowKeys(t, c2); len(keys) != 25 {
		t.Fatalf("post-crash open succeeded but served %d rows of 25 — silent loss", len(keys))
	}
}

// TestFaultScheduleBitRotReadTyped: media rot flips one bit in a block
// read back from disk. The checksum must catch it and the read must
// fail with a CorruptionError naming file and offset — no partial rows,
// no panic.
func TestFaultScheduleBitRotReadTyped(t *testing.T) {
	gateSchedule(t, "bit-rot")
	dir := t.TempDir()
	seedDiskTable(t, dir, 60)

	ffs := faultfs.New(nil)
	c, err := openFaultCluster(t, dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ffs.AddRule(faultfs.Rule{PathContains: ".sst", Op: faultfs.OpRead, Mode: faultfs.ModeBitRot, Seed: 42})

	rows, err := c.ScanAll(kvstore.Scan{Table: "t"})
	if err == nil {
		t.Fatalf("scan under bit-rot returned %d rows and no error", len(rows))
	}
	if !errors.Is(err, kvstore.ErrCorruption) {
		t.Fatalf("scan error %v does not match ErrCorruption", err)
	}
	var ce *kvstore.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("scan error is %T, want *kvstore.CorruptionError", err)
	}
	if !strings.HasSuffix(ce.Path, ".sst") || ce.Offset < 0 {
		t.Errorf("CorruptionError names %q offset %d, want an .sst file and offset", ce.Path, ce.Offset)
	}
}

// TestScrubDetectsQuarantinesAndCharges: at-rest rot in one SSTable.
// Scrub must (1) report the file with a typed CorruptionError naming
// the offset while passing clean files, (2) quarantine the damaged
// table so reads fail loudly instead of missing rows, (3) leave the
// file on disk for repair, (4) keep clean tables fully readable, and
// (5) charge its verification I/O to the metrics like any client work.
func TestScrubDetectsQuarantinesAndCharges(t *testing.T) {
	gateSchedule(t, "bit-rot")
	dir := t.TempDir()
	c, err := openFaultCluster(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"good", "bad"} {
		if _, err := c.CreateTable(tbl, []string{"cf"}, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			cell := kvstore.Cell{Row: fmt.Sprintf("row%03d", i), Family: "cf", Qualifier: "v",
				Value: []byte(fmt.Sprintf("%s-%d", tbl, i))}
			if err := c.Put(tbl, cell); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// A clean scrub: no corruption, real verified blocks, charged work.
	before := c.Metrics().Snapshot()
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	delta := c.Metrics().Snapshot().Sub(before)
	if rep.Corrupt != 0 {
		t.Fatalf("clean store scrubbed corrupt: %+v", rep)
	}
	if len(rep.Files) < 2 {
		t.Fatalf("scrub saw %d files, want >= 2", len(rep.Files))
	}
	totalBlocks := 0
	var badFile string
	for _, f := range rep.Files {
		totalBlocks += f.Blocks
		if f.Table == "bad" && badFile == "" {
			badFile = f.Name
		}
	}
	if totalBlocks == 0 {
		t.Fatal("scrub verified zero blocks")
	}
	if delta.SimTime <= 0 && delta.RPCCalls == 0 {
		t.Errorf("scrub charged nothing: %+v", delta)
	}
	if badFile == "" {
		t.Fatal("no SSTable recorded for table bad")
	}

	// Rot one byte of table bad's SSTable, at rest, behind the engine's
	// back.
	path := filepath.Join(dir, badFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err = c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 {
		t.Fatalf("scrub found %d corrupt files, want 1", rep.Corrupt)
	}
	for _, f := range rep.Files {
		if f.Name == badFile {
			if !errors.Is(f.Err, kvstore.ErrCorruption) {
				t.Fatalf("rotted file error %v does not match ErrCorruption", f.Err)
			}
			var ce *kvstore.CorruptionError
			if !errors.As(f.Err, &ce) || ce.Offset < 0 {
				t.Fatalf("rotted file error %v lacks a frame offset", f.Err)
			}
		} else if f.Err != nil {
			t.Errorf("clean file %s reported %v", f.Name, f.Err)
		}
	}

	// Quarantined: listed, read path refuses loudly, file left on disk.
	if q := c.Quarantined(); len(q) != 1 || q[0] != badFile {
		t.Fatalf("Quarantined() = %v, want [%s]", q, badFile)
	}
	if _, err := c.ScanAll(kvstore.Scan{Table: "bad"}); !errors.Is(err, kvstore.ErrCorruption) {
		t.Fatalf("scan of quarantined table: %v, want ErrCorruption", err)
	}
	if _, err := c.Get("bad", "row010"); !errors.Is(err, kvstore.ErrCorruption) {
		t.Fatalf("get from quarantined table: %v, want ErrCorruption", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("quarantined file was deleted: %v", err)
	}

	// The clean table is untouched by its neighbor's quarantine.
	rows, err := c.ScanAll(kvstore.Scan{Table: "good"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("clean table serves %d rows, want 50", len(rows))
	}
}

// TestScrubQuarantineRefreshesTableStats: a quarantine takes a run off
// the read path, so it changes the table's visible contents exactly as
// a write would. The planner's statistics must say so: TableStats'
// LiveCells drops to what a fresh walk sees, and MutSeq — the key every
// cached derivation of the table validates against — moves.
func TestScrubQuarantineRefreshesTableStats(t *testing.T) {
	gateSchedule(t, "bit-rot")
	dir := t.TempDir()
	c, err := openFaultCluster(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CreateTable("bad", []string{"cf"}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		cell := kvstore.Cell{Row: fmt.Sprintf("row%03d", i), Family: "cf", Qualifier: "v", Value: []byte{byte(i)}}
		if err := c.Put("bad", cell); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	before, err := c.TableStats("bad")
	if err != nil {
		t.Fatal(err)
	}
	if before.LiveCells != 50 {
		t.Fatalf("LiveCells = %d before the rot, want 50", before.LiveCells)
	}
	rep, err := c.Scrub()
	if err != nil || len(rep.Files) != 1 {
		t.Fatalf("clean scrub: %+v, %v", rep, err)
	}
	path := filepath.Join(dir, rep.Files[0].Name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Scrub(); err != nil || rep.Corrupt != 1 {
		t.Fatalf("scrub of the rotted file: %+v, %v", rep, err)
	}
	after, err := c.TableStats("bad")
	if err != nil {
		t.Fatal(err)
	}
	if after.LiveCells != 0 {
		t.Errorf("LiveCells = %d after the quarantine, want 0 (the run is off the read path)", after.LiveCells)
	}
	if after.MutSeq == before.MutSeq {
		t.Errorf("MutSeq stayed %d across the quarantine", after.MutSeq)
	}
}

// TestScrubQuarantineIsPerFamily: each column family has its own store and
// files, so at-rest rot in one family's SSTable must fail only reads
// that ask for that family. On an ISL-shaped table (both relations'
// lists in one table, one family each) a rotted lineitem_pk file leaves
// part-only gets and scans of the same rows fully served, while every
// read that covers lineitem_pk — by name or by asking for all families:
// scans, gets, the anti-entropy snapshot — still fails typed,
// so a replica's repair escalates to a full resync exactly as before.
func TestScrubQuarantineIsPerFamily(t *testing.T) {
	gateSchedule(t, "bit-rot")
	dir := t.TempDir()
	c, err := openFaultCluster(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("isl", []string{"part", "lineitem_pk"}, nil); err != nil {
		t.Fatal(err)
	}
	const rows = 50
	for i := 0; i < rows; i++ {
		for _, fam := range []string{"part", "lineitem_pk"} {
			cell := kvstore.Cell{Row: fmt.Sprintf("row%03d", i), Family: fam, Qualifier: "v",
				Value: []byte(fmt.Sprintf("%s-%d", fam, i))}
			if err := c.Put("isl", cell); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil || rep.Corrupt != 0 {
		t.Fatalf("clean scrub: %+v, %v", rep, err)
	}
	badFile := ""
	for _, f := range rep.Files {
		if f.Family == "lineitem_pk" {
			badFile = f.Name
		}
	}
	if badFile == "" || len(rep.Files) != 2 {
		t.Fatalf("scrub saw files %+v, want one per family", rep.Files)
	}
	path := filepath.Join(dir, badFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err = c.Scrub(); err != nil || rep.Corrupt != 1 {
		t.Fatalf("scrub after rot: %+v, %v", rep, err)
	}
	if q := c.Quarantined(); len(q) != 1 || q[0] != badFile {
		t.Fatalf("Quarantined() = %v, want [%s]", q, badFile)
	}

	// The healthy family keeps serving the very rows the rot covers.
	got, err := c.ScanAll(kvstore.Scan{Table: "isl", Families: []string{"part"}})
	if err != nil || len(got) != rows {
		t.Fatalf("part-only scan beside a quarantined sibling: %d rows, %v; want %d", len(got), err, rows)
	}
	row, err := c.Get("isl", "row010", "part")
	if err != nil || row == nil || string(row.Cells[0].Value) != "part-10" {
		t.Fatalf("part-only get beside a quarantined sibling: %+v, %v", row, err)
	}

	// Anything that covers the rotted family fails loudly.
	for name, read := range map[string]func() error{
		"family scan": func() error {
			_, err := c.ScanAll(kvstore.Scan{Table: "isl", Families: []string{"lineitem_pk"}})
			return err
		},
		"all-family scan": func() error { _, err := c.ScanAll(kvstore.Scan{Table: "isl"}); return err },
		"family get":      func() error { _, err := c.Get("isl", "row010", "lineitem_pk"); return err },
		"all-family get":  func() error { _, err := c.Get("isl", "row010"); return err },
		"anti-entropy snapshot": func() error {
			_, err := c.TableCells("isl")
			return err
		},
	} {
		if err := read(); !errors.Is(err, kvstore.ErrCorruption) {
			t.Errorf("%s over the quarantined family: %v, want ErrCorruption", name, err)
		}
	}
}

// TestScrubQuarantineSurvivesFlushAndReopen: a quarantine is durable.
// After the scrub, the region's next flush and compaction each write a
// new manifest record, and a reopen rebuilds the region from it. Through
// all of them the rotted file must stay quarantined, stay on disk, and
// keep failing the reads that could touch it. Dropping it from the
// record instead lets the next open sweep it as an orphan, and the
// table then serves only the rows written after the scrub, with no
// error.
func TestScrubQuarantineSurvivesFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := openFaultCluster(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustPutRows(t, c, 0, 50)
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil || rep.Corrupt != 0 || len(rep.Files) != 1 {
		t.Fatalf("clean scrub: %+v, %v; want one clean file", rep, err)
	}
	badFile := rep.Files[0].Name
	path := filepath.Join(dir, badFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err = c.Scrub(); err != nil || rep.Corrupt != 1 {
		t.Fatalf("scrub after rot: %+v, %v", rep, err)
	}
	mustPutRows(t, c, 50, 51)
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}

	requireQuarantined := func(stage string, c *kvstore.Cluster) {
		t.Helper()
		if q := c.Quarantined(); len(q) != 1 || q[0] != badFile {
			t.Fatalf("%s: Quarantined() = %v, want [%s]", stage, q, badFile)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: quarantined file is gone: %v", stage, err)
		}
		if rows, err := c.ScanAll(kvstore.Scan{Table: "t"}); !errors.Is(err, kvstore.ErrCorruption) {
			t.Fatalf("%s: scan over the quarantined file returned %d rows, %v; want ErrCorruption", stage, len(rows), err)
		}
		if _, err := c.Get("t", "row010"); !errors.Is(err, kvstore.ErrCorruption) {
			t.Fatalf("%s: get of a quarantined row: %v, want ErrCorruption", stage, err)
		}
	}
	requireQuarantined("after flush", c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := openFaultCluster(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	requireQuarantined("after reopen", c2)
	regs, err := c2.TableRegions("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := regs[0].Compact(); err != nil {
		t.Fatal(err)
	}
	requireQuarantined("after compaction", c2)
	// A row outside the rotted file's span is still served.
	if row, err := c2.Get("t", "row050"); err != nil || row == nil {
		t.Fatalf("get of the row written after the scrub: %v, %v", row, err)
	}
}
