package kvstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// openDiskCluster opens a disk-backed cluster rooted at dir, failing the
// test on error.
func openDiskCluster(t *testing.T, dir string) *Cluster {
	t.Helper()
	c, err := OpenCluster(sim.LC(), dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// snapshotRows scans the whole table, failing the test on error.
func snapshotRows(t *testing.T, c *Cluster, table string) []Row {
	t.Helper()
	rows, err := c.ScanAll(Scan{Table: table})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// sstFilesOnDisk lists the .sst files present in dir.
func sstFilesOnDisk(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), sstFileSuffix) {
			out = append(out, e.Name())
		}
	}
	return out
}

// orphanSSTs lists the .sst files in dir that no region record of the
// store's current manifest references.
func orphanSSTs(t *testing.T, dir string, store *diskStore) []string {
	t.Helper()
	referenced := map[string]bool{}
	for _, mt := range store.snapshotManifest().Tables {
		for _, rec := range mt.Regions {
			for _, f := range rec.Files {
				referenced[f] = true
			}
		}
	}
	var out []string
	for _, f := range sstFilesOnDisk(t, dir) {
		if !referenced[f] {
			out = append(out, f)
		}
	}
	return out
}

// TestColdStartRecovery runs a randomized workload — multi-version puts,
// deletes, forced flushes and compactions on a two-region table — closes
// the cluster, reopens the directory, and requires the recovered table
// to match the pre-close snapshot exactly. New writes after reopen must keep working
// (sequence and clock floors advanced past everything recovered).
func TestColdStartRecovery(t *testing.T) {
	dir := t.TempDir()
	c := openDiskCluster(t, dir)
	c.SetFlushThreshold(2 << 10) // force real SSTables early
	mustCreate(t, c, "t", []string{"a", "b"}, []string{"row40"})

	rng := rand.New(rand.NewSource(7))
	live := map[string]bool{}
	for i := 0; i < 600; i++ {
		row := fmt.Sprintf("row%02d", rng.Intn(80))
		switch rng.Intn(10) {
		case 0:
			if err := deleteCell(c, "t", row, "a", "q", 0); err != nil {
				t.Fatal(err)
			}
			live[row] = false
		default:
			cell := Cell{Row: row, Family: "a", Qualifier: "q",
				Value: []byte(fmt.Sprintf("v%d", i))}
			if rng.Intn(3) == 0 {
				cell.Family, cell.Qualifier = "b", fmt.Sprintf("q%d", rng.Intn(4))
			}
			if err := c.Put("t", cell); err != nil {
				t.Fatal(err)
			}
			live[row] = true
		}
		switch i {
		case 200:
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
		case 450:
			regs, err := c.TableRegions("t")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range regs {
				if err := r.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	want := snapshotRows(t, c, "t")
	if len(want) == 0 {
		t.Fatal("workload produced no rows")
	}
	clockBefore := c.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := openDiskCluster(t, dir)
	got := snapshotRows(t, c2, "t")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered scan differs: %d rows vs %d before close", len(got), len(want))
	}

	// The recovered cluster must keep absorbing writes: timestamps stay
	// monotonic and a fresh put is immediately visible.
	if now := c2.Now(); now < clockBefore {
		t.Fatalf("recovered clock %d regressed below %d", now, clockBefore)
	}
	if err := c2.Put("t", Cell{Row: "row00", Family: "a", Qualifier: "q", Value: []byte("post")}); err != nil {
		t.Fatal(err)
	}
	row, err := c2.Get("t", "row00")
	if err != nil || row == nil {
		t.Fatalf("post-recovery read: %v %v", row, err)
	}
	found := false
	for _, cell := range row.Cells {
		if cell.Family == "a" && cell.Qualifier == "q" && string(cell.Value) == "post" {
			found = true
		}
	}
	if !found {
		t.Error("post-recovery write not visible")
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// dirBytes maps every file in dir to its contents.
func dirBytes(t testing.TB, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(raw)
	}
	return out
}

// TestOpenRefusesOtherManifestVersions: a MANIFEST of any format version
// but 1 fails the open with a FormatVersionError naming the file and the
// version — an unversioned one (the shape earlier builds wrote: region
// records in one flat list, tables naming theirs by ID) and a version-2
// one alike — and leaves the directory exactly as it was. The store
// holds unflushed WAL records and a stray SSTable, both of which an open
// that reached the orphan sweep would unlink.
func TestOpenRefusesOtherManifestVersions(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version uint32
		rewrite func(m map[string]any)
	}{
		{"unversioned", 0, func(m map[string]any) {
			delete(m, "Version")
			var regions []any
			for _, mt := range m["Tables"].([]any) {
				mt := mt.(map[string]any)
				var ids []any
				for _, rec := range mt["Regions"].([]any) {
					rec := rec.(map[string]any)
					rec["Table"] = mt["Name"]
					ids = append(ids, rec["ID"])
					regions = append(regions, rec)
				}
				delete(mt, "Regions")
				mt["RegionIDs"] = ids
			}
			m["Regions"] = regions
		}},
		{"version 2", 2, func(m map[string]any) { m["Version"] = 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := openDiskCluster(t, dir)
			mustCreate(t, c, "t", []string{"cf"}, []string{"m"})
			for i := 0; i < 52; i++ {
				row := fmt.Sprintf("%c%02d", 'a'+i%26, i)
				if err := c.Put("t", Cell{Row: row, Family: "cf", Qualifier: "q", Value: []byte(row)}); err != nil {
					t.Fatal(err)
				}
				if i == 30 {
					if err := c.FlushAll(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, manifestName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m map[string]any
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			tc.rewrite(m)
			if raw, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "000999"+sstFileSuffix), []byte("stray"), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirBytes(t, dir)
			if len(before[walName(1)]) == 0 || len(sstFilesOnDisk(t, dir)) < 2 {
				t.Fatalf("store holds %v, want a non-empty WAL and SSTables", sstFilesOnDisk(t, dir))
			}

			_, err = OpenCluster(sim.LC(), dir)
			var fve *FormatVersionError
			if !errors.As(err, &fve) {
				t.Fatalf("open: %v, want a FormatVersionError", err)
			}
			if want := (FormatVersionError{Path: manifestName, Version: tc.version, Supported: 1}); *fve != want {
				t.Errorf("error %+v, want %+v", *fve, want)
			}
			if errors.Is(err, ErrCorruption) {
				t.Error("a format-version mismatch is reported as corruption")
			}
			if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
				var names []string
				for name := range after {
					names = append(names, name)
				}
				t.Errorf("refused open changed the directory: now holds %v", names)
			}
		})
	}
}

// walFileLen returns the on-disk length of region r's WAL file, failing
// the test unless r.WALSize() reports exactly that length: the file is
// the log's only copy.
func walFileLen(t *testing.T, c *Cluster, r *Region) int64 {
	t.Helper()
	fi, err := os.Stat(c.state.store.walPath(r.id))
	if err != nil {
		t.Fatal(err)
	}
	if sz := r.WALSize(); sz != uint64(fi.Size()) {
		t.Fatalf("WALSize() = %d, but the WAL file holds %d bytes", sz, fi.Size())
	}
	return fi.Size()
}

// TestColdStartReplaysWAL covers the unflushed path: rows that only ever
// reached the WAL + memtable must survive an abrupt stop (no Close, file
// handles simply abandoned) because every mutation hit the log first —
// even when the stop tore an append, leaving part of a record after the
// acknowledged ones. Throughout, WALSize is the file's length: growing
// with every append, back to the acknowledged length once the torn
// tail is trimmed at open, and zero after a flush.
func TestColdStartReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	c := openDiskCluster(t, dir)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	r := mustRegion(t, c, "t")
	var size int64
	for i := 0; i < 50; i++ {
		cell := Cell{Row: fmt.Sprintf("r%03d", i), Family: "cf", Qualifier: "q",
			Value: []byte(fmt.Sprintf("v%d", i))}
		if err := c.Put("t", cell); err != nil {
			t.Fatal(err)
		}
		n := walFileLen(t, c, r)
		if n <= size {
			t.Fatalf("put %d left the WAL at %d bytes, was %d", i, n, size)
		}
		size = n
	}
	want := snapshotRows(t, c, "t")
	// No Close: simulate a crash with everything still in the memtable,
	// in the middle of appending one more record.
	path := c.state.store.walPath(r.id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, raw[:walRecordOverhead+4]...), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := openDiskCluster(t, dir)
	r2 := mustRegion(t, c2, "t")
	if n := walFileLen(t, c2, r2); n != size {
		t.Fatalf("WAL is %d bytes after the torn tail's trim, want the acknowledged %d", n, size)
	}
	got := snapshotRows(t, c2, "t")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WAL replay lost data: %d rows vs %d written", len(got), len(want))
	}
	if err := c2.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if n := walFileLen(t, c2, r2); n != 0 {
		t.Fatalf("WAL is %d bytes after a flush, want 0", n)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionCrashLosesNothing exercises the compaction GC protocol:
// a simulated crash between the manifest save and the obsolete-file
// unlink must lose no data, and the next open must remove the orphaned
// input files the crash left behind.
func TestCompactionCrashLosesNothing(t *testing.T) {
	dir := t.TempDir()
	c := openDiskCluster(t, dir)
	c.SetFlushThreshold(1 << 10)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	for i := 0; i < 300; i++ {
		cell := Cell{Row: fmt.Sprintf("r%03d", i%60), Family: "cf", Qualifier: "q",
			Value: []byte(fmt.Sprintf("value-%04d", i))}
		if err := c.Put("t", cell); err != nil {
			t.Fatal(err)
		}
	}
	regs, err := c.TableRegions("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	regs[0].mu.RLock()
	nSegs := len(regs[0].stores[0].runs)
	regs[0].mu.RUnlock()
	if nSegs < 2 {
		t.Fatalf("workload built %d segments, want >= 2 so compaction has real inputs", nSegs)
	}
	want := snapshotRows(t, c, "t")

	store := c.state.store
	store.mu.Lock()
	store.crashAfterRegister = true
	store.mu.Unlock()
	if err := regs[0].Compact(); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("Compact under crash hook: %v, want errSimulatedCrash", err)
	}
	// The crash window leaves the replaced inputs on disk as orphans:
	// the saved manifest references only the merged output.
	if len(orphanSSTs(t, dir, store)) == 0 {
		t.Fatal("crash hook left no orphan files; the simulated window is empty")
	}
	// Abandon c without Close: the process died mid-compaction.

	c2 := openDiskCluster(t, dir)
	got := snapshotRows(t, c2, "t")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compaction crash lost data: %d rows vs %d before crash", len(got), len(want))
	}
	// Recovery GC: every .sst still on disk is referenced by the
	// recovered manifest.
	if orphans := orphanSSTs(t, dir, c2.state.store); len(orphans) != 0 {
		t.Errorf("orphans %v survived recovery", orphans)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// flushFaultFS is a VFS that fails renames while failRename is set (the
// manifest's atomic replace never lands, so whatever a flush wrote stays
// unregistered) and fails the failCreate-th Create from now (1 = the
// next one; 0 = none).
type flushFaultFS struct {
	VFS
	failRename bool
	failCreate int
}

func (f *flushFaultFS) Rename(oldpath, newpath string) error {
	if f.failRename {
		return errors.New("injected rename failure")
	}
	return f.VFS.Rename(oldpath, newpath)
}

func (f *flushFaultFS) Create(path string) (File, error) {
	if f.failCreate > 0 {
		if f.failCreate--; f.failCreate == 0 {
			return nil, errors.New("injected create failure")
		}
	}
	return f.VFS.Create(path)
}

// TestFlushCrashTwoFamilies fails a flush that writes one SSTable per
// family at each point around its single manifest save. If the second
// family's file cannot be written the first is dropped again and the
// region keeps serving from its memtables. A crash before the save
// leaves both files as orphans the next open sweeps, and every
// acknowledged write comes back from the WAL; a crash after it (the
// crash-after-register hook) leaves both files registered. Never one
// family's file without the other's: a flush is not visible by halves.
func TestFlushCrashTwoFamilies(t *testing.T) {
	for _, crash := range []string{"second-write-fails", "before-register", "after-register"} {
		t.Run(crash, func(t *testing.T) {
			dir := t.TempDir()
			fsys := &flushFaultFS{VFS: DefaultVFS()}
			c, err := OpenClusterFS(sim.LC(), dir, fsys)
			if err != nil {
				t.Fatal(err)
			}
			mustCreate(t, c, "t", []string{"fa", "fb"}, nil)
			put := func(from, to int) {
				t.Helper()
				for i := from; i < to; i++ {
					for _, fam := range []string{"fa", "fb"} {
						cell := Cell{Row: fmt.Sprintf("r%03d", i), Family: fam, Qualifier: "q", Value: []byte(fmt.Sprintf("%s-%d", fam, i))}
						if err := c.Put("t", cell); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			put(0, 40)
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
			put(40, 80) // acknowledged, in the WAL and both family memtables
			want := snapshotRows(t, c, "t")
			before := len(sstFilesOnDisk(t, dir))

			store := c.state.store
			r := mustRegion(t, c, "t")
			left := 2 // SSTables the failed flush leaves behind
			switch crash {
			case "second-write-fails":
				fsys.failCreate, left = 2, 0
				if err := r.Flush(); err == nil {
					t.Fatal("flush succeeded although its second SSTable could not be created")
				}
				if got := snapshotRows(t, c, "t"); !reflect.DeepEqual(got, want) {
					t.Fatalf("failed flush changed what the region serves: %d rows vs %d", len(got), len(want))
				}
			case "before-register":
				fsys.failRename = true
				if err := r.Flush(); err == nil {
					t.Fatal("flush succeeded although the manifest save failed")
				}
			case "after-register":
				store.mu.Lock()
				store.crashAfterRegister = true
				store.mu.Unlock()
				if err := r.Flush(); !errors.Is(err, errSimulatedCrash) {
					t.Fatalf("Flush under crash hook: %v, want errSimulatedCrash", err)
				}
			}
			if got := len(sstFilesOnDisk(t, dir)) - before; got != left {
				t.Fatalf("failed flush left %d new SSTables, want %d", got, left)
			}
			// Abandon c without Close: the process died mid-flush.

			c2 := openDiskCluster(t, dir)
			if got := snapshotRows(t, c2, "t"); !reflect.DeepEqual(got, want) {
				t.Fatalf("flush crash lost data: %d rows vs %d acknowledged", len(got), len(want))
			}
			if orphans := orphanSSTs(t, dir, c2.state.store); len(orphans) != 0 {
				t.Errorf("orphans %v survived recovery", orphans)
			}
			registered := len(sstFilesOnDisk(t, dir)) - before
			if crash == "after-register" && registered != 2 || crash != "after-register" && registered != 0 {
				t.Errorf("%d of the failed flush's files are registered after reopen, want all or none", registered)
			}
			r2 := mustRegion(t, c2, "t")
			r2.mu.RLock()
			for _, st := range r2.stores {
				if wantRuns := 1 + registered/2; len(st.runs) != wantRuns {
					t.Errorf("family %q reopened with %d runs, want %d", st.family, len(st.runs), wantRuns)
				}
			}
			r2.mu.RUnlock()
			if err := c2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSSTableV1Refused pins the format guard: a version-1 SSTable (one
// mixed-family run per flush, no family in its meta block) met at open
// fails with a typed error naming the version — the store never opens
// and mis-groups its cells. The v1 file is a current one with a
// hand-patched footer.
func TestSSTableV1Refused(t *testing.T) {
	dir := t.TempDir()
	c := openDiskCluster(t, dir)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	if err := c.Put("t", Cell{Row: "r", Family: "cf", Qualifier: "q", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	files := sstFilesOnDisk(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d SSTables on disk, want 1", len(files))
	}
	path := filepath.Join(dir, files[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(raw[len(raw)-sstFooterLen+48:], 1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenCluster(sim.LC(), dir)
	var fve *FormatVersionError
	if !errors.As(err, &fve) {
		t.Fatalf("open over a v1 SSTable: %v, want a FormatVersionError", err)
	}
	if fve.Version != 1 || fve.Supported != sstVersion || fve.Path != files[0] || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("error %q (%+v) does not name file %s and version 1", err, fve, files[0])
	}
	if errors.Is(err, ErrCorruption) {
		t.Error("a format-version mismatch is reported as corruption")
	}
}

// TestBlockCacheServesRepeatReads checks the measured-I/O plumbing: a
// cold read pays block fetches, a repeat of the same read (row cache
// off) is served by the block cache.
func TestBlockCacheServesRepeatReads(t *testing.T) {
	dir := t.TempDir()
	c := openDiskCluster(t, dir)
	c.SetRowCacheBytes(0)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	for i := 0; i < 100; i++ {
		cell := Cell{Row: fmt.Sprintf("r%03d", i), Family: "cf", Qualifier: "q",
			Value: []byte(fmt.Sprintf("v%d", i))}
		if err := c.Put("t", cell); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("t", "r050"); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := c.BlockCacheStats()
	if misses0 == 0 {
		t.Fatal("cold read measured no block fetches")
	}
	if _, err := c.Get("t", "r050"); err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := c.BlockCacheStats()
	if misses1 != misses0 {
		t.Errorf("repeat read missed the block cache: %d misses, was %d", misses1, misses0)
	}
	if hits1 <= hits0 {
		t.Errorf("repeat read recorded no block-cache hits (%d -> %d)", hits0, hits1)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
