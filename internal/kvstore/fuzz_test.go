package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// FuzzParseCellKey checks the parse→encode identity: any key
// parseCellKey accepts must re-encode byte-for-byte, so WAL replay and
// segment iteration can never silently rewrite a key.
func FuzzParseCellKey(f *testing.F) {
	f.Add(cellKey("row", "fam", "qual", 5, 7))
	f.Add(cellKey("", "", "", 0, 0))
	f.Add(cellKey("r", "f", "", -1, ^uint64(0)))
	f.Add("")
	f.Add("no separators at all")
	f.Add("row\x00fam\x00qual\x00short")
	f.Add(string(make([]byte, 19)))
	f.Fuzz(func(t *testing.T, k string) {
		row, family, qualifier, ts, seq, err := parseCellKey(k)
		if err != nil {
			return // malformed input rejected: fine
		}
		if re := cellKey(row, family, qualifier, ts, seq); re != k {
			t.Fatalf("parse/encode not identity:\n in %q\nout %q", k, re)
		}
	})
}

// fuzzBlockCells derives a deterministic, coordinate-sorted cell batch
// from raw fuzz bytes, mimicking what a flush feeds blockWriter.
func fuzzBlockCells(data []byte) []*Cell {
	byCoord := map[string]*Cell{}
	for i := 0; i+4 <= len(data); i += 4 {
		b := data[i : i+4]
		c := &Cell{
			Row:       fmt.Sprintf("r%02x", b[0]),
			Family:    "f",
			Qualifier: fmt.Sprintf("q%d", b[1]%8),
			Timestamp: int64(b[2]),
			Tombstone: b[3]&1 == 1,
		}
		if n := int(b[3] % 64); n > 0 {
			c.Value = bytes.Repeat([]byte{b[3]}, n)
		}
		coord := coordOf(c)
		if _, ok := byCoord[coord]; !ok {
			byCoord[coord] = c
		}
	}
	coords := make([]string, 0, len(byCoord))
	for k := range byCoord {
		coords = append(coords, k)
	}
	sort.Strings(coords)
	cells := make([]*Cell, len(coords))
	for i, k := range coords {
		cells[i] = byCoord[k]
	}
	return cells
}

// FuzzBlockCodec exercises the SSTable block codec from both ends. The
// input doubles as a hostile frame — decoding arbitrary, corrupted, or
// truncated bytes must return an error (or a well-formed block), never
// panic, and the same payload or error whether it decodes into a dirty
// reused buffer or into nil — and as a recipe for a valid block, whose
// cells must survive blockWriter → appendFrame → decodeFrame →
// decodeDataBlock unchanged.
func FuzzBlockCodec(f *testing.F) {
	// Seed the corpus with a genuine frame plus truncated and bit-flipped
	// variants so the fuzzer starts near the format.
	var bw blockWriter
	for i := 0; i < 64; i++ {
		bw.add(&Cell{
			Row:       fmt.Sprintf("row%03d", i/4),
			Family:    "f",
			Qualifier: fmt.Sprintf("q%d", i%4),
			Timestamp: int64(i),
			Value:     bytes.Repeat([]byte{'v'}, i%32),
		}, uint64(i))
	}
	payload, err := bw.finish()
	if err != nil {
		f.Fatal(err)
	}
	frame := appendFrame(nil, payload)
	f.Add(frame)
	f.Add(frame[:len(frame)/2])
	mangled := append([]byte(nil), frame...)
	mangled[len(mangled)/2] ^= 0x40
	f.Add(mangled)
	f.Add([]byte{})
	f.Add([]byte("not a frame at all"))
	// Meta blocks of the current format (version 2: the family leads),
	// whole, truncated, and with the family emptied — the shape a
	// version-1 meta block has when read as version 2.
	meta := encodeMetaBlock(sstMeta{family: "f", minRow: "row000", maxRow: "row015", count: 64, logical: 4096, maxTs: 63})
	f.Add(appendFrame(nil, meta))
	f.Add(appendFrame(nil, meta[:len(meta)-3]))
	f.Add(appendFrame(nil, encodeMetaBlock(sstMeta{minRow: "row000", maxRow: "row015", count: 64, logical: 4096, maxTs: 63})))

	// dirty is a decode buffer reused across inputs and scribbled over
	// before each: decoding into it must match decoding into nil.
	dirty := make([]byte, 0, 4<<10)
	decodeBoth := func(t *testing.T, frame []byte) ([]byte, error) {
		junk := dirty[:cap(dirty)]
		for i := range junk {
			junk[i] = 0xa5
		}
		reused, rerr := decodeFrame(dirty, frame)
		fresh, ferr := decodeFrame(nil, frame)
		if (rerr == nil) != (ferr == nil) || (rerr != nil && rerr.Error() != ferr.Error()) {
			t.Fatalf("decode into a reused buffer: %v; into nil: %v", rerr, ferr)
		}
		if ferr != nil {
			if !errors.Is(ferr, errCorruptBlock) {
				t.Fatalf("decode error %v does not wrap errCorruptBlock", ferr)
			}
			return nil, ferr
		}
		if !bytes.Equal(reused, fresh) {
			t.Fatalf("decode into a reused buffer gave %d bytes, into nil %d: payloads differ", len(reused), len(fresh))
		}
		if cap(reused) > cap(dirty) {
			dirty = reused[:0]
		}
		return fresh, nil
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Hostile path: every decoder must reject garbage gracefully. A
		// frame that happens to verify must still yield ordered cells.
		if p, err := decodeBoth(t, data); err == nil {
			if blk, derr := decodeDataBlock(p); derr == nil {
				keys, cells := dumpRun(&blk.sortedRun)
				if len(keys) != len(cells) || len(keys) != blk.len() {
					t.Fatalf("decoded block of %d entries has %d keys and %d cells", blk.len(), len(keys), len(cells))
				}
				if !sort.StringsAreSorted(keys) {
					t.Fatal("decoded block keys out of order")
				}
			}
			_, _ = decodeIndexBlock(p)
			if m, merr := decodeMetaBlock(p); merr == nil {
				// Cold start groups files by this name: a meta block
				// that decodes must name a family and survive a re-encode.
				if m.family == "" {
					t.Fatal("decoded meta block names no family")
				}
				if m2, rerr := decodeMetaBlock(encodeMetaBlock(m)); rerr != nil || m2 != m {
					t.Fatalf("meta block re-encode: %+v, %v, want %+v", m2, rerr, m)
				}
			}
		}
		if len(data) > 0 {
			if p, err := decodeBoth(t, data[:len(data)-1]); err == nil {
				_, _ = decodeDataBlock(p)
			}
		}

		// Round trip: cells derived from the same bytes must come back
		// byte-for-byte after a write/encode/decode cycle.
		cells := fuzzBlockCells(data)
		if len(cells) == 0 {
			return
		}
		var w blockWriter
		for i, c := range cells {
			w.add(c, uint64(i))
		}
		pay, err := w.finish()
		if err != nil {
			t.Fatalf("finish: %v", err)
		}
		decoded, err := decodeBoth(t, appendFrame(nil, pay))
		if err != nil {
			t.Fatalf("frame round trip: %v", err)
		}
		blk, err := decodeDataBlock(decoded)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		gotKeys, gotCells := dumpRun(&blk.sortedRun)
		if len(gotCells) != len(cells) {
			t.Fatalf("round trip returned %d cells, want %d", len(gotCells), len(cells))
		}
		for i, want := range cells {
			got := gotCells[i]
			if wk := cellKey(want.Row, want.Family, want.Qualifier, want.Timestamp, uint64(i)); gotKeys[i] != wk {
				t.Fatalf("cell %d: key %q, want %q", i, gotKeys[i], wk)
			}
			if got.Row != want.Row || got.Family != want.Family || got.Qualifier != want.Qualifier ||
				got.Timestamp != want.Timestamp || got.Tombstone != want.Tombstone ||
				!bytes.Equal(got.Value, want.Value) {
				t.Fatalf("cell %d mutated in round trip:\n got %+v\nwant %+v", i, got, want)
			}
		}
	})
}

// FuzzCellKeyRoundTrip checks the encode→parse identity for NUL-free
// components (NUL is excluded by ValidateKeyComponent at the API edge).
func FuzzCellKeyRoundTrip(f *testing.F) {
	f.Add("row", "fam", "qual", int64(42), uint64(7))
	f.Add("", "", "", int64(0), uint64(0))
	f.Add("a|b", "f1", "", int64(-5), ^uint64(0))
	f.Fuzz(func(t *testing.T, row, family, qualifier string, ts int64, seq uint64) {
		if strings.IndexByte(row, 0) >= 0 || strings.IndexByte(family, 0) >= 0 || strings.IndexByte(qualifier, 0) >= 0 {
			t.Skip("NUL bytes are rejected before keys are built")
		}
		k := cellKey(row, family, qualifier, ts, seq)
		gr, gf, gq, gts, gseq, err := parseCellKey(k)
		if err != nil {
			t.Fatalf("parse of own encoding failed: %v (key %q)", err, k)
		}
		if gr != row || gf != family || gq != qualifier || gts != ts || gseq != seq {
			t.Fatalf("round trip mismatch: (%q,%q,%q,%d,%d) -> (%q,%q,%q,%d,%d)",
				row, family, qualifier, ts, seq, gr, gf, gq, gts, gseq)
		}
	})
}

// FuzzWALReplay opens a WAL over hostile bytes — truncations, bit
// flips, adversarial length fields — and requires recover-or-typed-
// error: either the valid prefix loads and replays cleanly, or the open
// fails with a CorruptionError/IOError. Panics and silent acceptance of
// checksum-failing records are both bugs.
func FuzzWALReplay(f *testing.F) {
	// Seed with real logs: empty, a few records, a torn tail, a mid-log
	// bit flip, and garbage.
	dir, logs := f.TempDir(), 0
	mkLog := func(n int) []byte {
		logs++
		path := filepath.Join(dir, fmt.Sprintf("seed%d.wal", logs))
		w, _, err := openWAL(DefaultVFS(), path)
		if err != nil {
			f.Fatal(err)
		}
		defer w.close()
		for i := 0; i < n; i++ {
			c := &Cell{Value: []byte{byte(i), 0xab}, Tombstone: i%3 == 0}
			if err := w.append(cellKey("row", "cf", "q", int64(i+1), uint64(i+1)), c); err != nil {
				f.Fatal(err)
			}
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	f.Add([]byte{})
	f.Add(mkLog(3))
	f.Add(mkLog(5)[:mkLog(5)[0]+40])
	rotted := mkLog(4)
	rotted[walRecordOverhead/2] ^= 0x10
	f.Add(rotted)
	f.Add([]byte("not a log at all, just prose long enough to look like a header"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, logged, err := openWAL(DefaultVFS(), path)
		if err != nil {
			var ce *CorruptionError
			var ioe *IOError
			if !errors.As(err, &ce) && !errors.As(err, &ioe) {
				t.Fatalf("untyped open error: %T %v", err, err)
			}
			return
		}
		defer w.close()
		// The accepted prefix must replay without error, record counts
		// must agree, and every record must pass its checksum — openWAL
		// accepting a rotted record would be silent corruption.
		n := 0
		if err := replayWAL(logged, func(string, []byte, bool) error { n++; return nil }); err != nil {
			t.Fatalf("replay of accepted prefix failed: %v", err)
		}
		valid, records, err := walValidPrefix(logged)
		if err != nil || valid != len(logged) {
			t.Fatalf("accepted prefix is not fully valid: valid=%d len=%d err=%v", valid, len(logged), err)
		}
		if n != records {
			t.Fatalf("replayed %d records, walValidPrefix counted %d", n, records)
		}
		if w.size() != uint64(len(logged)) {
			t.Fatalf("log size %d after open, valid prefix %d bytes", w.size(), len(logged))
		}
	})
}

// FuzzManifestOpen opens a store directory under arbitrary MANIFEST
// bytes, beside the SSTable and WALs of a real store. Open must not
// panic: it returns a cluster or an error. A MANIFEST it refuses — of
// another format version, or bytes that do not decode — must leave every
// file of the directory as it was.
func FuzzManifestOpen(f *testing.F) {
	seed := f.TempDir()
	c, err := OpenCluster(sim.LC(), seed)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := c.CreateTable("t", []string{"cf"}, []string{"m"}); err != nil {
		f.Fatal(err)
	}
	for i, row := range []string{"a", "k", "p", "z"} {
		if err := c.Put("t", Cell{Row: row, Family: "cf", Qualifier: "q", Value: []byte(row)}); err != nil {
			f.Fatal(err)
		}
		if i == 1 {
			if err := c.FlushAll(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	files := dirBytes(f, seed)
	v1 := files[manifestName]
	f.Add([]byte(v1))
	f.Add([]byte(strings.Replace(v1, `"Version": 1,`, "", 1)))
	f.Add([]byte(strings.Replace(v1, `"Version": 1,`, `"Version": 2,`, 1)))
	f.Add([]byte(v1[:len(v1)/2]))
	f.Fuzz(func(t *testing.T, man []byte) {
		dir := t.TempDir()
		for name, raw := range files {
			if name == manifestName {
				raw = string(man)
			}
			if err := os.WriteFile(filepath.Join(dir, name), []byte(raw), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := dirBytes(t, dir)
		c, err := OpenCluster(sim.LC(), dir)
		if err == nil {
			if c == nil {
				t.Fatal("open returned neither a cluster nor an error")
			}
			c.Close()
			return
		}
		var fve *FormatVersionError
		var ce *CorruptionError
		if errors.As(err, &fve) || errors.As(err, &ce) && ce.Path == manifestName {
			if after := dirBytes(t, dir); !maps.Equal(after, before) {
				t.Fatalf("open refused the MANIFEST (%v) but changed the directory", err)
			}
		}
	})
}

// FuzzMemtableModel drives the arena skip list with a random sequence of
// puts, overwrites of an existing key, tombstones and seeks, against a
// sorted-map model: after every operation count and size agree, a seek
// lands on the model's lower bound, and at the end a full walk returns
// the model's entries in key order. The skip list's level sequence comes
// from the first input byte, so the fuzzer also varies the tower shapes.
func FuzzMemtableModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 1, 2, 3, 0, 1, 2, 9, 1, 1, 2, 3, 2, 0, 0, 0, 3, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{1, 0, 200, 13, 77, 2, 200, 13, 0}, 40))
	// Enough distinct puts to spill onto a second page of nodes, with
	// seeks across the page boundary.
	long := []byte{3}
	for i := 0; i < 1600; i++ {
		long = append(long, byte(i%7&3), byte(i), byte(i/256*37), byte(i))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		seed := int64(0)
		if len(data) > 0 {
			seed, data = int64(data[0]), data[1:]
		}
		m := newMemtable(seed)
		model := map[string]Cell{}
		var keys []string // sorted keys of model
		var size uint64

		lowerBound := func(k string) string {
			if i := sort.SearchStrings(keys, k); i < len(keys) {
				return keys[i]
			}
			return ""
		}
		check := func(op string, it *memtableIter, wantKey string) {
			t.Helper()
			if wantKey == "" {
				if it.valid() {
					t.Fatalf("%s: iterator at %q, model has nothing there", op, it.key())
				}
				return
			}
			want := model[wantKey]
			if !it.valid() || it.key() != wantKey {
				t.Fatalf("%s: iterator valid=%v, want key %q", op, it.valid(), wantKey)
			}
			if got := it.cell(); got.Row != want.Row || got.Family != want.Family || got.Qualifier != want.Qualifier ||
				got.Timestamp != want.Timestamp || got.Tombstone != want.Tombstone || !bytes.Equal(got.Value, want.Value) ||
				(len(got.Value) == 0 && got.Value != nil) {
				t.Fatalf("%s: at %q got %v, want %v", op, wantKey, got, &want)
			}
		}

		for i := 0; i+4 <= len(data); i += 4 {
			op, a, b, v := data[i]%4, data[i+1], data[i+2], data[i+3]
			c := Cell{Row: fmt.Sprintf("r%02x", a%32), Family: "f", Qualifier: fmt.Sprintf("q%d", b%3), Timestamp: int64(b % 4)}
			key := cellKey(c.Row, c.Family, c.Qualifier, c.Timestamp, uint64(a)<<8|uint64(b))
			switch op {
			case 0, 1: // put, or overwrite when the key exists
				if op == 1 && len(keys) > 0 {
					key = keys[int(a)%len(keys)]
					prev := model[key]
					c.Row, c.Qualifier, c.Timestamp = prev.Row, prev.Qualifier, prev.Timestamp
				}
				if n := int(v % 48); n > 0 {
					c.Value = bytes.Repeat([]byte{v}, n)
				}
			case 2: // tombstone
				c.Tombstone = true
			case 3: // seek only
				check("seek", m.iterator(key), lowerBound(key))
				check("seek past", m.iterator(key+"\x00"), lowerBound(key+"\x00"))
				continue
			}
			if old, ok := model[key]; ok {
				size -= old.StoredSize()
			} else {
				j := sort.SearchStrings(keys, key)
				keys = append(keys, "")
				copy(keys[j+1:], keys[j:])
				keys[j] = key
			}
			m.put(key, &c)
			for j := range c.Value {
				c.Value[j] ^= 0xff // the memtable must have copied it
			}
			stored := c
			stored.Value = nil
			if len(c.Value) > 0 {
				stored.Value = bytes.Repeat([]byte{v}, len(c.Value))
			}
			model[key] = stored
			size += stored.StoredSize()
			if m.count != len(keys) || m.size != size {
				t.Fatalf("after put %q: count %d size %d, model %d entries of %d bytes", key, m.count, m.size, len(keys), size)
			}
			check("seek to the key just put", m.iterator(key), key)
		}

		it := m.iterator("")
		for _, k := range keys {
			check("walk", it, k)
			it.next()
		}
		check("walk end", it, "")
	})
}
