package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
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
// panic — and as a recipe for a valid block, whose cells must survive
// blockWriter → encodeFrame → decodeFrame → decodeDataBlock unchanged.
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
	frame := encodeFrame(payload)
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
	f.Add(encodeFrame(meta))
	f.Add(encodeFrame(meta[:len(meta)-3]))
	f.Add(encodeFrame(encodeMetaBlock(sstMeta{minRow: "row000", maxRow: "row015", count: 64, logical: 4096, maxTs: 63})))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Hostile path: every decoder must reject garbage gracefully. A
		// frame that happens to verify must still yield ordered cells.
		if p, err := decodeFrame(data); err == nil {
			if blk, derr := decodeDataBlock(p); derr == nil {
				if len(blk.keys) != len(blk.cells) {
					t.Fatalf("decoded block has %d keys but %d cells", len(blk.keys), len(blk.cells))
				}
				if !sort.StringsAreSorted(blk.keys) {
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
			if p, err := decodeFrame(data[:len(data)-1]); err == nil {
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
		decoded, err := decodeFrame(encodeFrame(pay))
		if err != nil {
			t.Fatalf("frame round trip: %v", err)
		}
		blk, err := decodeDataBlock(decoded)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if len(blk.cells) != len(cells) {
			t.Fatalf("round trip returned %d cells, want %d", len(blk.cells), len(cells))
		}
		for i, want := range cells {
			got := blk.cells[i]
			if wk := cellKey(want.Row, want.Family, want.Qualifier, want.Timestamp, uint64(i)); blk.keys[i] != wk {
				t.Fatalf("cell %d: key %q, want %q", i, blk.keys[i], wk)
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
	mkLog := func(n int) []byte {
		w := &wal{}
		for i := 0; i < n; i++ {
			c := &Cell{Value: []byte{byte(i), 0xab}, Tombstone: i%3 == 0}
			if err := w.append(cellKey("row", "cf", "q", int64(i+1), uint64(i+1)), c); err != nil {
				f.Fatal(err)
			}
		}
		return w.buf
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
		w, err := openWAL(DefaultVFS(), path)
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
		if err := w.replay(func(string, []byte, bool) error { n++; return nil }); err != nil {
			t.Fatalf("replay of accepted prefix failed: %v", err)
		}
		if n != w.records {
			t.Fatalf("replayed %d records, openWAL counted %d", n, w.records)
		}
		if valid, _, err := walValidPrefix(w.buf); err != nil || valid != len(w.buf) {
			t.Fatalf("accepted buf is not a fully valid prefix: valid=%d len=%d err=%v", valid, len(w.buf), err)
		}
	})
}
