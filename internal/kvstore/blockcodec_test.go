package kvstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bloom"
)

// referenceFrame frames payload the way the format was first written:
// a fresh BestSpeed DEFLATE writer per frame and a CRC-32 digest over
// the codec byte and the stored bytes.
func referenceFrame(t testing.TB, payload []byte) []byte {
	t.Helper()
	stored, codec := payload, byte(blockCodecRaw)
	if len(payload) >= 128 {
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() < len(payload)-len(payload)/8 {
			stored, codec = buf.Bytes(), blockCodecFlate
		}
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(stored)))
	frame = append(frame, codec)
	frame = append(frame, stored...)
	crc := crc32.NewIEEE()
	crc.Write(frame[4:])
	return binary.BigEndian.AppendUint32(frame, crc.Sum32())
}

// blockTestCells returns n single-version cells of family "cf" in
// internal-key order, with values that compress.
func blockTestCells(n int) []keyedCell {
	out := make([]keyedCell, n)
	for i := range out {
		c := Cell{Row: benchRowKey(i), Family: "cf", Qualifier: "q", Timestamp: int64(i + 1),
			Value: []byte(strings.Repeat(fmt.Sprintf("v%d.", i%7), 8))}
		out[i] = keyedCell{key: cellKey(c.Row, c.Family, c.Qualifier, c.Timestamp, uint64(i+1)), cell: c}
	}
	return out
}

// writeTestSSTable writes cells into dir/name and returns the open
// segment, closed when the test ends.
func writeTestSSTable(tb testing.TB, dir, name string, cache *blockCache, cells []keyedCell) *diskSegment {
	tb.Helper()
	b := newRunBuilder(len(cells), 0, 0)
	for i := range cells {
		b.add(cells[i].key, &cells[i].cell)
	}
	d, err := writeSSTable(DefaultVFS(), dir, name, cache, newSegment(b.finish()).iterator(""))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.close() })
	return d
}

// TestFrameBytesMatchFreshWriter pins the on-disk bytes: frames from the
// pooled compressor, reused well over a thousand times across payloads
// of every kind, equal frames built with a fresh writer.
func TestFrameBytesMatchFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	random := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	var bw blockWriter
	for _, kc := range blockTestCells(70) {
		bw.add(&kc.cell, uint64(kc.cell.Timestamp))
	}
	data, err := bw.finish()
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Clone(data)
	var index []indexEntry
	for i := 0; i < indexBlockFanout; i++ {
		index = append(index, indexEntry{firstKey: cellKey(benchRowKey(i*70), "cf", "q", 1, 1), off: uint64(i) * 4200, length: 4100 + uint64(i%5)})
	}
	filter := bloom.NewFilter(bloom.OptimalParams(500, segmentBloomFPP))
	for i := 0; i < 500; i++ {
		filter.AddString(benchRowKey(i))
	}
	fbits, err := filter.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{
		"empty":          {},
		"127 bytes":      bytes.Repeat([]byte{'a'}, 127),
		"128 bytes":      bytes.Repeat([]byte{'a'}, 128),
		"4 KiB text":     []byte(strings.Repeat("rank join ", 410))[:4<<10],
		"random 128":     random(128),
		"random 4 KiB":   random(4 << 10),
		"random 100 KiB": random(100 << 10),
		"data block":     data,
		"index block":    encodeIndexBlock(index),
		"bloom block":    fbits,
		"meta block":     encodeMetaBlock(sstMeta{family: "cf", minRow: benchRowKey(0), maxRow: benchRowKey(69), count: 70, logical: 5000, maxTs: 70}),
	}
	names := make([]string, 0, len(payloads))
	want := map[string][]byte{}
	for name, p := range payloads {
		names = append(names, name)
		want[name] = referenceFrame(t, p)
	}
	codecs := map[byte]bool{}
	c := compressorPool.New().(*compressor)
	var dst []byte
	for i := 0; i < 1100; i++ {
		name := names[rng.Intn(len(names))]
		// Every few frames append after bytes already in the buffer, as
		// a frame after a frame would.
		prefix := dst[:0]
		if i%3 == 0 {
			prefix = append(prefix, "frame before"...)
		}
		dst = c.appendFrame(prefix, payloads[name])
		if got := dst[len(prefix):]; !bytes.Equal(got, want[name]) {
			t.Fatalf("reuse %d, %s: pooled frame of %d bytes differs from a fresh writer's %d", i, name, len(got), len(want[name]))
		}
		codecs[dst[len(prefix)+4]] = true
	}
	if !codecs[blockCodecRaw] || !codecs[blockCodecFlate] {
		t.Fatalf("codecs exercised: %v, want raw and DEFLATE", codecs)
	}
	for _, name := range names {
		if got := appendFrame(nil, payloads[name]); !bytes.Equal(got, want[name]) {
			t.Fatalf("%s: appendFrame differs from a fresh writer", name)
		}
	}
}

// TestInflatedPayloadCap: a frame with a valid CRC whose DEFLATE stream
// inflates past maxBlockPayload is corrupt, and no scratch that grew
// past keepBlockScratch — on that frame or on a large valid one — goes
// back to the pool.
func TestInflatedPayloadCap(t *testing.T) {
	bomb := appendFrame(nil, make([]byte, maxBlockPayload+1<<20))
	if bomb[4] != blockCodecFlate || len(bomb) > 1<<20 {
		t.Fatalf("17 MiB of zeros framed as codec %d in %d bytes, want a small DEFLATE frame", bomb[4], len(bomb))
	}
	if _, err := decodeFrame(nil, bomb); !errors.Is(err, errCorruptBlock) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized inflate: %v, want a corrupt-block error naming the cap", err)
	}
	large := appendFrame(nil, make([]byte, 2*keepBlockScratch))

	// Both frames back to back in one file, read as blocks of a segment.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "frames"), append(bytes.Clone(bomb), large...), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := DefaultVFS().Open(filepath.Join(dir, "frames"))
	if err != nil {
		t.Fatal(err)
	}
	d := &diskSegment{name: "frames", br: &preadReader{f: f, path: "frames"}, fileLen: uint64(len(bomb) + len(large))}
	defer d.close()

	s := getBlockScratch()
	_, err = d.readBlockFrame(s, 0, uint64(len(bomb)))
	var ce *CorruptionError
	if !errors.Is(err, errCorruptBlock) || !errors.As(err, &ce) {
		t.Fatalf("oversized block read: %v, want a CorruptionError wrapping errCorruptBlock", err)
	}
	s.release()
	assertPoolKeepsNoLargeScratch(t)

	s = getBlockScratch()
	payload, err := d.readBlockFrame(s, uint64(len(bomb)), uint64(len(large)))
	if err != nil || len(payload) != 2*keepBlockScratch {
		t.Fatalf("2 MiB block read: %d bytes, %v", len(payload), err)
	}
	s.release()
	assertPoolKeepsNoLargeScratch(t)
}

// assertPoolKeepsNoLargeScratch takes a few scratches from the pool —
// the first is the one just released, when it was kept — and fails if
// any holds a buffer past keepBlockScratch.
func assertPoolKeepsNoLargeScratch(t *testing.T) {
	t.Helper()
	var taken []*blockScratch
	for i := 0; i < 4; i++ {
		s := getBlockScratch()
		if cap(s.frame) > keepBlockScratch || cap(s.payload) > keepBlockScratch {
			t.Fatalf("pool kept a scratch of %d frame and %d payload bytes, cap %d", cap(s.frame), cap(s.payload), keepBlockScratch)
		}
		taken = append(taken, s)
	}
	for _, s := range taken {
		s.release()
	}
}

// scribbleScratch overwrites every byte of a few pooled scratches, as
// the next block read would.
func scribbleScratch() {
	var taken []*blockScratch
	for i := 0; i < 4; i++ {
		s := getBlockScratch()
		for _, b := range [][]byte{s.frame[:cap(s.frame)], s.payload[:cap(s.payload)]} {
			for i := range b {
				b[i] = 0xff
			}
		}
		taken = append(taken, s)
	}
	for _, s := range taken {
		s.release()
	}
}

// TestDecodedBlocksDoNotAliasScratch: blocks decoded on a cache miss
// own their bytes. With an empty block cache every read decodes out of
// the pooled scratch; after two more block reads and scribbles over the
// scratch in between, the first block's keys and cells are unchanged.
func TestDecodedBlocksDoNotAliasScratch(t *testing.T) {
	cells := blockTestCells(8000)
	d := writeTestSSTable(t, t.TempDir(), "000001.sst", newBlockCache(0), cells)
	if len(d.summary) < 2 {
		t.Fatalf("%d index blocks, want at least 2", len(d.summary))
	}
	idx, err := d.readIndexBlock(nil, d.summary[0].off, d.summary[0].length)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := make([]indexEntry, len(idx))
	for i, e := range idx {
		wantIdx[i] = indexEntry{firstKey: strings.Clone(e.firstKey), off: e.off, length: e.length}
	}
	scribbleScratch()

	first, err := d.readDataBlock(nil, idx[0].off, idx[0].length)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, wantCells := dumpRun(&first.sortedRun)
	for i := range wantKeys {
		wantKeys[i] = strings.Clone(wantKeys[i])
		c := &wantCells[i]
		c.Row, c.Family, c.Qualifier, c.Value = strings.Clone(c.Row), strings.Clone(c.Family), strings.Clone(c.Qualifier), bytes.Clone(c.Value)
	}
	for i, kc := range cells[:len(wantKeys)] {
		if wantKeys[i] != kc.key || !sameCell(&wantCells[i], &kc.cell) {
			t.Fatalf("first block entry %d: %q, want %q", i, wantKeys[i], kc.key)
		}
	}
	scribbleScratch()

	second, err := d.readDataBlock(nil, idx[1].off, idx[1].length)
	if err != nil {
		t.Fatal(err)
	}
	scribbleScratch()
	if _, err := d.readIndexBlock(nil, d.summary[1].off, d.summary[1].length); err != nil {
		t.Fatal(err)
	}
	scribbleScratch()

	gotKeys, gotCells := dumpRun(&first.sortedRun)
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("first block has %d entries after later reads, had %d", len(gotKeys), len(wantKeys))
	}
	for i := range gotKeys {
		if gotKeys[i] != wantKeys[i] || !sameCell(&gotCells[i], &wantCells[i]) {
			t.Fatalf("first block entry %d changed under later reads: %q %v, was %q %v", i, gotKeys[i], &gotCells[i], wantKeys[i], &wantCells[i])
		}
	}
	if k, _ := dumpRun(&second.sortedRun); k[0] != cells[len(wantKeys)].key {
		t.Fatalf("second block starts at %q, want %q", k[0], cells[len(wantKeys)].key)
	}
	for i, e := range idx {
		if e != wantIdx[i] {
			t.Fatalf("index entry %d changed under later reads: %+v, was %+v", i, e, wantIdx[i])
		}
	}
}

// TestBlockReadsDuringFlushAndCompaction runs readers that miss the
// (disabled) block cache on every block while a writer's puts flush and
// compact the same region: the pooled DEFLATE state and scratch pass
// between the two sides and every read still returns what was written.
func TestBlockReadsDuringFlushAndCompaction(t *testing.T) {
	c := openDiskCluster(t, t.TempDir())
	defer c.Close()
	c.SetRowCacheBytes(0)
	c.SetBlockCacheBytes(0)
	mustCreate(t, c, "t", []string{"cf"}, nil)
	const base, writes = 600, 800
	value := func(i int) []byte { return []byte(strings.Repeat(fmt.Sprintf("v%d.", i), 6)) }
	for i := 0; i < base; i++ {
		if err := c.Put("t", Cell{Row: benchRowKey(i), Family: "cf", Qualifier: "q", Value: value(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	r := mustRegion(t, c, "t")
	r.setFlushThreshold(8 << 10)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < writes; i++ {
			if err := c.Put("t", Cell{Row: benchRowKey(base + i), Family: "cf", Qualifier: "q", Value: value(base + i)}); err != nil {
				t.Error(err)
				return
			}
			if i%200 == 199 {
				if err := r.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				i := rng.Intn(base)
				row, err := c.Get("t", benchRowKey(i))
				if err != nil {
					t.Error(err)
					return
				}
				if len(row.Cells) != 1 || !bytes.Equal(row.Cells[0].Value, value(i)) {
					t.Errorf("reader %d: row %d read back %v", g, i, row.Cells)
					return
				}
				if g == 0 {
					rows, err := c.ScanAll(Scan{Table: "t", Caching: 50})
					if err != nil || len(rows) < base || len(rows) > base+writes {
						t.Errorf("scan: %d rows, %v", len(rows), err)
						return
					}
					for j, row := range rows[:base] {
						if row.Key != benchRowKey(j) || len(row.Cells) != 1 || !bytes.Equal(row.Cells[0].Value, value(j)) {
							t.Errorf("scan: row %d read back %s %v", j, row.Key, row.Cells)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(snapshotRows(t, c, "t")); n != base+writes {
		t.Fatalf("table holds %d rows, want %d", n, base+writes)
	}
}

// TestBlockFrameAllocs pins the block path's allocations in steady
// state. Framing a 4 KiB block allocates nothing. A block-cache miss on
// a block stored raw allocates exactly what decoding the block does: no
// frame, payload or reader. On a DEFLATE block the miss adds only what
// inflating the frame into a warm buffer allocates — compress/flate's
// Huffman link tables, which the standard decoder builds afresh for
// each dynamic block.
func TestBlockFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	payload := []byte(strings.Repeat("rank join ", 410))[:4<<10]
	dst := appendFrame(nil, payload)
	if a := testing.AllocsPerRun(100, func() { dst = appendFrame(dst[:0], payload) }); a != 0 {
		t.Errorf("framing a 4 KiB block: %.0f allocations, want 0", a)
	}

	rng := rand.New(rand.NewSource(7))
	incompressible := blockTestCells(3000)
	for i := range incompressible {
		incompressible[i].cell.Value = make([]byte, 200)
		rng.Read(incompressible[i].cell.Value)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		cells []keyedCell
		codec byte
	}{
		{"raw", incompressible, blockCodecRaw},
		{"deflate", blockTestCells(3000), blockCodecFlate},
	} {
		d := writeTestSSTable(t, dir, fmt.Sprintf("%06d.sst", tc.codec+1), newBlockCache(0), tc.cells)
		idx, err := d.readIndexBlock(nil, d.summary[0].off, d.summary[0].length)
		if err != nil {
			t.Fatal(err)
		}
		e := idx[1]
		frame := make([]byte, e.length)
		if err := d.br.readAt(frame, int64(e.off)); err != nil {
			t.Fatal(err)
		}
		if frame[4] != tc.codec {
			t.Fatalf("%s: data block stored with codec %d, want %d", tc.name, frame[4], tc.codec)
		}
		blockPayload, err := decodeFrame(nil, frame)
		if err != nil {
			t.Fatal(err)
		}
		warm := make([]byte, 0, 2*len(blockPayload))
		inflate := testing.AllocsPerRun(50, func() {
			if _, err := decodeFrame(warm, frame); err != nil {
				t.Fatal(err)
			}
		})
		decode := testing.AllocsPerRun(50, func() {
			if _, err := decodeDataBlock(blockPayload); err != nil {
				t.Fatal(err)
			}
		})
		miss := testing.AllocsPerRun(50, func() {
			if _, err := d.readDataBlock(nil, e.off, e.length); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: cache miss %.0f allocations = decodeDataBlock %.0f + decodeFrame into a warm buffer %.0f", tc.name, miss, decode, inflate)
		if tc.codec == blockCodecRaw && inflate != 0 {
			t.Errorf("%s: decoding a raw frame into a warm buffer allocates %.0f times, want 0", tc.name, inflate)
		}
		if miss != decode+inflate {
			t.Errorf("%s: a block-cache miss allocates %.0f times, want decodeDataBlock's %.0f + decodeFrame's %.0f: the read allocates beside the block", tc.name, miss, decode, inflate)
		}
	}
}

// BenchmarkWriteSSTable writes an 8000-cell table (about 130 data
// blocks, one index block per 64, bloom and meta) to disk, fsync
// included.
func BenchmarkWriteSSTable(b *testing.B) {
	cells := blockTestCells(8000)
	rb := newRunBuilder(len(cells), 0, 0)
	for i := range cells {
		rb.add(cells[i].key, &cells[i].cell)
	}
	seg := newSegment(rb.finish())
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := writeSSTable(DefaultVFS(), dir, fmt.Sprintf("%06d.sst", i+1), nil, seg.iterator(""))
		if err != nil {
			b.Fatal(err)
		}
		d.close()
	}
}

// BenchmarkReadDataBlockMiss reads data blocks of a disk table round
// robin behind a disabled block cache: every read fetches, verifies,
// inflates and decodes one block.
func BenchmarkReadDataBlockMiss(b *testing.B) {
	d := writeTestSSTable(b, b.TempDir(), "000001.sst", newBlockCache(0), blockTestCells(8000))
	idx, err := d.readIndexBlock(nil, d.summary[0].off, d.summary[0].length)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := idx[i%len(idx)]
		if _, err := d.readDataBlock(nil, e.off, e.length); err != nil {
			b.Fatal(err)
		}
	}
}
