package kvstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/bloom"
)

// SSTable file layout, written front to back:
//
//	┌──────────────────────────────┐
//	│ data block 0 (framed)        │  restart-point prefix-compressed
//	│ data block 1 (framed)        │  cells, ~4 KiB per block
//	│ …                            │
//	│ index block 0 (framed)       │  first-key → data block off/len,
//	│ …                            │  up to 64 data blocks per entry run
//	│ summary block (framed)       │  first-key → index block off/len
//	│ bloom block (framed)         │  serialized row-key bloom filter
//	│ meta block (framed)          │  min/max row, counts, logical size
//	│ footer (60 bytes, unframed)  │  offsets of the three tail blocks,
//	└──────────────────────────────┘  format version, magic
//
// The summary, bloom, and meta blocks are loaded once at open and held
// in memory; a point get then costs at most two block reads (one index,
// one data), both served from the shared block cache when warm.
const (
	// targetBlockBytes is the uncompressed payload size a data block
	// aims for before it is cut.
	targetBlockBytes = 4 << 10

	// indexBlockFanout is how many data blocks one index block covers;
	// the summary holds one entry per index block, i.e. a 1/64 sample
	// of the index.
	indexBlockFanout = 64

	sstMagic      = uint64(0x524a535354424c31) // "RJSSTBL1"
	sstVersion    = 2
	sstFooterLen  = 60
	sstFileSuffix = ".sst"
)

// blockReader abstracts random block access to a segment file. The
// production implementation issues pread(2) via os.File.ReadAt; an mmap
// implementation (pointing the same interface at a mapped region) drops
// in without touching the read path.
type blockReader interface {
	// readAt fills p from the given file offset, erroring on short reads.
	readAt(p []byte, off int64) error
	close() error
}

// preadReader is the VFS-file-backed blockReader. Transient read
// failures are retried with bounded backoff (see readFullAt); what
// escapes is typed — IOError for a read that never produced bytes,
// CorruptionError for a file that stably ends where data should be.
type preadReader struct {
	f    File
	path string
}

func (r *preadReader) readAt(p []byte, off int64) error {
	return readFullAt(r.f, r.path, p, off)
}

func (r *preadReader) close() error { return r.f.Close() }

// diskSegment is an open on-disk SSTable: the durable counterpart of
// *segment, holding only the summary, bloom filter, and meta block in
// memory and fetching index/data blocks on demand through the shared
// block cache.
type diskSegment struct {
	name    string // file name within the store directory, e.g. "000007.sst"
	id      uint64 // file number, the block-cache key namespace
	br      blockReader
	cache   *blockCache
	summary []indexEntry // one entry per index block
	filter  *bloom.Filter
	meta    sstMeta
	fileLen uint64
}

func (d *diskSegment) mayContainRow(row string) bool {
	if d.meta.count == 0 || row < d.meta.minRow || row > d.meta.maxRow {
		return false
	}
	return d.filter == nil || d.filter.ContainsString(row)
}

func (d *diskSegment) numCells() int    { return int(d.meta.count) }
func (d *diskSegment) dataSize() uint64 { return d.meta.logical }
func (d *diskSegment) close() error     { return d.br.close() }

// readBlockFrame fetches and verifies one framed block from the file
// into s, returning its payload: scratch, valid until s is reused or
// released. Verification failures surface as CorruptionError naming the
// file and frame offset.
func (d *diskSegment) readBlockFrame(s *blockScratch, off, length uint64) ([]byte, error) {
	if length < blockFrameOverhead || off+length > d.fileLen {
		return nil, corruptionAt(d.name, int64(off), corruptf("block frame [%d,+%d) outside file of %d bytes", off, length, d.fileLen))
	}
	s.frame = slices.Grow(s.frame[:0], int(length))[:length]
	if err := d.br.readAt(s.frame, int64(off)); err != nil {
		return nil, err
	}
	payload, err := decodeFrame(s.payload, s.frame)
	if err != nil {
		return nil, corruptionAt(d.name, int64(off), err)
	}
	s.payload = payload
	return payload, nil
}

// readDataBlock returns the decoded data block at off, charging io for
// the access: a cache hit costs nothing beyond the counter, a miss is
// one measured block read of the framed length.
func (d *diskSegment) readDataBlock(io *OpStats, off, length uint64) (*decodedBlock, error) {
	if b, ok := d.cache.lookup(d.id, off); ok {
		if io != nil {
			io.BlockCacheHits++
		}
		return b.(*decodedBlock), nil
	}
	s := getBlockScratch()
	defer s.release()
	payload, err := d.readBlockFrame(s, off, length)
	if err != nil {
		return nil, err
	}
	blk, err := decodeDataBlock(payload)
	if err != nil {
		return nil, corruptionAt(d.name, int64(off), err)
	}
	if io != nil {
		io.BytesRead += length
		io.BlockReads++
	}
	d.cache.insert(d.id, off, blk, blk.bytes)
	return blk, nil
}

// readIndexBlock returns the decoded index block at off, with the same
// cache/charging contract as readDataBlock.
func (d *diskSegment) readIndexBlock(io *OpStats, off, length uint64) ([]indexEntry, error) {
	if b, ok := d.cache.lookup(d.id, off); ok {
		if io != nil {
			io.BlockCacheHits++
		}
		return b.([]indexEntry), nil
	}
	s := getBlockScratch()
	defer s.release()
	payload, err := d.readBlockFrame(s, off, length)
	if err != nil {
		return nil, err
	}
	entries, err := decodeIndexBlock(payload)
	if err != nil {
		return nil, corruptionAt(d.name, int64(off), err)
	}
	if io != nil {
		io.BytesRead += length
		io.BlockReads++
	}
	var bytes uint64
	for _, e := range entries {
		bytes += uint64(len(e.firstKey)) + 48
	}
	d.cache.insert(d.id, off, entries, bytes)
	return entries, nil
}

// seekEntry returns the position of the last entry with firstKey <=
// start, or -1 when start sorts before everything.
func seekEntry(entries []indexEntry, start string) int {
	return sort.Search(len(entries), func(i int) bool {
		return entries[i].firstKey > start
	}) - 1
}

// diskSegIter streams a diskSegment's cells in key order from >= start,
// loading index and data blocks lazily and charging every read to the
// OpStats it was created with. I/O errors park the iterator invalid and
// surface through fail().
type diskSegIter struct {
	seg *diskSegment
	io  *OpStats

	si  int          // current summary position (index block)
	idx []indexEntry // decoded current index block
	ii  int          // current index position (data block)
	blk runIter      // position within the current data block (run nil = none)
	err error
}

// iterAt positions an iterator at the first cell with key >= start.
func (d *diskSegment) iterAt(start string, io *OpStats) cellIter {
	it := &diskSegIter{seg: d, io: io}
	if len(d.summary) == 0 {
		return it
	}
	it.si = seekEntry(d.summary, start)
	if it.si < 0 {
		it.si = 0
	}
	if !it.loadIndex() {
		return it
	}
	it.ii = seekEntry(it.idx, start)
	if it.ii < 0 {
		it.ii = 0
	}
	if !it.loadData() {
		return it
	}
	it.blk.idx = it.blk.run.seek(start)
	it.skipExhausted()
	return it
}

// loadIndex fetches the index block at the current summary position.
//
//lint:allow chargecheck block reads accumulate into the iterator's threaded OpStats; the OpStats-returning Region caller charges sim.Metrics.
func (it *diskSegIter) loadIndex() bool {
	idx, err := it.seg.readIndexBlock(it.io, it.seg.summary[it.si].off, it.seg.summary[it.si].length)
	if err != nil {
		it.fell(err)
		return false
	}
	it.idx = idx
	return true
}

// loadData fetches the data block at the current index position.
//
//lint:allow chargecheck block reads accumulate into the iterator's threaded OpStats; the OpStats-returning Region caller charges sim.Metrics.
func (it *diskSegIter) loadData() bool {
	blk, err := it.seg.readDataBlock(it.io, it.idx[it.ii].off, it.idx[it.ii].length)
	if err != nil {
		it.fell(err)
		return false
	}
	it.blk = runIter{run: &blk.sortedRun}
	return true
}

// skipExhausted advances past empty tails: when the position runs off
// the current block it steps to the next data block, then the next index
// block.
func (it *diskSegIter) skipExhausted() {
	for it.err == nil && it.blk.run != nil && !it.blk.valid() {
		it.ii++
		if it.ii >= len(it.idx) {
			it.si++
			if it.si >= len(it.seg.summary) {
				it.blk.run = nil
				return
			}
			if !it.loadIndex() {
				return
			}
			it.ii = 0
		}
		if !it.loadData() {
			return
		}
	}
}

func (it *diskSegIter) fell(err error) {
	it.err = err
	it.blk.run = nil
}

func (it *diskSegIter) valid() bool {
	return it.err == nil && it.blk.run != nil && it.blk.valid()
}
func (it *diskSegIter) key() string { return it.blk.key() }
func (it *diskSegIter) cell() *Cell { return it.blk.cell() }
func (it *diskSegIter) fail() error { return it.err }

func (it *diskSegIter) next() {
	it.blk.next()
	it.skipExhausted()
}

// sstWriter streams sorted cells into an SSTable file.
type sstWriter struct {
	f   File
	w   *bufio.Writer
	off uint64

	blk       blockWriter
	blkFirst  string // internal key of the current block's first entry
	index     []indexEntry
	rows      []string // distinct row keys, for the bloom filter
	meta      sstMeta
	haveFirst bool
	frame     []byte // the last framed block, reused by the next
}

// flushBlock cuts the current data block and records its index entry.
func (w *sstWriter) flushBlock() error {
	if w.blk.empty() {
		return nil
	}
	payload, err := w.blk.finish()
	if err != nil {
		return err
	}
	off, length, err := w.writeFramed(payload)
	if err != nil {
		return err
	}
	w.index = append(w.index, indexEntry{firstKey: w.blkFirst, off: off, length: length})
	return nil
}

// writeFramed writes one framed block and returns its span.
func (w *sstWriter) writeFramed(payload []byte) (off, length uint64, err error) {
	w.frame = appendFrame(w.frame[:0], payload)
	if _, err := w.w.Write(w.frame); err != nil {
		return 0, 0, err
	}
	off = w.off
	w.off += uint64(len(w.frame))
	return off, uint64(len(w.frame)), nil
}

// writeSSTable drains it (cells of one family, sorted by internal key,
// newest version first within a column) into a new SSTable file in dir,
// fsyncs it, and returns an open diskSegment reading from the same
// descriptor. An empty iterator writes nothing and returns (nil, nil);
// a second family in the stream is an error, never a mixed file. The caller
// registers the file in the store manifest; until then a crash leaves
// an orphan that cleanOrphans removes at next open.
func writeSSTable(fsys VFS, dir, name string, cache *blockCache, it cellIter) (seg *diskSegment, err error) {
	if fsys == nil {
		fsys = DefaultVFS()
	}
	if !it.valid() {
		if err := it.fail(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	path := dir + "/" + name
	f, err := fsys.Create(path)
	if err != nil {
		return nil, &IOError{Path: name, Op: "create", Err: err}
	}
	defer func() {
		if err != nil {
			f.Close()
			fsys.Remove(path)
		}
	}()

	w := &sstWriter{f: f, w: bufio.NewWriterSize(f, 1<<16)}
	lastRow := ""
	for ; it.valid(); it.next() {
		k, c := it.key(), it.cell()
		_, _, _, _, seq, perr := parseCellKey(k)
		if perr != nil {
			return nil, perr
		}
		if !w.haveFirst {
			// Cloned, like everything else the open segment keeps
			// (maxRow and the summary keys below): k and c are views
			// into the source's arena — a memtable about to be retired,
			// a block about to be evicted — and a kept substring would
			// pin its whole slab.
			w.meta.family = strings.Clone(c.Family)
			w.meta.minRow = strings.Clone(c.Row)
			w.haveFirst = true
		} else if c.Family != w.meta.family {
			return nil, fmt.Errorf("kvstore: SSTable %s would mix families %q and %q", name, w.meta.family, c.Family)
		}
		if w.blk.empty() {
			w.blkFirst = k
		}
		w.blk.add(c, seq)
		if c.Row != lastRow {
			w.rows = append(w.rows, c.Row)
			lastRow = c.Row
		}
		w.meta.maxRow = c.Row
		w.meta.count++
		w.meta.logical += c.StoredSize()
		if c.Timestamp > w.meta.maxTs {
			w.meta.maxTs = c.Timestamp
		}
		if w.blk.size() >= targetBlockBytes {
			if err := w.flushBlock(); err != nil {
				return nil, err
			}
		}
	}
	if err := it.fail(); err != nil {
		return nil, err
	}
	if err := w.flushBlock(); err != nil {
		return nil, err
	}
	w.meta.maxRow = strings.Clone(w.meta.maxRow)

	// Index blocks: runs of indexBlockFanout data-block entries; the
	// summary samples the first key of each run.
	var summary []indexEntry
	for i := 0; i < len(w.index); i += indexBlockFanout {
		end := i + indexBlockFanout
		if end > len(w.index) {
			end = len(w.index)
		}
		off, length, err := w.writeFramed(encodeIndexBlock(w.index[i:end]))
		if err != nil {
			return nil, err
		}
		summary = append(summary, indexEntry{firstKey: strings.Clone(w.index[i].firstKey), off: off, length: length})
	}
	summaryOff, summaryLen, err := w.writeFramed(encodeIndexBlock(summary))
	if err != nil {
		return nil, err
	}

	m, k := bloom.OptimalParams(uint64(len(w.rows)), segmentBloomFPP)
	filter := bloom.NewFilter(m, k)
	for _, r := range w.rows {
		filter.AddString(r)
	}
	fbits, err := filter.MarshalBinary()
	if err != nil {
		return nil, err
	}
	bloomOff, bloomLen, err := w.writeFramed(fbits)
	if err != nil {
		return nil, err
	}

	metaOff, metaLen, err := w.writeFramed(encodeMetaBlock(w.meta))
	if err != nil {
		return nil, err
	}

	var footer [sstFooterLen]byte
	binary.BigEndian.PutUint64(footer[0:8], summaryOff)
	binary.BigEndian.PutUint64(footer[8:16], summaryLen)
	binary.BigEndian.PutUint64(footer[16:24], bloomOff)
	binary.BigEndian.PutUint64(footer[24:32], bloomLen)
	binary.BigEndian.PutUint64(footer[32:40], metaOff)
	binary.BigEndian.PutUint64(footer[40:48], metaLen)
	binary.BigEndian.PutUint32(footer[48:52], sstVersion)
	binary.BigEndian.PutUint64(footer[52:60], sstMagic)
	if _, err := w.w.Write(footer[:]); err != nil {
		return nil, &IOError{Path: name, Op: "write", Err: err}
	}
	w.off += sstFooterLen
	if err := w.w.Flush(); err != nil {
		return nil, &IOError{Path: name, Op: "write", Err: err}
	}
	if err := f.Sync(); err != nil {
		return nil, &IOError{Path: name, Op: "sync", Err: err}
	}

	return &diskSegment{
		name:    name,
		id:      sstFileNum(name),
		br:      &preadReader{f: f, path: name},
		cache:   cache,
		summary: summary,
		filter:  filter,
		meta:    w.meta,
		fileLen: w.off,
	}, nil
}

// openSSTable opens an existing SSTable file and loads its summary,
// bloom filter, and meta block.
func openSSTable(fsys VFS, dir, name string, cache *blockCache) (*diskSegment, error) {
	if fsys == nil {
		fsys = DefaultVFS()
	}
	f, err := fsys.Open(dir + "/" + name)
	if err != nil {
		return nil, &IOError{Path: name, Op: "open", Err: err}
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, &IOError{Path: name, Op: "stat", Err: err}
	}
	d := &diskSegment{
		name:    name,
		id:      sstFileNum(name),
		br:      &preadReader{f: f, path: name},
		cache:   cache,
		fileLen: uint64(st.Size()),
	}
	if err := d.loadTail(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// loadTail parses the footer and the three tail blocks it points at.
func (d *diskSegment) loadTail() error {
	if d.fileLen < sstFooterLen {
		return corruptionAt(d.name, 0, corruptf("file of %d bytes is shorter than the footer", d.fileLen))
	}
	footerOff := int64(d.fileLen - sstFooterLen)
	var footer [sstFooterLen]byte
	if err := d.br.readAt(footer[:], footerOff); err != nil {
		return err
	}
	if got := binary.BigEndian.Uint64(footer[52:60]); got != sstMagic {
		return corruptionAt(d.name, footerOff, corruptf("bad magic %016x", got))
	}
	if v := binary.BigEndian.Uint32(footer[48:52]); v != sstVersion {
		return &FormatVersionError{Path: d.name, Version: v, Supported: sstVersion}
	}
	summaryOff := binary.BigEndian.Uint64(footer[0:8])
	summaryLen := binary.BigEndian.Uint64(footer[8:16])
	bloomOff := binary.BigEndian.Uint64(footer[16:24])
	bloomLen := binary.BigEndian.Uint64(footer[24:32])
	metaOff := binary.BigEndian.Uint64(footer[32:40])
	metaLen := binary.BigEndian.Uint64(footer[40:48])

	s := getBlockScratch()
	defer s.release()
	payload, err := d.readBlockFrame(s, summaryOff, summaryLen)
	if err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	if d.summary, err = decodeIndexBlock(payload); err != nil {
		return corruptionAt(d.name, int64(summaryOff), err)
	}
	if payload, err = d.readBlockFrame(s, bloomOff, bloomLen); err != nil {
		return fmt.Errorf("bloom: %w", err)
	}
	if len(payload) > 0 {
		d.filter = new(bloom.Filter)
		if err := d.filter.UnmarshalBinary(payload); err != nil {
			return corruptionAt(d.name, int64(bloomOff), corruptf("bloom filter: %v", err))
		}
	}
	if payload, err = d.readBlockFrame(s, metaOff, metaLen); err != nil {
		return fmt.Errorf("meta: %w", err)
	}
	if d.meta, err = decodeMetaBlock(payload); err != nil {
		return corruptionAt(d.name, int64(metaOff), err)
	}
	return nil
}

// sstFileNum parses the numeric file number out of "NNNNNN.sst"; the
// number namespaces the file's blocks in the shared cache.
func sstFileNum(name string) uint64 {
	var n uint64
	for i := 0; i < len(name) && name[i] >= '0' && name[i] <= '9'; i++ {
		n = n*10 + uint64(name[i]-'0')
	}
	return n
}
