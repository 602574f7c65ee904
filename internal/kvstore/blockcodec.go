package kvstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"sync"

	"repro/internal/golomb"
)

// On-disk block encoding. Every block in an SSTable — data, index,
// summary, bloom, meta — is stored as one checksummed frame:
//
//	[4B BE stored length][1B codec][stored bytes][4B BE CRC32(codec || stored)]
//
// codec 0 stores the payload raw; codec 1 DEFLATE-compresses it. The
// CRC covers the codec byte too, so a flipped compression flag is caught
// before an expensive (and possibly wrong) inflate.
//
// No DEFLATE state or buffer is made per frame. appendFrame compresses
// with a pooled BestSpeed writer, Reset per frame, into a buffer the
// SSTable writer reuses; Reset makes the writer equivalent to a new
// one, so the bytes are those a fresh writer produces. A read takes a
// pooled blockScratch, reads the frame into it and inflates the payload
// into it with a pooled reader; the payload is scratch, and every block
// decoder below copies what it keeps (doc.go). A block read allocates
// the decoded block (and the standard inflater's Huffman link tables),
// not a compressor, a reader or a frame.
//
// A DATA block payload is a restart-point prefix-compressed entry region
// followed by a Golomb-coded restart offset array and a fixed tail:
//
//	entries:  per cell:  uvarint shared     — coordinate prefix reuse
//	                     uvarint unshared
//	                     coordinate[shared:]  (row \x00 family \x00 qualifier)
//	                     1B flags             (bit 0 = tombstone)
//	                     uvarint timestamp    (logical clock, integer column)
//	                     uvarint seq          (region sequence, integer column)
//	                     uvarint value length, value bytes
//	restarts: golomb.EncodeSortedSet of the entry offsets where prefix
//	          compression resets (every blockRestartInterval entries)
//	tail:     u32 restart bytes | u32 restart count | u32 golomb M |
//	          u32 entry count
//
// The high-entropy timestamp/sequence suffix of the internal cell key is
// NOT prefix-compressed with the coordinate: it is split out into the
// two varint integer columns, which compress far better and reconstruct
// the exact internal key on decode.
//
// In memory a decoded data block has the shape every resident cell has
// (arena.go): decodeDataBlock rebuilds each internal key — shared prefix
// of the previous key, unshared bytes, the two integer columns — straight
// into the block's key slab, copies each value into its value slab, and
// keeps one pointer-free reference per entry.
const (
	blockCodecRaw   = 0
	blockCodecFlate = 1

	// blockFrameOverhead is the framing bytes around each payload.
	blockFrameOverhead = 9

	// blockRestartInterval is how many entries share one prefix
	// compression run before it resets.
	blockRestartInterval = 16

	// blockTailLen is the fixed data-block trailer.
	blockTailLen = 16

	// maxBlockPayload caps a decoded payload so a corrupt length field
	// or a crafted DEFLATE stream cannot balloon memory.
	maxBlockPayload = 16 << 20
)

// errCorruptBlock reports an SSTable frame or payload that failed
// validation. Every decode error wraps it; decoding never panics.
var errCorruptBlock = errors.New("kvstore: corrupt sstable block")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorruptBlock, fmt.Sprintf(format, args...))
}

// appendFrame appends payload's frame to dst and returns the extended
// slice, DEFLATE-compressing the payload when that saves at least 1/8th
// of the bytes. The compressor is pooled and Reset per frame, which
// makes it equivalent to a new one: the bytes are those a fresh
// flate.NewWriter(BestSpeed) produces. In steady state, with dst grown
// to the largest frame, framing allocates nothing.
func appendFrame(dst, payload []byte) []byte {
	c := compressorPool.Get().(*compressor)
	dst = c.appendFrame(dst, payload)
	compressorPool.Put(c)
	return dst
}

func (c *compressor) appendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, blockCodecRaw)
	stored := len(payload)
	if len(payload) >= 128 {
		c.out.b = dst
		c.fw.Reset(&c.out)
		if _, err := c.fw.Write(payload); err == nil && c.fw.Close() == nil {
			if n := len(c.out.b) - len(dst); n < len(payload)-len(payload)/8 {
				dst, stored = c.out.b, n
				dst[start+4] = blockCodecFlate
			}
		}
		c.out.b = nil
	}
	if dst[start+4] == blockCodecRaw {
		dst = append(dst, payload...)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(stored))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start+4:])) // codec byte + stored bytes
}

// compressor is the pooled DEFLATE state of appendFrame: one BestSpeed
// writer (about 1.2 MB of tables and window, the cost a fresh writer
// pays per frame) and the appending sink it writes the stored bytes to.
type compressor struct {
	fw  *flate.Writer
	out appendWriter
}

var compressorPool = sync.Pool{New: func() any {
	c := new(compressor)
	c.fw, _ = flate.NewWriter(&c.out, flate.BestSpeed) // a valid level: never fails
	return c
}}

// appendWriter is an io.Writer appending to b.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// decodeFrame verifies one frame and appends its payload to dst[:0],
// returning the payload. The result shares dst's array when it fits,
// so a caller reusing dst must be done with the previous payload; it
// never aliases frame. The inflate state is pooled and held for the
// call only.
func decodeFrame(dst, frame []byte) ([]byte, error) {
	if len(frame) < blockFrameOverhead {
		return nil, corruptf("frame of %d bytes is shorter than the %d-byte framing", len(frame), blockFrameOverhead)
	}
	n := int(binary.BigEndian.Uint32(frame[:4]))
	if n != len(frame)-blockFrameOverhead {
		return nil, corruptf("frame length %d does not match %d stored bytes", n, len(frame)-blockFrameOverhead)
	}
	if got, want := crc32.ChecksumIEEE(frame[4:5+n]), binary.BigEndian.Uint32(frame[5+n:]); got != want {
		return nil, corruptf("CRC mismatch: computed %08x, stored %08x", got, want)
	}
	stored := frame[5 : 5+n]
	switch frame[4] {
	case blockCodecRaw:
		return append(dst[:0], stored...), nil
	case blockCodecFlate:
		in := inflaterPool.Get().(*inflater)
		out, err := in.inflate(dst[:0], stored)
		in.src.Reset(nil) // the pool must not pin the caller's frame
		inflaterPool.Put(in)
		if err != nil {
			return nil, corruptf("inflate: %v", err)
		}
		if len(out) > maxBlockPayload {
			return nil, corruptf("inflated payload exceeds %d bytes", maxBlockPayload)
		}
		return out, nil
	default:
		return nil, corruptf("unknown block codec %d", frame[4])
	}
}

// inflater is the pooled DEFLATE state of decodeFrame: a flate reader
// (a flate.Resetter, its window and Huffman tables reused) over a
// reader of the stored bytes.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var inflaterPool = sync.Pool{New: func() any {
	in := new(inflater)
	in.fr = flate.NewReader(&in.src)
	return in
}}

// inflate appends the decompressed stored bytes to out, reading at most
// maxBlockPayload+1 of them so that the caller can tell an oversized
// payload from a fitting one.
func (in *inflater) inflate(out, stored []byte) ([]byte, error) {
	in.src.Reset(stored)
	if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, err
	}
	limit := io.LimitedReader{R: in.fr, N: maxBlockPayload + 1}
	if cap(out) == 0 {
		out = make([]byte, 0, 512)
	}
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err := limit.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// blockScratch is one block read's working memory: the frame as read
// from the file and the payload decoded out of it. Both are reused by
// the next read that takes the scratch, so whatever a block decoder
// keeps, it copies (doc.go).
type blockScratch struct {
	frame   []byte
	payload []byte
}

// keepBlockScratch caps the buffers a pooled scratch keeps: a read of a
// larger block (a big table's bloom filter, say) drops its scratch
// rather than pin that size in the pool.
const keepBlockScratch = 1 << 20

var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

func getBlockScratch() *blockScratch { return blockScratchPool.Get().(*blockScratch) }

// release returns s to the pool unless a buffer outgrew keepBlockScratch.
// The caller must hold no slice of it afterwards.
func (s *blockScratch) release() {
	if cap(s.frame) > keepBlockScratch || cap(s.payload) > keepBlockScratch {
		return
	}
	blockScratchPool.Put(s)
}

// blockWriter accumulates one data block's entries.
type blockWriter struct {
	buf          []byte
	out          []byte // the last finished payload, reused by the next
	restarts     []uint64
	count        int
	sinceRestart int
	prevCoord    string
}

// coordOf renders a cell's coordinate (the internal key minus the binary
// timestamp/sequence suffix).
func coordOf(c *Cell) string {
	var b strings.Builder
	b.Grow(len(c.Row) + len(c.Family) + len(c.Qualifier) + 2)
	b.WriteString(c.Row)
	b.WriteByte(0)
	b.WriteString(c.Family)
	b.WriteByte(0)
	b.WriteString(c.Qualifier)
	return b.String()
}

// add appends one cell version. seq is the region sequence number parsed
// from the cell's internal key.
func (b *blockWriter) add(c *Cell, seq uint64) {
	coord := coordOf(c)
	shared := 0
	if b.sinceRestart >= blockRestartInterval || b.count == 0 {
		b.restarts = append(b.restarts, uint64(len(b.buf)))
		b.sinceRestart = 0
	} else {
		max := len(coord)
		if len(b.prevCoord) < max {
			max = len(b.prevCoord)
		}
		for shared < max && coord[shared] == b.prevCoord[shared] {
			shared++
		}
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(coord)-shared))
	b.buf = append(b.buf, coord[shared:]...)
	flags := byte(0)
	if c.Tombstone {
		flags = 1
	}
	b.buf = append(b.buf, flags)
	b.buf = binary.AppendUvarint(b.buf, uint64(c.Timestamp))
	b.buf = binary.AppendUvarint(b.buf, seq)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(c.Value)))
	b.buf = append(b.buf, c.Value...)
	b.prevCoord = coord
	b.count++
	b.sinceRestart++
}

func (b *blockWriter) empty() bool { return b.count == 0 }
func (b *blockWriter) size() int   { return len(b.buf) }

// finish renders the block payload (entries + restart array + tail) and
// resets the writer for the next block. The payload is the writer's: it
// is valid until the next finish.
func (b *blockWriter) finish() ([]byte, error) {
	// Golomb parameter: restart offsets are roughly evenly spaced, so
	// the mean gap is a near-optimal divisor.
	m := uint64(len(b.buf)) / uint64(len(b.restarts))
	if m == 0 {
		m = 1
	}
	enc, err := golomb.EncodeSortedSet(b.restarts, m)
	if err != nil {
		return nil, err
	}
	payload := append(b.out[:0], b.buf...)
	payload = append(payload, enc...)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(enc)))
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(b.restarts)))
	payload = binary.BigEndian.AppendUint32(payload, uint32(m))
	payload = binary.BigEndian.AppendUint32(payload, uint32(b.count))
	b.out = payload
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.count = 0
	b.sinceRestart = 0
	b.prevCoord = ""
	return payload, nil
}

// decodedBlock is a data block parsed back into the segment's in-memory
// shape: a sortedRun (arena.go) — one key slab, one value slab and a
// reference array, however many entries the block holds. Cached blocks
// are shared across iterators and must never be mutated.
type decodedBlock struct {
	sortedRun
	bytes uint64 // decoded memory estimate, for cache accounting
}

// dataBlockSizes walks a data block's entry region and totals the
// internal-key and value bytes its count entries decode to, so that
// decodeDataBlock can cut its two slabs to fit. It validates nothing: on
// malformed input it returns what it has, the totals are only allocation
// hints, and decodeDataBlock's own pass reports the damage.
func dataBlockSizes(buf []byte, count int) (keyBytes, valBytes int) {
	off := 0
	for i := 0; i < count; i++ {
		shared, n1 := binary.Uvarint(buf[off:])
		if n1 <= 0 {
			break
		}
		unshared, n2 := binary.Uvarint(buf[off+n1:])
		off += n1 + n2
		if n2 <= 0 || shared > uint64(len(buf)) || unshared >= uint64(len(buf)-off) {
			break
		}
		off += int(unshared) + 1 // coordinate tail, flags
		_, n1 = binary.Uvarint(buf[off:])
		if n1 <= 0 {
			break
		}
		_, n2 = binary.Uvarint(buf[off+n1:])
		if n2 <= 0 {
			break
		}
		off += n1 + n2 // timestamp, sequence
		vlen, n := binary.Uvarint(buf[off:])
		if n <= 0 || vlen > uint64(len(buf)-off-n) {
			break
		}
		off += n + int(vlen)
		keyBytes += int(shared) + int(unshared) + cellKeySuffix
		valBytes += int(vlen)
	}
	return keyBytes, valBytes
}

// decodeDataBlock parses one data block payload. It validates framing
// invariants — bounds, restart array round-trip, entry count, key order —
// and returns errCorruptBlock-wrapped errors instead of panicking or
// yielding misordered cells. Keys are rebuilt and values copied straight
// into the block's arena: the allocations are the block, its reference
// array and its slabs, not a key, a coordinate, a Cell and a value per
// entry.
func decodeDataBlock(payload []byte) (*decodedBlock, error) {
	if len(payload) < blockTailLen {
		return nil, corruptf("data block of %d bytes is shorter than its %d-byte tail", len(payload), blockTailLen)
	}
	tail := payload[len(payload)-blockTailLen:]
	restartBytes := int(binary.BigEndian.Uint32(tail[0:4]))
	restartCount := int(binary.BigEndian.Uint32(tail[4:8]))
	m := uint64(binary.BigEndian.Uint32(tail[8:12]))
	count := int(binary.BigEndian.Uint32(tail[12:16]))
	entriesEnd := len(payload) - blockTailLen - restartBytes
	if restartBytes < 0 || entriesEnd < 0 {
		return nil, corruptf("restart array of %d bytes overflows the %d-byte payload", restartBytes, len(payload))
	}
	if count <= 0 || count > entriesEnd || restartCount <= 0 || restartCount > count || m == 0 {
		return nil, corruptf("implausible tail: %d entries, %d restarts, M=%d in %d entry bytes", count, restartCount, m, entriesEnd)
	}
	restarts, err := golomb.DecodeSortedSet(payload[entriesEnd:len(payload)-blockTailLen], m, restartCount)
	if err != nil {
		return nil, corruptf("restart array: %v", err)
	}
	if restarts[0] != 0 || restarts[restartCount-1] >= uint64(entriesEnd) {
		return nil, corruptf("restart offsets [%d, %d] outside entry region of %d bytes", restarts[0], restarts[restartCount-1], entriesEnd)
	}

	buf := payload[:entriesEnd]
	keyBytes, valBytes := dataBlockSizes(buf, count)
	b := newRunBuilder(count, keyBytes, valBytes)
	arena := &b.run.arena
	var mem uint64
	off := 0
	prevCoord := ""
	prevKey := ""
	nextRestart := 0
	for i := 0; i < count; i++ {
		atRestart := nextRestart < restartCount && uint64(off) == restarts[nextRestart]
		if atRestart {
			nextRestart++
		}
		shared, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, corruptf("entry %d: bad shared-length varint at %d", i, off)
		}
		off += n
		unshared, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, corruptf("entry %d: bad unshared-length varint at %d", i, off)
		}
		off += n
		if atRestart && shared != 0 {
			return nil, corruptf("entry %d: restart point with %d shared bytes", i, shared)
		}
		if shared > uint64(len(prevCoord)) || unshared > uint64(len(buf)-off) {
			return nil, corruptf("entry %d: coordinate lengths %d+%d exceed bounds", i, shared, unshared)
		}
		coordTail := buf[off : off+int(unshared)]
		off += int(unshared)
		if off >= len(buf) {
			return nil, corruptf("entry %d: truncated before flags", i)
		}
		flags := buf[off]
		off++
		if flags&^byte(1) != 0 {
			return nil, corruptf("entry %d: unknown flags %#x", i, flags)
		}
		ts, n := binary.Uvarint(buf[off:])
		if n <= 0 || ts > 1<<62 {
			return nil, corruptf("entry %d: bad timestamp varint at %d", i, off)
		}
		off += n
		seq, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, corruptf("entry %d: bad sequence varint at %d", i, off)
		}
		off += n
		vlen, n := binary.Uvarint(buf[off:])
		if n <= 0 || vlen > uint64(len(buf)-off-n) {
			return nil, corruptf("entry %d: bad value length at %d", i, off)
		}
		off += n
		value := buf[off : off+int(vlen)]
		off += int(vlen)

		var ref cellRef
		key := arena.appendCellKey(prevCoord[:shared], coordTail, int64(ts), seq, &ref)
		coord := key[:len(key)-cellKeySuffix]
		sep1 := strings.IndexByte(coord, 0)
		if sep1 < 0 {
			return nil, corruptf("entry %d: coordinate lacks family separator", i)
		}
		sep2 := strings.IndexByte(coord[sep1+1:], 0)
		if sep2 < 0 {
			return nil, corruptf("entry %d: coordinate lacks qualifier separator", i)
		}
		if i > 0 && key < prevKey {
			return nil, corruptf("entry %d: key order violation", i)
		}
		ref.rowLen, ref.famLen = uint32(sep1), uint32(sep2)
		arena.setValue(value, flags&1 == 1, &ref)
		b.run.refs = append(b.run.refs, ref)
		mem += uint64(len(key)) + ref.storedSize() + 48
		prevCoord = coord
		prevKey = key
	}
	if off != len(buf) {
		return nil, corruptf("%d trailing bytes after last entry", len(buf)-off)
	}
	return &decodedBlock{sortedRun: b.finish(), bytes: mem}, nil
}

// indexEntry locates one framed block: the internal key of its first
// entry, its file offset, and its framed length. The same shape serves
// the index blocks (first data-block keys) and the summary (first
// index-block keys).
type indexEntry struct {
	firstKey string
	off      uint64
	length   uint64
}

// encodeIndexBlock renders index/summary entries.
func encodeIndexBlock(entries []indexEntry) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = binary.AppendUvarint(out, uint64(len(e.firstKey)))
		out = append(out, e.firstKey...)
		out = binary.AppendUvarint(out, e.off)
		out = binary.AppendUvarint(out, e.length)
	}
	return out
}

// decodeIndexBlock parses index/summary entries.
func decodeIndexBlock(payload []byte) ([]indexEntry, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 || count > uint64(len(payload)) {
		return nil, corruptf("bad index entry count")
	}
	off := n
	out := make([]indexEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(payload[off:])
		if n <= 0 || klen > uint64(len(payload)-off-n) {
			return nil, corruptf("index entry %d: bad key length", i)
		}
		off += n
		key := string(payload[off : off+int(klen)])
		off += int(klen)
		bo, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return nil, corruptf("index entry %d: bad offset", i)
		}
		off += n
		bl, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return nil, corruptf("index entry %d: bad length", i)
		}
		off += n
		if i > 0 && key < out[i-1].firstKey {
			return nil, corruptf("index entry %d: key order violation", i)
		}
		out = append(out, indexEntry{firstKey: key, off: bo, length: bl})
	}
	if off != len(payload) {
		return nil, corruptf("%d trailing bytes after index entries", len(payload)-off)
	}
	return out, nil
}

// sstMeta is the statistics block: the one column family the file
// holds, key range, counts, and the logical (uncompressed StoredSize)
// byte total the cost model and compaction tiers operate on.
type sstMeta struct {
	family  string
	minRow  string
	maxRow  string
	count   uint64
	logical uint64
	maxTs   int64
}

func encodeMetaBlock(m sstMeta) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(m.family)))
	out = append(out, m.family...)
	out = binary.AppendUvarint(out, uint64(len(m.minRow)))
	out = append(out, m.minRow...)
	out = binary.AppendUvarint(out, uint64(len(m.maxRow)))
	out = append(out, m.maxRow...)
	out = binary.AppendUvarint(out, m.count)
	out = binary.AppendUvarint(out, m.logical)
	out = binary.AppendUvarint(out, uint64(m.maxTs))
	return out
}

func decodeMetaBlock(payload []byte) (sstMeta, error) {
	var m sstMeta
	off := 0
	readStr := func() (string, bool) {
		l, n := binary.Uvarint(payload[off:])
		if n <= 0 || l > uint64(len(payload)-off-n) {
			return "", false
		}
		off += n
		s := string(payload[off : off+int(l)])
		off += int(l)
		return s, true
	}
	readInt := func() (uint64, bool) {
		v, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	var ok bool
	if m.family, ok = readStr(); !ok || m.family == "" {
		return m, corruptf("meta: bad family")
	}
	if m.minRow, ok = readStr(); !ok {
		return m, corruptf("meta: bad min row")
	}
	if m.maxRow, ok = readStr(); !ok {
		return m, corruptf("meta: bad max row")
	}
	if m.count, ok = readInt(); !ok {
		return m, corruptf("meta: bad cell count")
	}
	if m.logical, ok = readInt(); !ok {
		return m, corruptf("meta: bad logical size")
	}
	maxTs, ok := readInt()
	if !ok || maxTs > 1<<62 {
		return m, corruptf("meta: bad max timestamp")
	}
	m.maxTs = int64(maxTs)
	return m, nil
}
