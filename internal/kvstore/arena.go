package kvstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Resident cells are bytes, not objects. Wherever a cell version waits
// to be read — a memtable, a flushed or compacted segment, a decoded
// SSTable block — it is stored the same way: its internal key appended
// to a string slab, its value appended to a byte slab, and one
// pointer-free cellRef saying where both are. A store holding millions
// of cells is then a few hundred slabs and reference arrays, none of
// which the garbage collector has to walk, instead of five heap objects
// per cell.
//
// The memtable links cellRefs into a skip list (memtable.go); a
// sortedRun keeps them in a sorted array (below). Readers see cells
// through views: cellArena.view fills a caller-owned Cell whose Row,
// Family and Qualifier are substrings of the stored key and whose Value
// is a capacity-clipped slice of the value slab. Slab bytes are written
// once and never moved or overwritten, so a view — and any copy of it a
// caller keeps — stays correct for as long as it is referenced; it also
// keeps its slabs alive, which is why the row cache detaches what it
// stores (rowcache.go).

const (
	// arenaMinSlab and arenaMaxSlab bound slab capacity: an arena with
	// no size hint starts small (most regions hold a few cells) and
	// doubles up to the cap, so a full memtable is a dozen slabs and an
	// over-estimated hint wastes at most one slab's tail.
	arenaMinSlab = 1 << 10
	arenaMaxSlab = 1 << 20

	// cellKeySuffix is the fixed tail of an internal key after the
	// qualifier: the NUL separator, ^timestamp and ^sequence.
	cellKeySuffix = 17

	tombstoneBit = 1 << 31
)

// cellRef locates one cell version in a cellArena. It holds no pointers.
// Keys and values are addressed by (slab, offset), so an arena's total
// size is not bounded by a 32-bit offset; a single key or value is
// bounded by maxArenaItem, which the write path enforces.
type cellRef struct {
	kslab, koff uint32 // internal key: kslabs[kslab][koff : koff+klen]
	klen        uint32
	rowLen      uint32 // the key is row \0 family \0 qualifier \0 ^ts ^seq
	famLen      uint32
	vslab, voff uint32 // value: vslabs[vslab][voff : voff+vlen]
	vlen        uint32 // low 31 bits; the high bit marks a tombstone
}

// maxArenaItem is the largest key or value a cellRef can describe.
const maxArenaItem = math.MaxInt32

func (r *cellRef) tombstone() bool { return r.vlen&tombstoneBit != 0 }
func (r *cellRef) valueLen() int   { return int(r.vlen &^ tombstoneBit) }

// storedSize equals Cell.StoredSize of the referenced cell.
func (r *cellRef) storedSize() uint64 {
	return uint64(r.klen) - cellKeySuffix - 2 + uint64(r.valueLen()) + cellOverhead
}

// cellArena is append-only storage for cell keys and values.
type cellArena struct {
	kslabs []string        // key slabs; the last one grows through kb
	kb     strings.Builder // builds kslabs[len(kslabs)-1]
	vslabs [][]byte        // value slabs; only the last has spare capacity

	// keyHint and valHint are the bytes still expected, when the filler
	// knows them: slabs are then cut to fit rather than doubled.
	keyHint, valHint int
}

// size returns the key and value bytes the arena holds.
func (a *cellArena) size() (keyBytes, valBytes int) {
	for _, s := range a.kslabs {
		keyBytes += len(s)
	}
	for _, s := range a.vslabs {
		valBytes += len(s)
	}
	return keyBytes, valBytes
}

// slabSize picks the capacity of a new slab that must hold need bytes.
func slabSize(hint *int, prevCap, need int) int {
	size := *hint
	if size <= 0 {
		size = 2 * prevCap
		if size < arenaMinSlab {
			size = arenaMinSlab
		}
	}
	if size > arenaMaxSlab {
		size = arenaMaxSlab
	}
	if size < need {
		size = need
	}
	if *hint -= size; *hint < 0 {
		*hint = 0
	}
	return size
}

// reserveKey makes the current key slab able to take n more bytes
// without moving, opening a new slab when it cannot, and returns the
// offset the next key will start at.
func (a *cellArena) reserveKey(n int) int {
	if n > maxArenaItem {
		panic(fmt.Sprintf("kvstore: %d-byte cell key exceeds the arena's entry limit", n))
	}
	if len(a.kslabs) == 0 || a.kb.Cap()-a.kb.Len() < n {
		size := slabSize(&a.keyHint, a.kb.Cap(), n)
		a.kb = strings.Builder{}
		a.kb.Grow(size)
		a.kslabs = append(a.kslabs, "")
	}
	return a.kb.Len()
}

// sealKey publishes the key written through kb since reserveKey
// returned start, filling its address into ref.
func (a *cellArena) sealKey(start int, ref *cellRef) string {
	slab := a.kb.String()
	a.kslabs[len(a.kslabs)-1] = slab
	ref.kslab, ref.koff, ref.klen = uint32(len(a.kslabs)-1), uint32(start), uint32(len(slab)-start)
	return slab[start:]
}

// appendKey copies an internal key into the arena.
func (a *cellArena) appendKey(key string, ref *cellRef) string {
	start := a.reserveKey(len(key))
	a.kb.WriteString(key)
	return a.sealKey(start, ref)
}

// appendCellKey writes the internal key coordHead+coordTail \0 ^ts ^seq
// — what cellKey renders for the coordinate's row, family and qualifier
// — straight into the arena. coordHead may alias an earlier key of this
// arena (block decode passes the shared prefix of the previous entry).
func (a *cellArena) appendCellKey(coordHead string, coordTail []byte, ts int64, seq uint64, ref *cellRef) string {
	start := a.reserveKey(len(coordHead) + len(coordTail) + cellKeySuffix)
	a.kb.WriteString(coordHead)
	a.kb.Write(coordTail)
	a.writeKeySuffix(ts, seq)
	return a.sealKey(start, ref)
}

// writeKeySuffix appends an internal key's fixed tail: the NUL after
// the qualifier, ^ts and ^seq.
func (a *cellArena) writeKeySuffix(ts int64, seq uint64) {
	var n [cellKeySuffix]byte
	binary.BigEndian.PutUint64(n[1:9], ^uint64(ts))
	binary.BigEndian.PutUint64(n[9:17], ^seq)
	a.kb.Write(n[:])
}

// addCell stores one cell version under the internal key of its
// coordinates, timestamp and seq, writing cellKey's bytes straight into
// the key slab, and returns its reference.
func (a *cellArena) addCell(c *Cell, seq uint64) cellRef {
	ref := cellRef{rowLen: uint32(len(c.Row)), famLen: uint32(len(c.Family))}
	start := a.reserveKey(internalKeyLen(c))
	a.kb.WriteString(c.Row)
	a.kb.WriteByte(0)
	a.kb.WriteString(c.Family)
	a.kb.WriteByte(0)
	a.kb.WriteString(c.Qualifier)
	a.writeKeySuffix(c.Timestamp, seq)
	a.sealKey(start, &ref)
	a.setValue(c.Value, c.Tombstone, &ref)
	return ref
}

// setValue copies a value (and the tombstone flag) into the arena and
// points ref at it. A zero-length value occupies nothing and reads back
// as nil.
func (a *cellArena) setValue(v []byte, tombstone bool, ref *cellRef) {
	if len(v) > maxArenaItem {
		panic(fmt.Sprintf("kvstore: %d-byte cell value exceeds the arena's entry limit", len(v)))
	}
	ref.vslab, ref.voff, ref.vlen = 0, 0, uint32(len(v))
	if tombstone {
		ref.vlen |= tombstoneBit
	}
	if len(v) == 0 {
		return
	}
	n := len(a.vslabs)
	if n == 0 || cap(a.vslabs[n-1])-len(a.vslabs[n-1]) < len(v) {
		prevCap := 0
		if n > 0 {
			prevCap = cap(a.vslabs[n-1])
		}
		a.vslabs = append(a.vslabs, make([]byte, 0, slabSize(&a.valHint, prevCap, len(v))))
		n++
	}
	slab := a.vslabs[n-1]
	ref.vslab, ref.voff = uint32(n-1), uint32(len(slab))
	a.vslabs[n-1] = append(slab, v...)
}

// add stores one cell version under its internal key and returns its
// reference. key must be cellKey of c's coordinates.
func (a *cellArena) add(key string, c *Cell) cellRef {
	if len(key) != len(c.Row)+len(c.Family)+len(c.Qualifier)+2+cellKeySuffix {
		panic(fmt.Sprintf("kvstore: internal key %q does not match its cell's coordinates", key))
	}
	ref := cellRef{rowLen: uint32(len(c.Row)), famLen: uint32(len(c.Family))}
	a.appendKey(key, &ref)
	a.setValue(c.Value, c.Tombstone, &ref)
	return ref
}

// key returns the internal key ref points at.
func (a *cellArena) key(ref *cellRef) string { return a.keyAt(ref.kslab, ref.koff, ref.klen) }

func (a *cellArena) keyAt(slab, off, n uint32) string { return a.kslabs[slab][off : off+n] }

// view fills c with the cell ref points at, without copying: the
// coordinates are substrings of the stored key and Value is a slice of
// the value slab, clipped so that an append by the caller reallocates
// instead of writing into the arena.
func (a *cellArena) view(ref *cellRef, c *Cell) {
	k := a.key(ref)
	fam := ref.rowLen + 1
	qual := fam + ref.famLen + 1
	ts := ref.klen - cellKeySuffix + 1
	c.Row = k[:ref.rowLen]
	c.Family = k[fam : fam+ref.famLen]
	c.Qualifier = k[qual : ts-1]
	c.Timestamp = int64(^be64(k[ts:]))
	c.Tombstone = ref.tombstone()
	c.Value = nil
	if n := uint32(ref.valueLen()); n > 0 {
		c.Value = a.vslabs[ref.vslab][ref.voff : ref.voff+n : ref.voff+n]
	}
}

// sortedRun is an immutable run of cell versions in ascending internal-
// key order: one arena plus the sorted reference array, binary-searched
// and walked by runIter. A flushed or compacted in-memory segment and a
// decoded SSTable data block are both one of these.
type sortedRun struct {
	arena cellArena
	refs  []cellRef
}

func (r *sortedRun) len() int         { return len(r.refs) }
func (r *sortedRun) key(i int) string { return r.arena.key(&r.refs[i]) }

// seek returns the index of the first entry with key >= k.
func (r *sortedRun) seek(k string) int {
	return sort.Search(len(r.refs), func(i int) bool { return r.key(i) >= k })
}

// runBuilder fills a sortedRun. Entries must arrive in ascending key
// order; the four fillers (memtable flush, bulk write, segment merge,
// block decode) all read from sorted sources, and block decode verifies
// it.
type runBuilder struct {
	run sortedRun
}

// newRunBuilder sizes a builder for the given entry count and total key
// and value bytes. The byte counts are hints (zero = unknown): a short
// one costs extra slabs, a long one at most a slab's tail.
func newRunBuilder(entries, keyBytes, valBytes int) *runBuilder {
	b := &runBuilder{}
	b.run.refs = make([]cellRef, 0, entries)
	b.run.arena.keyHint, b.run.arena.valHint = keyBytes, valBytes
	return b
}

// add appends a copy of one cell version.
func (b *runBuilder) add(key string, c *Cell) {
	b.run.refs = append(b.run.refs, b.run.arena.add(key, c))
}

// addCell appends a copy of one cell version under sequence seq.
func (b *runBuilder) addCell(c *Cell, seq uint64) {
	b.run.refs = append(b.run.refs, b.run.arena.addCell(c, seq))
}

// finish returns the run; the builder must not be used afterwards.
func (b *runBuilder) finish() sortedRun {
	b.run.arena.kb = strings.Builder{}
	return b.run
}

// runIter walks a sortedRun in key order. cell() returns a view that is
// overwritten by the next cell() after a next().
type runIter struct {
	run *sortedRun
	idx int
	c   Cell
}

func (it *runIter) valid() bool { return it.idx < len(it.run.refs) }
func (it *runIter) key() string { return it.run.key(it.idx) }
func (it *runIter) next()       { it.idx++ }
func (it *runIter) fail() error { return nil }
func (it *runIter) cell() *Cell {
	it.run.arena.view(&it.run.refs[it.idx], &it.c)
	return &it.c
}
