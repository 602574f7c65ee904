package kvstore

import "math/rand"

// memtable is the mutable, sorted in-memory write buffer of one family
// store, mirroring HBase's memstore: a skip list over a cellArena
// (arena.go). Keys and values live in the arena's slabs; the list itself
// is pages of 32-bit words in which a node is its cellRef followed by
// its tower of links, and a link is the position (page, offset) of the
// successor's node. A search step therefore reads the link out of the
// node it has just compared and lands on the next node's key address —
// two dependent loads, not a node, a link array and a key object — the
// collector sees a few pointer-free pages however many cells the list
// holds, and growing it never copies what is already there. Entries are
// never updated in place — every Put/Delete appends a new version keyed
// by (timestamp, sequence) — and flush copies the list, in order, into
// an immutable segment.
type memtable struct {
	arena cellArena
	// pages holds the nodes back to back, none straddling a page: a
	// node is memNodeRef words of cellRef (see loadRef), then one link
	// per level of its tower. Node position n is page n>>memPageShift,
	// offset n&memPageMask. Position 0 is the head sentinel — no cell, a
	// full-height tower — so a link of 0 means "no successor". Only the
	// first page is ever reallocated (it starts small: most memtables
	// hold a few cells).
	pages [][]uint32
	level int
	size  uint64 // accumulated StoredSize of entries
	count int
	rng   *rand.Rand
	// scratch is the predecessor buffer reused across puts; safe because
	// puts are serialized by the region write lock.
	scratch [memtableMaxLevel]uint32
}

const (
	memtableMaxLevel = 20
	// memNodeRef is the number of words a cellRef occupies in a node.
	memNodeRef = 8

	memPageShift = 12 // 16 KiB pages
	memPageWords = 1 << memPageShift
	memPageMask  = memPageWords - 1
	// maxMemPages keeps node positions inside a uint32. A memtable is
	// flushed at a few megabytes, orders of magnitude earlier.
	maxMemPages = 1 << (32 - memPageShift)
)

// newMemtable returns an empty memtable. The skip list uses a seeded
// PRNG so region behaviour is deterministic run to run.
func newMemtable(seed int64) *memtable {
	return &memtable{
		pages: [][]uint32{make([]uint32, memNodeRef+memtableMaxLevel)},
		level: 1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

func (m *memtable) randomLevel() int {
	lvl := 1
	for lvl < memtableMaxLevel && m.rng.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// node returns the words of the node at position n, to its page's end.
func (m *memtable) node(n uint32) []uint32 { return m.pages[n>>memPageShift][n&memPageMask:] }

// next returns node n's successor at level i (0 = none).
func (m *memtable) next(n uint32, i int) uint32 { return m.node(n)[memNodeRef+i] }

// key returns node n's internal key.
func (m *memtable) key(n uint32) string {
	w := m.node(n)[:3]
	return m.arena.keyAt(w[0], w[1], w[2])
}

// loadRef and storeRef move a cellRef out of and into a node's words.
func loadRef(w []uint32) cellRef {
	w = w[:memNodeRef]
	return cellRef{kslab: w[0], koff: w[1], klen: w[2], rowLen: w[3], famLen: w[4], vslab: w[5], voff: w[6], vlen: w[7]}
}

func storeRef(w []uint32, r cellRef) {
	w = w[:memNodeRef]
	w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = r.kslab, r.koff, r.klen, r.rowLen, r.famLen, r.vslab, r.voff, r.vlen
}

// findLess returns the last node at level 0 with key < k, recording the
// predecessor at every level in update when it is non-nil.
func (m *memtable) findLess(k string, update *[memtableMaxLevel]uint32) uint32 {
	x := uint32(0)
	for i := m.level - 1; i >= 0; i-- {
		for n := m.next(x, i); n != 0 && m.key(n) < k; n = m.next(x, i) {
			x = n
		}
		if update != nil {
			update[i] = x
		}
	}
	return x
}

// put inserts a copy of a cell version. Keys are unique because every
// mutation carries a fresh sequence number; equal keys overwrite
// (idempotent WAL replay).
func (m *memtable) put(key string, c *Cell) {
	update := &m.scratch
	x := m.findLess(key, update)
	if n := m.next(x, 0); n != 0 && m.key(n) == key {
		w := m.node(n)
		ref := loadRef(w)
		m.size -= ref.storedSize()
		m.arena.setValue(c.Value, c.Tombstone, &ref)
		storeRef(w, ref)
		m.size += ref.storedSize()
		return
	}
	lvl := m.randomLevel()
	if lvl > m.level {
		for i := m.level; i < lvl; i++ {
			update[i] = 0
		}
		m.level = lvl
	}

	// Place the node: on the last page, or on a new one when it would
	// straddle the page's end.
	p := len(m.pages) - 1
	if len(m.pages[p])+memNodeRef+lvl > memPageWords {
		if len(m.pages) == maxMemPages {
			panic("kvstore: memtable outgrew its 32-bit node positions")
		}
		m.pages = append(m.pages, make([]uint32, 0, memPageWords))
		p++
	}
	n := uint32(p)<<memPageShift | uint32(len(m.pages[p]))
	var node [memNodeRef + memtableMaxLevel]uint32
	ref := m.arena.add(key, c)
	storeRef(node[:], ref)
	for i := 0; i < lvl; i++ {
		link := &m.node(update[i])[memNodeRef+i]
		node[memNodeRef+i] = *link
		*link = n
	}
	m.pages[p] = append(m.pages[p], node[:memNodeRef+lvl]...)
	m.size += ref.storedSize()
	m.count++
}

// seek returns the first node with key >= k (0 = none).
func (m *memtable) seek(k string) uint32 {
	return m.next(m.findLess(k, nil), 0)
}

// iterator walks entries in ascending key order starting at >= start.
func (m *memtable) iterator(start string) *memtableIter {
	it := &memtableIter{m: m}
	it.moveTo(m.seek(start))
	return it
}

// memtableIter's cell() returns a view that is overwritten by the next
// cell() after a next().
type memtableIter struct {
	m    *memtable
	node []uint32 // the current node's words; nil when exhausted
	c    Cell
}

func (it *memtableIter) moveTo(n uint32) {
	it.node = nil
	if n != 0 {
		it.node = it.m.node(n)
	}
}

func (it *memtableIter) valid() bool { return it.node != nil }
func (it *memtableIter) key() string { return it.m.arena.keyAt(it.node[0], it.node[1], it.node[2]) }
func (it *memtableIter) next()       { it.moveTo(it.node[memNodeRef]) }
func (it *memtableIter) fail() error { return nil }
func (it *memtableIter) cell() *Cell {
	ref := loadRef(it.node)
	it.m.arena.view(&ref, &it.c)
	return &it.c
}
