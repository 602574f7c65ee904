package core

import (
	"bytes"
	"strings"
	"sync"

	"repro/internal/bloom"
	"repro/internal/kvstore"
	"repro/internal/lru"
)

// This file is what a BFHM index remembers between queries: decoded
// buckets and the Algorithm 7 estimates of bucket pairs, in one
// byte-bounded LRU (lru.Cache) per index, keyed by bucket number. A
// bucket larger than the whole budget is not remembered.
//
// Nothing is ever invalidated. A bucket entry keeps the cells it was
// decoded from, and a later read uses the entry only when the row it
// has just fetched equals those cells byte for byte; the read itself is
// still issued, so every metered charge, interrupt check and storage
// error of a warm query is a cold query's. Whatever changes a bucket row
// — a maintained write, the offline write-back, a repair, a rebuild —
// therefore misses without being told to. A pair estimate hangs off the
// entry of its left bucket and records which decoding of the right
// bucket it was computed from; each decoding gets an id that is issued
// once, so an estimate computed from a replaced bucket can never answer
// for its successor.
//
// Published means immutable: a bucket's filter and a pair's estimate
// (Bits included) are shared by every query that hits them and written
// by none.

// bfhmCacheBudget bounds the bytes one index keeps. It is generous: TPC-H
// Q1 at scale factor 0.01 and k=100 leaves 60 KB behind in its two
// indexes together (24 buckets, 144 pairs).
const bfhmCacheBudget = 8 << 20

// bfhmEntryOverhead and bfhmPairOverhead approximate the bookkeeping of
// a bucket entry and of one pair estimate: the structs, their map slots
// and the fixed part of what they point to.
const (
	bfhmEntryOverhead = 192
	bfhmPairOverhead  = 128
)

// bfhmEntryID names one decoding of one bucket: the cache that issued it
// and its serial there, never issued twice. The cache is named by the
// address of a one-byte token rather than by itself, because an index's
// entries name the buckets of the OTHER index of a join: after that index
// is dropped they keep a byte alive, not its cache.
type bfhmEntryID struct {
	origin *byte
	serial uint64
}

// bfhmSlot is where a left bucket's entry keeps its estimate against one
// right-hand bucket: by the right index's cache and the bucket's number.
type bfhmSlot struct {
	origin *byte
	no     int
}

// bfhmPair is a remembered Algorithm 7 estimate; it answers for the
// decoding of the right-hand bucket it was computed from and no other.
type bfhmPair struct {
	serial uint64
	est    *bloom.JoinEstimate // nil: the intersection is empty
}

// bfhmCacheEntry is one LRU entry: a decoded bucket, the cells of the row
// it was decoded from, and the estimates of the pairs it is the left
// bucket of. Replacing or evicting the bucket drops those estimates with
// it; decoding a right-hand bucket again overwrites its slot the next
// time the pair is estimated. The entry's size, which its estimates
// grow, is kept by the container.
type bfhmCacheEntry struct {
	bucket *bfhmBucket
	cells  []kvstore.Cell
	pairs  map[bfhmSlot]bfhmPair
}

type bfhmCache struct {
	origin *byte // never written after newBFHMCache

	mu      sync.Mutex
	serial  uint64                          // last id issued; guarded by: mu
	buckets *lru.Cache[int, bfhmCacheEntry] // bucket number -> entry; guarded by: mu

	// What the cache did, for tests: a bucket miss is a blob decoded, a
	// pair miss is an intersection computed.
	bucketHits, bucketMisses uint64 // guarded by: mu
	pairHits, pairMisses     uint64 // guarded by: mu
}

func newBFHMCache() *bfhmCache {
	return &bfhmCache{
		origin:  new(byte),
		buckets: lru.New[int, bfhmCacheEntry](bfhmCacheBudget, nil),
	}
}

// bucketCache returns the index's cache, creating it on first use: an
// index value read back from the catalog, like a freshly built one,
// starts with nothing remembered.
func (idx *BFHMIndex) bucketCache() *bfhmCache {
	if c := idx.cache.Load(); c != nil {
		return c
	}
	idx.cache.CompareAndSwap(nil, newBFHMCache())
	return idx.cache.Load()
}

// sameCells reports whether two reads of a row returned the same cells:
// every coordinate, timestamp, tombstone flag and value byte, compared.
func sameCells(a, b []kvstore.Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Timestamp != y.Timestamp || x.Tombstone != y.Tombstone ||
			x.Qualifier != y.Qualifier || x.Family != y.Family || x.Row != y.Row ||
			!bytes.Equal(x.Value, y.Value) {
			return false
		}
	}
	return true
}

// detachCells copies one row's cells into storage of their own (one
// string for the names, one buffer for the values). Fetched cells are
// views into memtable and block arenas; an entry that kept them would
// keep those arenas.
func detachCells(cells []kvstore.Cell) []kvstore.Cell {
	if len(cells) == 0 {
		return nil
	}
	row := cells[0].Row
	names, vals := len(row), 0
	for i := range cells {
		names += len(cells[i].Family) + len(cells[i].Qualifier)
		vals += len(cells[i].Value)
	}
	var sb strings.Builder
	sb.Grow(names)
	sb.WriteString(row)
	for i := range cells {
		sb.WriteString(cells[i].Family)
		sb.WriteString(cells[i].Qualifier)
	}
	text := sb.String()
	cut := func(n int) string {
		s := text[:n]
		text = text[n:]
		return s
	}
	row = cut(len(row))
	buf := make([]byte, 0, vals)
	out := make([]kvstore.Cell, len(cells))
	for i := range cells {
		c := cells[i]
		c.Row = row
		c.Family = cut(len(c.Family))
		c.Qualifier = cut(len(c.Qualifier))
		if n := len(c.Value); n > 0 {
			buf = append(buf, c.Value...)
			c.Value = buf[len(buf)-n : len(buf) : len(buf)]
		}
		out[i] = c
	}
	return out
}

// bucket returns the published bucket no if it was decoded from exactly
// these cells, else nil.
func (c *bfhmCache) bucket(no int, cells []kvstore.Cell) *bfhmBucket {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.buckets.Peek(no)
	if e == nil || !sameCells(e.cells, cells) {
		return nil
	}
	c.bucketHits++
	c.buckets.Get(no) // only a hit makes the entry the most recently used
	return e.bucket
}

// publishBucket makes b, just decoded from cells, the remembered form of
// its bucket and returns the bucket to use: b with a fresh id, or the
// entry a concurrent reader of the same cells published first (so both
// share one id and one set of pair estimates). cells must be detached;
// b must not be written again.
func (c *bfhmCache) publishBucket(b *bfhmBucket, cells []kvstore.Cell) *bfhmBucket {
	size := uint64(bfhmEntryOverhead)
	for i := range cells {
		size += uint64(cells[i].StoredSize()) + 88 // the bytes, and the Cell that points at them
	}
	if b.Filter != nil {
		size += 12 * uint64(b.Filter.PopCount()) // uint64 position + uint32 counter
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bucketMisses++
	if old := c.buckets.Peek(b.No); old != nil {
		if sameCells(old.cells, cells) {
			c.buckets.Get(b.No)
			return old.bucket
		}
		c.buckets.Remove(b.No)
	}
	c.serial++
	b.id = bfhmEntryID{origin: c.origin, serial: c.serial}
	c.buckets.Add(b.No, bfhmCacheEntry{bucket: b, cells: cells}, size)
	return b
}

// estimate is bloom.EstimateJoin(a.Filter, b.Filter) remembered: a is a
// bucket of the index that owns c, b of the index it is joined with. A
// nil estimate is an empty intersection.
func (c *bfhmCache) estimate(a, b *bfhmBucket) (*bloom.JoinEstimate, error) {
	slot := bfhmSlot{origin: b.id.origin, no: b.No}
	c.mu.Lock()
	if e := c.buckets.Peek(a.No); e != nil && e.bucket == a {
		if p, ok := e.pairs[slot]; ok && p.serial == b.id.serial {
			c.pairHits++
			c.mu.Unlock()
			return p.est, nil
		}
	}
	c.mu.Unlock()

	est, err := bloom.EstimateJoin(a.Filter, b.Filter)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pairMisses++
	e := c.buckets.Peek(a.No)
	if e == nil || e.bucket != a {
		return est, nil // a was replaced or evicted meanwhile: nothing to attach the estimate to
	}
	old, had := e.pairs[slot]
	grow := bitsBytes(est) - bitsBytes(old.est)
	if !had {
		grow += bfhmPairOverhead
		if e.pairs == nil {
			e.pairs = map[bfhmSlot]bfhmPair{}
		}
	}
	e.pairs[slot] = bfhmPair{serial: b.id.serial, est: est}
	c.buckets.Grow(a.No, grow)
	return est, nil
}

// bitsBytes is what an estimate's common-bit list weighs.
func bitsBytes(est *bloom.JoinEstimate) int64 {
	if est == nil {
		return 0
	}
	return 8 * int64(len(est.Bits))
}
