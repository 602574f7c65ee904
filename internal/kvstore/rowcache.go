package kvstore

import (
	"strings"
	"sync"

	"repro/internal/lru"
)

// DefaultRowCacheBytes is the per-region row cache capacity. The cache
// plays the role of HBase's block cache for the point-get path: a hit
// serves the materialized row with zero segment work.
const DefaultRowCacheBytes = 4 << 20

// rcEntry is one cached row. r == nil caches a MISS (the row has no live
// cells), which is as valuable as a positive entry under BFHM's
// false-positive reverse-mapping lookups. examined preserves the
// CellsExamined the populating read reported (live columns plus
// tombstoned ones), so a warm hit bills exactly the read units a cold
// read of the same row would.
type rcEntry struct {
	r        *Row // nil = negative entry
	examined uint64
}

// rowCache is a byte-bounded LRU (lru.Cache) over fully materialized
// rows (all families, latest live versions). It has its own mutex
// because lookups mutate LRU order while the region holds only a read
// lock; the region mutex is always acquired first, so lock order is
// region -> cache. All fields, including the capacity the container
// holds, are guarded by mu — SetRowCacheBytes may run concurrently with
// reads.
//
// Coherence: entries are inserted only while the region read lock is
// held (writers take the region write lock, excluding concurrent
// insertion of stale rows) and invalidated per-row under the write lock
// on every mutation.
type rowCache struct {
	mu      sync.Mutex
	entries *lru.Cache[string, rcEntry] // guarded by: mu
	hits    uint64                      // guarded by: mu
	misses  uint64                      // guarded by: mu
}

// rcEntryOverhead approximates per-entry bookkeeping bytes.
const rcEntryOverhead = 64

func newRowCache(capacity uint64) *rowCache {
	return &rowCache{entries: lru.New[string, rcEntry](capacity, nil)}
}

// lookup returns the cached row, its billed examined count, and whether
// the row is cached at all (the row may be cached as absent: ok=true,
// r=nil). The returned *Row is shared — callers must copy before
// exposing it to mutation.
func (c *rowCache) lookup(row string) (r *Row, examined uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries.Cap() == 0 {
		return nil, 0, false
	}
	e := c.entries.Get(row)
	if e == nil {
		c.misses++
		return nil, 0, false
	}
	c.hits++
	return e.r, e.examined, true
}

// detachRow returns a copy of r in storage of its own: one string
// holding the row key and column names, one buffer holding the values.
// The cells a read assembles are views into memtable, segment and block
// arenas; cached as they are, a row would keep every arena it touches
// alive — a retired memtable, a compacted-away segment — for as long as
// it stays in the cache.
func detachRow(r *Row) *Row {
	names, vals := len(r.Key), 0
	for i := range r.Cells {
		names += len(r.Cells[i].Family) + len(r.Cells[i].Qualifier)
		vals += len(r.Cells[i].Value)
	}
	var sb strings.Builder
	sb.Grow(names)
	sb.WriteString(r.Key)
	for i := range r.Cells {
		sb.WriteString(r.Cells[i].Family)
		sb.WriteString(r.Cells[i].Qualifier)
	}
	text := sb.String()
	cut := func(n int) string {
		s := text[:n]
		text = text[n:]
		return s
	}
	var buf []byte
	if vals > 0 {
		buf = make([]byte, 0, vals)
	}
	out := &Row{Key: cut(len(r.Key)), Cells: make([]Cell, len(r.Cells))}
	for i := range r.Cells {
		c := r.Cells[i]
		c.Row = out.Key
		c.Family = cut(len(c.Family))
		c.Qualifier = cut(len(c.Qualifier))
		if n := len(c.Value); n > 0 {
			buf = append(buf, c.Value...)
			c.Value = buf[len(buf)-n : len(buf) : len(buf)]
		}
		out.Cells[i] = c
	}
	return out
}

// insert caches a detached copy of a row (r may be nil to cache absence)
// with the examined count its read reported. Existing entries are
// replaced.
func (c *rowCache) insert(row string, r *Row, examined uint64) {
	size := uint64(len(row)) + rcEntryOverhead
	if r != nil {
		size += r.Size()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.entries.Cap() {
		return // disabled, or the row is larger than the whole cache
	}
	if r != nil {
		r = detachRow(r)
	}
	c.entries.Add(row, rcEntry{r: r, examined: examined}, size)
}

// invalidate drops the entry for row, if any. Called under the region
// write lock on every mutation of the row. It runs even when the cache
// is disabled, so a resize racing a mutation can never leave a stale
// entry behind.
func (c *rowCache) invalidate(row string) {
	c.mu.Lock()
	c.entries.Remove(row)
	c.mu.Unlock()
}

// setCapacity resizes the cache, evicting down to the new bound.
// Capacity 0 disables caching and drops everything.
func (c *rowCache) setCapacity(capacity uint64) {
	c.mu.Lock()
	c.entries.SetCap(capacity)
	c.mu.Unlock()
}

// stats returns cumulative hit/miss counts.
func (c *rowCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
