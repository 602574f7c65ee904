package kvstore

import (
	"sync"

	"repro/internal/lru"
)

// DefaultBlockCacheBytes is the store-wide block cache capacity, shared
// by every region's disk segments — the same role HBase's BlockCache
// plays across all HFiles of a region server.
const DefaultBlockCacheBytes = 32 << 20

// bcKey names one block: the SSTable's file number plus the block's
// file offset. File numbers are never reused (the manifest's NextFile
// only grows), so stale entries for deleted files simply age out.
type bcKey struct {
	segID uint64
	off   uint64
}

// blockCache is a byte-bounded LRU (lru.Cache) over decoded SSTable
// blocks (*decodedBlock or []indexEntry). Cached values are shared
// across readers and must never be mutated. The cache is shared across
// regions, so it has its own mutex; it is a leaf lock — no other lock
// is ever acquired while mu is held.
type blockCache struct {
	mu      sync.Mutex
	entries *lru.Cache[bcKey, any] // guarded by: mu
	hits    uint64                 // guarded by: mu
	misses  uint64                 // guarded by: mu
}

// bcEntryOverhead approximates per-entry bookkeeping bytes.
const bcEntryOverhead = 80

func newBlockCache(capacity uint64) *blockCache {
	return &blockCache{entries: lru.New[bcKey, any](capacity, nil)}
}

// lookup returns the cached decoded block for (segID, off), if present.
func (c *blockCache) lookup(segID, off uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries.Cap() == 0 {
		return nil, false
	}
	b := c.entries.Get(bcKey{segID, off})
	if b == nil {
		c.misses++
		return nil, false
	}
	c.hits++
	return *b, true
}

// insert caches a decoded block with its estimated memory footprint. A
// block larger than the whole cache is not cached.
func (c *blockCache) insert(segID, off uint64, block any, size uint64) {
	c.mu.Lock()
	c.entries.Add(bcKey{segID, off}, block, size+bcEntryOverhead)
	c.mu.Unlock()
}

// setCapacity resizes the cache, evicting down to the new bound.
// Capacity 0 disables caching and drops everything.
func (c *blockCache) setCapacity(capacity uint64) {
	c.mu.Lock()
	c.entries.SetCap(capacity)
	c.mu.Unlock()
}

// stats returns cumulative hit/miss counts.
func (c *blockCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
