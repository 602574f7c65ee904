package plan

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/lru"
)

// maxCacheEntries bounds the cache: (query, k) keys are client
// controlled (the HTTP server accepts arbitrary k), so the cache must
// not grow without limit. Past it the least recently used entry goes.
const maxCacheEntries = 1024

// Cache memoizes gathered PlanStats per (tree, k) so a hot query path
// (e.g. the HTTP server defaulting to AlgoAuto) does not re-read
// histogram statistics on every request. Entries are keyed on each
// input table's mutation sequence, which every plan reads from
// TableStats: unbilled, and no walk of the table even right after a
// write, since each region keeps its live-cell count current as it
// applies mutations. So ANY write (insert, delete, or update; the
// latter used to be able to slip past a count-based check) invalidates
// the entry and the next plan sees fresh statistics. The tree's ID
// encodes its edge predicates (JoinTree.ID), so same-leaf queries of
// different shapes never share an entry.
type Cache struct {
	mu      sync.Mutex
	entries *lru.Cache[string, cacheEntry] // entries of size 1; guarded by: mu
}

type cacheEntry struct {
	// seqs holds the mutation sequence of every leaf's table, in leaf
	// order.
	seqs []uint64
	// sources fingerprints which statistics structures existed when
	// the entry was gathered — building a DRJN or BFHM index upgrades
	// the available statistics without touching the input tables, and
	// must invalidate the entry.
	sources string
	stats   core.PlanStats
}

// NewCache returns an empty statistics cache.
func NewCache() *Cache {
	return &Cache{entries: lru.New[string, cacheEntry](maxCacheEntries, nil)}
}

func cacheKey(t *core.JoinTree) string {
	return fmt.Sprintf("%s|%d", t.ID(), t.K)
}

// sourceFingerprint describes which statistics structures the store
// currently offers for the tree: "d" when every leaf has a DRJN matrix,
// "b" when every leaf has a BFHM index.
func sourceFingerprint(t *core.JoinTree, store *core.IndexStore) string {
	allDRJN, allBFHM := true, true
	for i := range t.Relations {
		if _, ok := store.DRJN.Get(t.Relations[i].Name); !ok {
			allDRJN = false
		}
		if _, ok := store.BFHM.Get(t.Relations[i].Name); !ok {
			allBFHM = false
		}
	}
	fp := ""
	if allDRJN {
		fp += "d"
	}
	if allBFHM {
		fp += "b"
	}
	return fp
}

func seqsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup returns a cached stats snapshot still matching the live tables'
// mutation sequences and the available statistics structures.
func (c *Cache) lookup(t *core.JoinTree, seqs []uint64, sources string) (core.PlanStats, bool) {
	if c == nil {
		return core.PlanStats{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries.Get(cacheKey(t))
	if e == nil || !seqsEqual(e.seqs, seqs) || e.sources != sources {
		return core.PlanStats{}, false
	}
	return e.stats, true
}

// put stores a stats snapshot.
func (c *Cache) put(t *core.JoinTree, seqs []uint64, sources string, st core.PlanStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Add(cacheKey(t), cacheEntry{
		seqs:    append([]uint64(nil), seqs...),
		sources: sources,
		stats:   st,
	}, 1)
}
