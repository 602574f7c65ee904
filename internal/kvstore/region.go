package kvstore

import (
	"fmt"
	"strings"
	"sync"
)

// familyStore is one column family's LSM pipeline inside a region, the
// analogue of an HBase Store: its own memtable and its own immutable
// runs, so reading one family never walks another family's cells. Every
// cell in mem and runs has Family == family. The region's lock guards
// all of it.
type familyStore struct {
	family string
	mem    *memtable
	runs   []run // newest first

	// quarantined holds this family's on-disk runs that failed checksum
	// verification in a Scrub pass. They are off the read path — any
	// read of this family whose key range may touch one fails with a
	// typed CorruptionError rather than silently missing rows — and
	// their files are never unlinked while the table lives, so the
	// damaged bytes remain available for repair. The manifest records
	// them, so a quarantine outlives flushes, compactions and reopens.
	quarantined []quarantinedRun
}

// Region is one horizontal shard of a table: the half-open row-key range
// [StartKey, EndKey), hosted by a single node. Each region owns one LSM
// store per column family (memtable + immutable runs) and a mutex
// providing the row-level atomicity HBase guarantees (Section 6 relies
// on it). With a diskStore attached the runs are on-disk SSTables and
// the region keeps a write-ahead log file; without one everything lives
// in memory (the original simulated mode) and there is no log. The two
// modes never mix within a region.
type Region struct {
	mu       sync.RWMutex
	id       int
	table    string
	startKey string // inclusive; "" = unbounded low
	endKey   string // exclusive; "" = unbounded high
	node     int    // hosting node, fixed at creation
	seed     int64  // memtable skip-list seed base

	// stores holds one store per column family that has ever received a
	// cell, sorted by family name; created on first write (or at cold
	// start from the region's files and WAL), never removed.
	stores []*familyStore // guarded by: mu
	log    *wal           // nil in memory mode; guarded by: mu
	seq    uint64         // guarded by: mu
	cache  *rowCache
	store  *diskStore // nil = memory-only

	// liveCells is the region's live-cell count (see LiveCellCount),
	// current while liveCounted is set. The first ask walks the region
	// to establish it; from then on applyMutation keeps it current, so a
	// region nobody asks about pays only the liveCounted check per
	// write. Flushes and compactions preserve the live set and leave the
	// count alone. Anything else that changes the live set (a scrub
	// quarantine) calls invalidateLiveLocked: the next ask walks again.
	// The walk runs under the READ lock and installs its result only if
	// neither seq nor liveEpoch moved meanwhile — the validity stamp
	// that keeps a walk from outliving a write or an invalidation.
	liveCells   uint64 // guarded by: mu
	liveCounted bool   // guarded by: mu
	liveEpoch   uint64 // guarded by: mu

	flushThreshold   uint64 // guarded by: mu
	compactThreshold int
	// compactionBytes counts bytes written by compactions — the write
	// amplification the tiered policy exists to bound.
	// guarded by: mu
	compactionBytes uint64
}

const (
	defaultFlushThreshold   = 4 << 20 // 4 MB memstore, scaled-down HBase default
	defaultCompactThreshold = 4
)

func newRegion(id int, table, startKey, endKey string, node int, seed int64, cacheBytes uint64) *Region {
	return &Region{
		id:               id,
		table:            table,
		startKey:         startKey,
		endKey:           endKey,
		node:             node,
		seed:             seed,
		cache:            newRowCache(cacheBytes),
		flushThreshold:   defaultFlushThreshold,
		compactThreshold: defaultCompactThreshold,
	}
}

// attachStore switches a fresh region to disk-backed mode: it gains a
// WAL file in the store directory and every flush writes an SSTable.
// It returns the log's valid prefix — empty for a new region — for cold
// start to replay. Must be called before the region receives any
// mutation.
func (r *Region) attachStore(store *diskStore) ([]byte, error) {
	if store == nil {
		return nil, nil
	}
	w, logged, err := openWAL(store.fs, store.walPath(r.id))
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.store = store
	r.log = w
	r.mu.Unlock()
	return logged, nil
}

// manifestTemplateLocked renders the region's identity for manifest
// upserts. Callers either hold r.mu (flush, compaction) or own a region
// no other goroutine can reach yet (table creation).
func (r *Region) manifestTemplateLocked() manifestRegion {
	return manifestRegion{ID: r.id, Start: r.startKey, End: r.endKey, Node: r.node}
}

// manifestRecordLocked renders the region's full manifest record — its
// identity, sequence, SSTable names (family by family, newest first
// within each) and quarantined files — plus the largest cell timestamp
// the SSTables hold. Caller holds r.mu; all runs are disk segments in
// disk mode.
func (r *Region) manifestRecordLocked() (rec manifestRegion, maxTs int64) {
	rec = r.manifestTemplateLocked()
	rec.Seq = r.seq
	for _, st := range r.stores {
		for _, s := range st.runs {
			d := s.(*diskSegment)
			rec.Files = append(rec.Files, d.name)
			if d.meta.maxTs > maxTs {
				maxTs = d.meta.maxTs
			}
		}
		for _, q := range st.quarantined {
			rec.Quarantined = append(rec.Quarantined, manifestQuarantined{Name: q.name, Family: st.family, MinRow: q.minRow, MaxRow: q.maxRow})
		}
	}
	return rec, maxTs
}

// storeLocked returns the family's store, creating it on first use.
// Caller holds r.mu exclusively.
func (r *Region) storeLocked(family string) *familyStore {
	i := 0
	for ; i < len(r.stores) && r.stores[i].family < family; i++ {
	}
	if i < len(r.stores) && r.stores[i].family == family {
		return r.stores[i]
	}
	// Clone: family may be a substring of a WAL key being replayed.
	st := &familyStore{family: strings.Clone(family), mem: r.newMemtableLocked()}
	r.stores = append(r.stores, nil)
	copy(r.stores[i+1:], r.stores[i:])
	r.stores[i] = st
	return st
}

// newMemtableLocked returns an empty memtable, seeded from the region's
// seed and sequence so region behaviour is deterministic run to run.
// Caller holds r.mu.
func (r *Region) newMemtableLocked() *memtable {
	return newMemtable(r.seed + int64(r.seq))
}

// memSizeLocked is the region's total memstore size — the flush trigger
// — summed over its family stores. Caller holds r.mu.
func (r *Region) memSizeLocked() uint64 {
	var n uint64
	for _, st := range r.stores {
		n += st.mem.size
	}
	return n
}

// shutdown releases the region's file handles (disk mode). The region
// must not be used afterwards.
func (r *Region) shutdown() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, st := range r.stores {
		for _, s := range st.runs {
			if err := s.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if err := r.log.close(); err != nil && first == nil {
		first = err
	}
	return first
}

// setFlushThreshold overrides the memstore flush threshold (tests force
// small SSTables with it).
func (r *Region) setFlushThreshold(n uint64) {
	r.mu.Lock()
	r.flushThreshold = n
	r.mu.Unlock()
}

// ID returns the region's identifier.
func (r *Region) ID() int { return r.id }

// Node returns the hosting node index.
func (r *Region) Node() int { return r.node }

// StartKey returns the inclusive low bound ("" = unbounded).
func (r *Region) StartKey() string { return r.startKey }

// EndKey returns the exclusive high bound ("" = unbounded).
func (r *Region) EndKey() string { return r.endKey }

// contains reports whether row falls in this region's range.
func (r *Region) contains(row string) bool {
	if r.startKey != "" && row < r.startKey {
		return false
	}
	if r.endKey != "" && row >= r.endKey {
		return false
	}
	return true
}

// OpStats reports the physical work one operation performed, so callers
// (the metered client, the MapReduce runner) can charge the right costs
// in the right places.
type OpStats struct {
	CellsExamined uint64 // logical KV pairs touched (read units)
	BytesRead     uint64 // bytes read from disk (measured block bytes in disk mode)
	BytesReturned uint64 // payload bytes leaving the region server
	CellsReturned uint64
	// CacheHits counts keyed reads served from the row cache: no disk
	// bytes, no seek — callers charge RPC/transfer/CPU but skip the
	// storage costs for these.
	CacheHits uint64
	// BlockReads counts SSTable blocks fetched from disk (block-cache
	// misses); disk-mode callers charge one seek per block read instead
	// of the memory mode's flat per-operation seek. BlockCacheHits
	// counts blocks served from the shared block cache.
	BlockReads     uint64
	BlockCacheHits uint64
}

func (s *OpStats) add(o OpStats) {
	s.CellsExamined += o.CellsExamined
	s.BytesRead += o.BytesRead
	s.BytesReturned += o.BytesReturned
	s.CellsReturned += o.CellsReturned
	s.CacheHits += o.CacheHits
	s.BlockReads += o.BlockReads
	s.BlockCacheHits += o.BlockCacheHits
}

// checkCell refuses a cell this region cannot store: an invalid row,
// family or qualifier, a row outside the region, or a value or internal
// key too large for the arena. Every write door checks each cell with
// it before the cell lands.
func (r *Region) checkCell(c *Cell) error {
	if err := ValidateKeyComponent(c.Row); err != nil {
		return err
	}
	if err := ValidateKeyComponent(c.Family); err != nil {
		return fmt.Errorf("kvstore: bad family: %w", err)
	}
	if c.Qualifier != "" {
		if err := ValidateKeyComponent(c.Qualifier); err != nil {
			return fmt.Errorf("kvstore: bad qualifier: %w", err)
		}
	}
	if !r.contains(c.Row) {
		return fmt.Errorf("kvstore: row %q outside region [%q, %q)", c.Row, r.startKey, r.endKey)
	}
	if len(c.Value) > maxArenaItem {
		return fmt.Errorf("kvstore: value of %d bytes exceeds the %d-byte cell limit", len(c.Value), maxArenaItem)
	}
	if n := internalKeyLen(c); n > maxArenaItem {
		return fmt.Errorf("kvstore: cell key of %d bytes exceeds the %d-byte cell limit", n, maxArenaItem)
	}
	return nil
}

// applyMutation validates, logs, and inserts one cell version.
// locked: r.mu
func (r *Region) applyMutation(c Cell) error {
	if err := r.checkCell(&c); err != nil {
		return err
	}
	r.seq++
	key := cellKey(c.Row, c.Family, c.Qualifier, c.Timestamp, r.seq)
	if err := r.log.append(key, &c); err != nil {
		return err
	}
	st := r.storeLocked(c.Family)
	if r.liveCounted {
		r.countMutationLocked(st, key, &c)
	}
	// The memtable copies key and value into its arena, so the caller
	// may reuse its buffers the moment the write returns.
	st.mem.put(key, &c)
	r.cache.invalidate(c.Row)
	if r.memSizeLocked() > r.flushThreshold {
		return r.flushLocked(nil, 0)
	}
	return nil
}

// countMutationLocked moves the maintained live count by cell c, about
// to be inserted under key into family store st. A column's keys sort
// newest first — timestamp descending, then sequence descending — and
// key carries the region's highest sequence, so c becomes the column's
// newest version exactly when key sorts before the newest stored one,
// i.e. when c's timestamp is >= that version's. Only then does the
// column's liveness change, from the old newest version's to c's. A
// lookup that fails drops the count, so the next ask walks again.
// locked: r.mu
func (r *Region) countMutationLocked(st *familyStore, key string, c *Cell) {
	old, oldLive, err := st.newestVersion(c.Row, key[:len(key)-cellKeySuffixLen])
	if err != nil {
		r.invalidateLiveLocked()
		return
	}
	if old != "" && old < key {
		return // a newer version stays the column's newest
	}
	if oldLive {
		r.liveCells--
	}
	if !c.Tombstone {
		r.liveCells++
	}
}

// newestVersion returns the key of the newest stored version of the
// column whose key prefix is col ("" = none) and whether that version is
// live: the smallest key with that prefix across the memtable and the
// runs whose row range and bloom filter admit row, each positioned the
// way a point get positions it (rowIterLocked), without the merge and
// unbilled. Caller holds the region lock.
func (st *familyStore) newestVersion(row, col string) (key string, live bool, err error) {
	mit := memtableIter{m: st.mem}
	mit.moveTo(st.mem.seek(col))
	if mit.valid() && strings.HasPrefix(mit.key(), col) {
		key, live = mit.key(), !mit.cell().Tombstone
	}
	for _, s := range st.runs {
		if !s.mayContainRow(row) {
			continue
		}
		it := s.iterAt(col, nil)
		if !it.valid() {
			if err := it.fail(); err != nil {
				return "", false, err
			}
			continue
		}
		if k := it.key(); strings.HasPrefix(k, col) && (key == "" || k < key) {
			key, live = k, !it.cell().Tombstone
		}
	}
	return key, live, nil
}

// invalidateLiveLocked drops the maintained live count after a change
// to the live set that applyMutation did not see. Caller holds r.mu
// exclusively.
func (r *Region) invalidateLiveLocked() {
	r.liveCounted = false
	r.liveEpoch++
}

// mutateRow applies several cells of ONE row atomically.
func (r *Region) mutateRow(cells []Cell) error {
	if len(cells) == 0 {
		return nil
	}
	row := cells[0].Row
	for i := range cells {
		if cells[i].Row != row {
			return fmt.Errorf("kvstore: mutateRow spans rows %q and %q", row, cells[i].Row)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range cells {
		if err := r.applyMutation(cells[i]); err != nil {
			return err
		}
	}
	return nil
}

// flushLocked materializes every non-empty family memtable into a new
// run of its store — an in-memory segment, or in disk mode one SSTable
// per family, all registered by ONE manifest save — and only then
// truncates the WAL: a crash before the save leaves orphan files and an
// intact WAL, a crash after it replays records the files already hold
// (harmless), and no flush is ever visible for some families only.
//
// In memory mode staged holds a bulk write's cells (see sealBulk),
// sorted by family and then by internal key, cell e carrying sequence
// base+e.ord: each family's share goes into its store's new run beside
// the memtable's cells, so a family with staged cells is dirty even
// when its memtable is empty. Disk mode never stages. Caller holds r.mu.
//
//lint:allow chargecheck flushes are server-side background work, free in the client cost model (writes were already billed when applied, bulk writes by their callers)
func (r *Region) flushLocked(staged []bulkEntry, base uint64) error {
	var dirty []*familyStore
	var spans [][]bulkEntry
	for _, st := range r.stores {
		n := 0
		for n < len(staged) && staged[n].c.Family == st.family {
			n++
		}
		if st.mem.count > 0 || n > 0 {
			dirty = append(dirty, st)
			spans = append(spans, staged[:n])
		}
		staged = staged[n:]
	}
	if len(staged) > 0 {
		panic("kvstore: staged cells of a family with no store")
	}
	if len(dirty) == 0 {
		return nil
	}
	flushed := make([]run, len(dirty))
	for i, st := range dirty {
		if r.store == nil {
			flushed[i] = st.sealedRun(spans[i], base)
			continue
		}
		name := r.store.allocFile()
		seg, err := writeSSTable(r.store.fs, r.store.dir, name, r.store.cache, st.mem.iterator(""))
		if err != nil {
			// The earlier families' files were never registered and
			// nothing references them: drop them now, best effort —
			// the next open's orphan sweep takes what this misses.
			for _, s := range flushed[:i] {
				s.close()
				_ = r.store.fs.Remove(r.store.dir + "/" + s.(*diskSegment).name)
			}
			return err
		}
		flushed[i] = seg
	}
	for i, st := range dirty {
		st.runs = append([]run{flushed[i]}, st.runs...)
	}
	if r.store != nil {
		if err := r.store.registerSegments(r.manifestRecordLocked()); err != nil {
			for i, st := range dirty {
				st.runs = st.runs[1:]
				flushed[i].close()
			}
			return err
		}
	}
	for _, st := range dirty {
		st.mem = r.newMemtableLocked()
	}
	if err := r.log.truncate(); err != nil {
		return err
	}
	for _, st := range dirty {
		if len(st.runs) > r.compactThreshold {
			if err := r.compactTieredLocked(st); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush moves every non-empty family memtable into a new run now,
// whatever the threshold: FlushAll calls it on each region.
func (r *Region) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flushLocked(nil, 0)
}

// gcIter filters a merged stream down to its live cells: only the newest
// version of each column, and only when that version is not a
// tombstone. It states the "newest live version" rule once, for major
// compaction (mergeSegments), the live-cell count (walkLiveLocked) and
// the repair snapshot (allCells). Versions shadowed inside the merge
// are dropped, so the merge must cover every version of its columns:
// every run plus every memtable (iteratorsLocked), or every run plus an
// empty memtable (see compactTieredLocked).
type gcIter struct {
	src                        cellIter
	lastRow, lastFam, lastQual string
	started                    bool
}

func newGCIter(src cellIter) *gcIter {
	g := &gcIter{src: src}
	g.settle()
	return g
}

// settle advances src to the next surviving cell (possibly the current
// one).
func (g *gcIter) settle() {
	for g.src.valid() {
		c := g.src.cell()
		if !g.started || c.Row != g.lastRow || c.Family != g.lastFam || c.Qualifier != g.lastQual {
			g.started = true
			g.lastRow, g.lastFam, g.lastQual = c.Row, c.Family, c.Qualifier
			if !c.Tombstone {
				return
			}
		}
		g.src.next()
	}
}

func (g *gcIter) valid() bool { return g.src.valid() }
func (g *gcIter) key() string { return g.src.key() }
func (g *gcIter) cell() *Cell { return g.src.cell() }
func (g *gcIter) fail() error { return g.src.fail() }
func (g *gcIter) next() {
	g.src.next()
	g.settle()
}

// mergeSegments merges sorted in-memory runs into one. With gc (a full
// merge of every run, i.e. a major compaction), only the newest version
// of each column survives and columns whose newest version is a
// tombstone are dropped entirely. Without gc (a subset merge), EVERY
// version is retained: a tombstone inside the merge must still hide the
// versions of its column in runs outside it, so a subset merge only
// reduces run count. Reclaiming the versions it shadows would change
// what later merges write, and with it the simulated counts.
func mergeSegments(segs []*segment, gc bool) *segment {
	entries, keyBytes, valBytes := 0, 0, 0
	iters := make([]cellIter, 0, len(segs))
	for _, s := range segs {
		entries += s.len()
		kb, vb := s.arena.size()
		keyBytes, valBytes = keyBytes+kb, valBytes+vb
		iters = append(iters, s.iterator(""))
	}
	var it cellIter = newMergedIter(iters...)
	if gc {
		it = newGCIter(it)
	}
	// The counts are upper bounds when gc drops versions.
	b := newRunBuilder(entries, keyBytes, valBytes)
	for ; it.valid(); it.next() {
		b.add(it.key(), it.cell())
	}
	return newSegment(b.finish())
}

// sizeTier buckets a segment size into ~4x-wide classes; size-tiered
// compaction only merges runs from the same class. The tier count is
// capped so base*4 can never overflow into an endless loop.
func sizeTier(size uint64) int {
	t := 0
	for base := uint64(64 << 10); size >= base && t < 24; base *= 4 {
		t++
	}
	return t
}

// maxSegmentsLocked bounds one family store's read fan-out: past this
// run count the policy falls back to a full merge even when no tier is
// full.
func (r *Region) maxSegmentsLocked() int { return 3 * r.compactThreshold }

// compactTieredLocked runs size-tiered compaction on one family store:
// merge only runs of similar size (the smallest qualifying tier first),
// instead of rewriting the whole store on every trigger. A merge of a
// strict subset retains every version (it only reduces run count; see
// mergeSegments), while a merge that happens to cover every run of the
// family garbage-collects like a major compaction. Caller holds r.mu.
func (r *Region) compactTieredLocked(st *familyStore) error {
	for len(st.runs) > r.compactThreshold {
		tiers := map[int][]int{}
		maxTier := 0
		for i, s := range st.runs {
			t := sizeTier(s.dataSize())
			tiers[t] = append(tiers[t], i)
			if t > maxTier {
				maxTier = t
			}
		}
		picked := []int(nil)
		for t := 0; t <= maxTier; t++ {
			if len(tiers[t]) >= r.compactThreshold {
				picked = tiers[t]
				break
			}
		}
		if picked == nil {
			if len(st.runs) <= r.maxSegmentsLocked() {
				return nil
			}
			// Fan-out cap exceeded with no full tier: fall back to a
			// full merge. Besides restoring the bound, this is the
			// steady-state garbage collector — subset merges retain
			// every version, so without periodic full merges an
			// update-heavy workload would accumulate dead versions and
			// tombstones forever. The family's memtable is always empty
			// here (the only caller is flushLocked, right after it
			// emptied it), so dropping tombstones cannot resurrect
			// memtable versions.
			picked = allRuns(st)
		}
		if err := r.mergeSegmentsLocked(st, picked); err != nil {
			return err
		}
	}
	return nil
}

// allRuns returns the index of every run of st, the pick of a full merge.
func allRuns(st *familyStore) []int {
	picked := make([]int, len(st.runs))
	for i := range picked {
		picked[i] = i
	}
	return picked
}

// mergeSegmentsLocked replaces st's runs at the given (ascending)
// indices with their merge, placed at the newest picked position. A
// column's versions live only in its family's store, so a merge covering
// every run of st may garbage-collect whatever the other families hold.
// In disk mode the merge streams block-by-block into a new SSTable, the
// replacement is durably registered in the manifest, and ONLY THEN are
// the input files unlinked — a crash between the write and the register
// leaves an orphan new file (cleaned at next open); a crash between the
// register and the unlink leaves orphan old files; neither loses data.
//
//lint:allow chargecheck compactions are server-side background work, free in the client cost model; write amplification is tracked in CompactionBytes instead
func (r *Region) mergeSegmentsLocked(st *familyStore, picked []int) error {
	runs := make([]run, 0, len(picked))
	for _, i := range picked {
		runs = append(runs, st.runs[i])
	}
	full := len(picked) == len(st.runs)

	var merged run // nil = merge produced no cells (disk mode only)
	var obsolete []string
	if r.store == nil {
		segs := make([]*segment, 0, len(runs))
		for _, s := range runs {
			segs = append(segs, s.(*segment))
		}
		m := mergeSegments(segs, full)
		r.compactionBytes += m.size
		merged = m
	} else {
		iters := make([]cellIter, 0, len(runs))
		for _, s := range runs {
			iters = append(iters, s.iterAt("", nil))
			obsolete = append(obsolete, s.(*diskSegment).name)
		}
		var src cellIter = newMergedIter(iters...)
		if full {
			src = newGCIter(src)
		}
		name := r.store.allocFile()
		seg, err := writeSSTable(r.store.fs, r.store.dir, name, r.store.cache, src)
		if err != nil {
			return err
		}
		if seg != nil {
			merged = seg
			r.compactionBytes += seg.meta.logical
		}
	}

	out := make([]run, 0, len(st.runs)-len(picked)+1)
	pi := 0
	for i, s := range st.runs {
		if pi < len(picked) && picked[pi] == i {
			if pi == 0 && merged != nil {
				out = append(out, merged)
			}
			pi++
			continue
		}
		out = append(out, s)
	}

	before := st.runs
	st.runs = out
	if r.store != nil {
		rec, maxTs := r.manifestRecordLocked()
		if err := r.store.registerSegments(rec, maxTs, obsolete...); err != nil {
			st.runs = before
			if merged != nil {
				merged.close()
			}
			return err
		}
		// The inputs are deregistered and unlinked; close their readers.
		// No concurrent reader exists — compaction holds the region
		// write lock — and open descriptors elsewhere (none today) would
		// keep the unlinked data readable anyway.
		for _, s := range runs {
			s.close()
		}
	}
	return nil
}

// Compact forces a major compaction: flush, then merge each family
// store's runs into one, keeping only the newest version of each column
// and dropping columns whose newest version is a tombstone.
func (r *Region) Compact() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.flushLocked(nil, 0); err != nil {
		return err
	}
	for _, st := range r.stores {
		if len(st.runs) == 0 {
			continue
		}
		if err := r.mergeSegmentsLocked(st, allRuns(st)); err != nil {
			return err
		}
	}
	return nil
}

// CompactionBytes returns the cumulative bytes written by compactions
// (write amplification accounting).
func (r *Region) CompactionBytes() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.compactionBytes
}

// iteratorsLocked merges the read sources — memtable and runs, newest
// first — of the requested families' stores (nil = all), positioned at
// start and charging block I/O to io (nil = uncharged introspection).
// Caller holds a read lock.
func (r *Region) iteratorsLocked(start string, families []string, io *OpStats) *mergedIter {
	var arr [8]cellIter // newMergedIter copies what it keeps
	its := arr[:0]
	for _, st := range r.stores {
		if !famMatch(families, st.family) {
			continue
		}
		its = append(its, st.mem.iterator(start))
		for _, s := range st.runs {
			its = append(its, s.iterAt(start, io))
		}
	}
	return newMergedIter(its...)
}

// famMatch reports whether family f passes the (possibly empty) family
// restriction without building a set. It selects stores, never cells.
func famMatch(families []string, f string) bool {
	if len(families) == 0 {
		return true
	}
	for _, x := range families {
		if x == f {
			return true
		}
	}
	return false
}

// scan appends to b the rows from startRow ("" = region start) to the
// region's end until b holds limit rows (0 = unlimited), restricted to
// the given families (nil = all), filtered by f (nil = none), and seals
// b. It returns the row it stopped on when it stopped for the limit, ""
// when it read to the end of the region.
//
// Column families are physically separate stores (HBase Stores/HFiles):
// the scan merges only the requested families' memtables and runs, so a
// family-restricted scan never touches — or pays for — another family's
// cells, and a quarantined run fails only reads of its own family.
//
// Cost accounting: in memory mode BytesRead is charged per examined
// cell from the stored-size formula; in disk mode it accumulates the
// MEASURED framed bytes of every block the scan faults in (block-cache
// hits read nothing), via the OpStats threaded through the iterators. A
// scan that stops at limit has read the next row's first cell to see
// that the row before ended. billNext says who pays for that cell: this
// scan (a client RPC, whose successor reads it again), or the scan that
// resumes at the returned row.
func (r *Region) scan(b *rowBlock, startRow string, limit int, families []string, f Filter, billNext bool) (OpStats, string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var stats OpStats
	it, err := r.scanIterLocked(startRow, families, &stats)
	if err != nil {
		return stats, "", err
	}
	next := ""
	if r.fillLocked(b, it, limit, f, &stats) {
		c := it.cell()
		next = c.Row
		if billNext && r.store == nil {
			stats.BytesRead += c.StoredSize()
		}
	}
	if err := it.fail(); err != nil {
		return stats, "", err
	}
	b.seal()
	return stats, next, nil
}

// scanIterLocked opens the merge a scan from startRow in the given
// families reads, positioned at startRow's first cell (clamped to the
// region's start) and charging block I/O to io. It fails a scan that
// could touch a quarantined run. Caller holds a read lock.
func (r *Region) scanIterLocked(startRow string, families []string, io *OpStats) (*mergedIter, error) {
	for _, st := range r.stores {
		if !famMatch(families, st.family) {
			continue
		}
		for _, q := range st.quarantined {
			if q.maxRow >= startRow {
				return nil, errQuarantined(q.name)
			}
		}
	}
	start := startRow
	if start == "" || (r.startKey != "" && start < r.startKey) {
		start = r.startKey
	}
	seekKey := ""
	if start != "" {
		seekKey = rowPrefix(start)
	}
	return r.iteratorsLocked(seekKey, families, io), nil
}

// fillLocked appends the rows it yields to b until b holds limit rows
// (0 = unlimited) or it passes the region's end, resolving each column
// to its newest version and dropping rows left without cells or
// rejected by f. It reports whether it stopped for the limit: it then
// stands on the next row's first cell, not yet billed. Caller holds a
// read lock and seals b.
func (r *Region) fillLocked(b *rowBlock, it *mergedIter, limit int, f Filter, stats *OpStats) bool {
	diskBacked := r.store != nil
	open := false // the last row of b is still being assembled
	first := 0    // that row's first cell in b.cells
	lastFam, lastQual := "", ""
	sawCol := false
	for ; it.valid(); it.next() {
		c := it.cell()
		if r.endKey != "" && c.Row >= r.endKey {
			break
		}
		if !open || b.rows[len(b.rows)-1].Key != c.Row {
			if open {
				b.closeRow(first, f, stats)
			}
			if limit > 0 && len(b.rows) >= limit {
				return true
			}
			b.rows = append(b.rows, Row{Key: c.Row})
			open, first, sawCol = true, len(b.cells), false
		}
		if !diskBacked {
			stats.BytesRead += c.StoredSize()
		}
		if !sawCol || c.Family != lastFam || c.Qualifier != lastQual {
			sawCol = true
			lastFam, lastQual = c.Family, c.Qualifier
			stats.CellsExamined++
			if !c.Tombstone {
				b.cells = append(b.cells, *c)
			}
		}
	}
	if open {
		b.closeRow(first, f, stats)
	}
	return false
}

// rowIterLocked positions one iterator on row's cells: only the sources
// that may contain the row — per requested family store (nil = all), the
// memtable plus the runs surviving the min/max-range and bloom-filter
// checks — each placed by binary search and merged. It returns nil when
// no source holds the row; the stream runs past the row's last cell, so
// callers stop at the first key without prefix (= rowPrefix(row)). Block
// I/O is charged to io. Caller holds a read lock.
func (r *Region) rowIterLocked(row, prefix string, families []string, io *OpStats) (cellIter, error) {
	var arr [8]cellIter
	sources := arr[:0]
	for _, st := range r.stores {
		if !famMatch(families, st.family) {
			continue
		}
		if mit := st.mem.iterator(prefix); mit.valid() && strings.HasPrefix(mit.key(), prefix) {
			sources = append(sources, mit)
		}
		for _, s := range st.runs {
			if !s.mayContainRow(row) {
				continue
			}
			sit := s.iterAt(prefix, io)
			if sit.valid() && strings.HasPrefix(sit.key(), prefix) {
				sources = append(sources, sit)
			} else if err := sit.fail(); err != nil {
				return nil, err
			}
		}
	}
	switch len(sources) {
	case 0:
		return nil, nil
	case 1:
		return sources[0], nil
	}
	return newMergedIter(sources...), nil
}

// get reads a single row (the given families, nil = all; latest
// versions) through the dedicated point-get fast path: a row-cache
// lookup first, then rowIterLocked's merge of only the sources that may
// contain the row, cut off at the first (newest) live version of every
// column. In disk mode the positioning walks summary → one index block
// → one data block per surviving SSTable, so a warm get touches no disk
// at all. Like a scan, a family-restricted get consults only its
// families' stores — runs and quarantine alike.
//
// Cost convention: a keyed read bills one seek plus the returned bytes,
// never a range scan, so in memory mode BytesRead is the returned
// payload on a miss and zero on a cache hit (the row came from
// region-server memory). In disk mode BytesRead/BlockReads are the
// measured block fetches the get actually performed. The cache serves
// and stores only full-row reads: a family-restricted get always reads
// the LSM, keeping its billed work identical on every repetition.
func (r *Region) get(row string, families []string) (*Row, OpStats, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, st := range r.stores {
		if !famMatch(families, st.family) {
			continue
		}
		for _, q := range st.quarantined {
			if q.minRow <= row && row <= q.maxRow {
				return nil, OpStats{}, errQuarantined(q.name)
			}
		}
	}
	var stats OpStats
	diskBacked := r.store != nil

	full := len(families) == 0
	if full {
		if cached, examined, ok := r.cache.lookup(row); ok {
			stats.CacheHits = 1
			stats.CellsExamined = examined
			if cached == nil {
				return nil, stats, nil
			}
			res := &Row{Key: cached.Key, Cells: append([]Cell(nil), cached.Cells...)}
			stats.CellsReturned = uint64(len(res.Cells))
			stats.BytesReturned = res.Size()
			return res, stats, nil
		}
	}
	prefix := rowPrefix(row)
	it, err := r.rowIterLocked(row, prefix, families, &stats)
	if err != nil {
		return nil, stats, err
	}

	var out Row
	out.Key = row
	if it != nil {
		lastFam, lastQual := "", ""
		sawCol := false
		for it.valid() {
			if !strings.HasPrefix(it.key(), prefix) {
				break
			}
			c := it.cell()
			if !sawCol || c.Family != lastFam || c.Qualifier != lastQual {
				// First (newest) version of this column decides it.
				sawCol = true
				lastFam, lastQual = c.Family, c.Qualifier
				stats.CellsExamined++
				if !c.Tombstone {
					out.Cells = append(out.Cells, *c)
				}
			}
			it.next()
		}
		if err := it.fail(); err != nil {
			return nil, stats, err
		}
	}

	if full {
		// Cache the materialized row — including its absence — while
		// still under the region read lock, so no writer can have
		// invalidated between read and insert.
		if len(out.Cells) == 0 {
			r.cache.insert(row, nil, stats.CellsExamined)
		} else {
			r.cache.insert(row, &out, stats.CellsExamined) // stores a detached copy
		}
	}
	if len(out.Cells) == 0 {
		return nil, stats, nil
	}
	stats.CellsReturned = uint64(len(out.Cells))
	stats.BytesReturned = out.Size()
	if !diskBacked {
		stats.BytesRead = stats.BytesReturned
	}
	return &out, stats, nil
}

// DiskSize returns the logical bytes held by this region (every family's
// memtable + runs); in disk mode this is the uncompressed StoredSize
// total, not the (compressed) file size, so planner statistics are
// mode-independent.
func (r *Region) DiskSize() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	size := r.memSizeLocked()
	for _, st := range r.stores {
		for _, s := range st.runs {
			size += s.dataSize()
		}
	}
	return size
}

// MemtableCells returns the number of cell versions in the region's
// memtables, not yet in a run.
func (r *Region) MemtableCells() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, st := range r.stores {
		n += st.mem.count
	}
	return n
}

// CellCount returns the number of stored cell versions.
func (r *Region) CellCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, st := range r.stores {
		n += st.mem.count
		for _, s := range st.runs {
			n += s.numCells()
		}
	}
	return n
}

// LiveCellCount returns the number of LIVE cells: distinct columns whose
// newest stored version is not a tombstone. Unlike CellCount it is
// insensitive to version churn, so planner cardinalities derived from it
// do not inflate on update-heavy tables between compactions. The first
// call walks the region under the READ lock, so planning never blocks
// concurrent reads; from then on the region keeps the count current as
// it applies mutations, and a call costs one read-lock cycle whatever
// the region holds. Only an invalidation (a scrub quarantine) makes the
// next call walk again.
func (r *Region) LiveCellCount() uint64 {
	r.mu.RLock()
	if r.liveCounted {
		n := r.liveCells
		r.mu.RUnlock()
		return n
	}
	seq, epoch := r.seq, r.liveEpoch
	n, err := r.walkLiveLocked()
	r.mu.RUnlock()
	if err != nil {
		return n // a partial count is never installed
	}

	r.mu.Lock()
	if !r.liveCounted && r.seq == seq && r.liveEpoch == epoch {
		r.liveCells, r.liveCounted = n, true
	}
	r.mu.Unlock()
	return n
}

// walkLiveLocked counts the live cells by a merge walk of every family
// store. Caller holds a read lock.
func (r *Region) walkLiveLocked() (uint64, error) {
	var n uint64
	it := newGCIter(r.iteratorsLocked("", nil, nil))
	for ; it.valid(); it.next() {
		n++
	}
	return n, it.fail()
}

// WALSize returns the byte length of the region's write-ahead log file:
// zero in memory mode, which keeps no log, and zero right after a flush.
func (r *Region) WALSize() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.log.size()
}

// RowCacheStats returns the region's cumulative row-cache hit/miss
// counts.
func (r *Region) RowCacheStats() (hits, misses uint64) {
	return r.cache.stats()
}

// setRowCacheBytes resizes (0 = disables) the region's row cache.
func (r *Region) setRowCacheBytes(n uint64) {
	r.cache.setCapacity(n)
}

// replayLocked replays a WAL's valid prefix at cold start, each record
// into the memtable of the family its key names, advancing the region
// sequence past every record's. It returns the largest cell timestamp
// replayed, for the cluster clock. Caller holds r.mu.
func (r *Region) replayLocked(logged []byte) (maxTs int64, err error) {
	err = replayWAL(logged, func(key string, value []byte, tombstone bool) error {
		row, family, qualifier, ts, seq, err := parseCellKey(key)
		if err != nil {
			return err
		}
		c := Cell{Row: row, Family: family, Qualifier: qualifier, Value: value, Timestamp: ts, Tombstone: tombstone}
		r.storeLocked(family).mem.put(key, &c)
		r.seq = max(r.seq, seq)
		maxTs = max(maxTs, ts)
		return nil
	})
	return maxTs, err
}

// allCells snapshots every live (latest-version, non-tombstone) cell, for
// Merkle digests and repair payloads. It reads every family, so any
// quarantined run fails it: a digest built around the hole would make
// the missing rows' absence permanent.
func (r *Region) allCells() ([]Cell, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, st := range r.stores {
		if len(st.quarantined) > 0 {
			return nil, errQuarantined(st.quarantined[0].name)
		}
	}
	var out []Cell
	it := newGCIter(r.iteratorsLocked("", nil, nil))
	for ; it.valid(); it.next() {
		out = append(out, *it.cell())
	}
	if err := it.fail(); err != nil {
		return nil, err
	}
	return out, nil
}
