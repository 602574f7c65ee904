package kvstore

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Cluster is a simulated NoSQL deployment: a set of nodes hosting the
// regions of any number of tables, fronted by a metered client API. All
// client operations charge the cluster's sim.Metrics according to its
// hardware Profile; region-local access for MapReduce goes through
// TableRegions and is charged by the job runner instead.
//
// A Cluster value is a *view*: the table/region state lives in a shared
// clusterState, while the metric collector is per-view. WithMetrics
// derives a view over the same store that charges a different collector —
// the mechanism behind per-query cost isolation (concurrent queries each
// meter their own lane) and parallel-lane time accounting.
type Cluster struct {
	state   *clusterState
	profile sim.Profile
	metrics *sim.Metrics
	// guard, when set, is consulted before every metered read RPC; a
	// non-nil return aborts the operation with that error. Query-layer
	// budgets (deadlines, context cancellation, read-unit caps) install
	// one via WithGuard so cancellation reaches into scans, multi-gets,
	// and MapReduce tasks mid-flight.
	guard func() error
}

// clusterState is the store shared by every view of one deployment.
type clusterState struct {
	mu             sync.RWMutex
	tables         map[string]*Table // guarded by: mu
	nextID         int               // guarded by: mu
	clock          int64             // guarded by: mu
	seed           int64             // guarded by: mu
	rowCacheBytes  uint64            // per-region row cache capacity for new regions; guarded by: mu
	flushThreshold uint64            // override for new regions (0 = default); guarded by: mu
	// store is the durable backing (nil = memory-only). Set once at
	// construction, read-only afterwards.
	store *diskStore
}

// Table is a named collection of regions with a declared column-family
// set. Its regions are fixed when the table is created (or rebuilt from
// the MANIFEST at cold start) and never change afterwards, so routing
// reads the list without a lock.
type Table struct {
	Name     string
	families map[string]bool

	// mutSeq moves whenever the table's visible contents change: every
	// applied client write batch (Put/BatchPut/GroupWrite) and every
	// Scrub that quarantines one of its runs.
	// Consumers key cached derivations of the table's contents — planner
	// statistics, plan choices — on it, so a matching sequence proves the
	// cache entry still describes the live table.
	mutSeq atomic.Uint64

	regions []*Region // sorted by StartKey; filled before the table is published
}

// MutationSeq returns the table's mutation sequence number: it starts at
// zero and advances on every applied client write batch and on every
// scrub quarantine of one of the table's runs.
func (t *Table) MutationSeq() uint64 { return t.mutSeq.Load() }

// NewCluster creates a cluster with the given hardware profile and a
// metric collector of its own (see WithMetrics for per-query views).
//
// When the KVSTORE_DISK=1 environment variable is set the cluster is
// transparently backed by a fresh on-disk store in a temp directory —
// the CI tier-2 hook that runs the whole suite over real SSTables. A
// store setup failure (now reachable through fault injection, not just
// exotic tempdir states) is returned, never panicked.
func NewCluster(profile sim.Profile) (*Cluster, error) {
	c := &Cluster{
		state: &clusterState{
			tables:        make(map[string]*Table),
			seed:          1,
			rowCacheBytes: DefaultRowCacheBytes,
		},
		profile: profile,
		metrics: &sim.Metrics{},
	}
	if os.Getenv("KVSTORE_DISK") == "1" {
		dir, err := os.MkdirTemp("", "kvstore-disk-")
		if err != nil {
			return nil, fmt.Errorf("kvstore: KVSTORE_DISK temp dir: %w", err)
		}
		store, err := openDiskStore(dir, DefaultBlockCacheBytes, nil)
		if err != nil {
			return nil, fmt.Errorf("kvstore: KVSTORE_DISK store: %w", err)
		}
		c.state.store = store
	}
	return c, nil
}

// OpenCluster opens (or initializes) a disk-backed cluster rooted at
// dir: it loads the manifest, re-creates every table and region, opens
// their SSTables newest-first, replays each region's WAL into a fresh
// memtable, and restores the logical clock and ID/sequence counters to
// values past everything durably stored — the cold-start recovery
// protocol (see the package documentation).
func OpenCluster(profile sim.Profile, dir string) (*Cluster, error) {
	return OpenClusterFS(profile, dir, nil)
}

// OpenClusterFS is OpenCluster over an explicit filesystem seam: every
// byte of the WALs, SSTables, and MANIFEST flows through fsys (nil =
// the real filesystem). Fault-injection tests mount internal/faultfs
// here to prove out the failure paths.
func OpenClusterFS(profile sim.Profile, dir string, fsys VFS) (*Cluster, error) {
	store, err := openDiskStore(dir, DefaultBlockCacheBytes, fsys)
	if err != nil {
		return nil, err
	}
	s := &clusterState{
		tables:        make(map[string]*Table),
		seed:          1,
		rowCacheBytes: DefaultRowCacheBytes,
		store:         store,
	}
	c := &Cluster{state: s, profile: profile, metrics: &sim.Metrics{}}
	man := store.snapshotManifest()
	s.nextID = man.NextID
	s.clock = man.Clock
	s.seed = man.Seed

	var opened []*Region
	for _, mt := range man.Tables {
		t := &Table{Name: mt.Name, families: make(map[string]bool)}
		for _, f := range mt.Families {
			t.families[f] = true
		}
		for i := range mt.Regions {
			r, err := c.openRegion(mt.Name, &mt.Regions[i])
			if err != nil {
				// A failed open keeps no file handle.
				for _, r := range opened {
					r.shutdown()
				}
				return nil, err
			}
			opened = append(opened, r)
			t.regions = append(t.regions, r)
		}
		s.tables[mt.Name] = t
	}
	return c, nil
}

// openRegion rebuilds one region from its manifest record: SSTables
// opened newest-first and grouped into family stores, quarantined files
// restored to their stores' quarantine unopened, WAL replayed into the
// family memtables, sequence and clock floors advanced past everything
// recovered.
func (c *Cluster) openRegion(table string, rec *manifestRegion) (*Region, error) {
	s := c.state
	s.mu.RLock()
	cacheBytes, flushThreshold := s.rowCacheBytes, s.flushThreshold
	s.mu.RUnlock()
	r := newRegion(rec.ID, table, rec.Start, rec.End, rec.Node, int64(rec.ID)<<32|int64(rec.Seq), cacheBytes)
	if flushThreshold > 0 {
		r.flushThreshold = flushThreshold
	}
	logged, err := r.attachStore(s.store)
	if err != nil {
		return nil, err
	}
	var maxTs int64
	r.mu.Lock()
	r.seq = rec.Seq
	for _, f := range rec.Files {
		seg, err := openSSTable(s.store.fs, s.store.dir, f, s.store.cache)
		if err != nil {
			r.mu.Unlock()
			r.shutdown()
			return nil, err
		}
		// The manifest lists a region's files flat; each file's meta
		// block names the family store it belongs to, and list order
		// keeps every store newest-first.
		st := r.storeLocked(seg.meta.family)
		st.runs = append(st.runs, seg)
		if seg.meta.maxTs > maxTs {
			maxTs = seg.meta.maxTs
		}
	}
	for _, q := range rec.Quarantined {
		st := r.storeLocked(q.Family)
		st.quarantined = append(st.quarantined, quarantinedRun{name: q.Name, minRow: q.MinRow, maxRow: q.MaxRow})
	}
	walTs, err := r.replayLocked(logged)
	r.mu.Unlock()
	if err != nil {
		r.shutdown()
		return nil, err
	}
	maxTs = max(maxTs, walTs)
	s.mu.Lock()
	if maxTs > s.clock {
		s.clock = maxTs
	}
	s.mu.Unlock()
	return r, nil
}

// Close releases every region's file handles and persists the logical
// clock and ID counters. Memory-only clusters close trivially.
func (c *Cluster) Close() error {
	var first error
	for _, t := range c.allTables() {
		for _, r := range t.regions {
			if err := r.shutdown(); err != nil && first == nil {
				first = err
			}
		}
	}
	s := c.state
	if s.store != nil {
		s.mu.RLock()
		clock, nextID, seed := s.clock, s.nextID, s.seed
		s.mu.RUnlock()
		if err := s.store.mutate(func(m *manifest) {
			if clock > m.Clock {
				m.Clock = clock
			}
			m.NextID = nextID
			m.Seed = seed
		}); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DiskBacked reports whether the cluster persists to disk.
func (c *Cluster) DiskBacked() bool { return c.state.store != nil }

// SetMeta durably stores an opaque key/value in the cluster manifest.
// The rankjoin layer persists its relation/index catalog here. On a
// memory-only cluster it is a no-op: there is no manifest, and nothing
// outlives the process to read the value back.
func (c *Cluster) SetMeta(key, value string) error {
	if s := c.state; s.store != nil {
		return s.store.setMeta(key, value)
	}
	return nil
}

// Meta returns the value stored under key ("" when absent, and always
// "" on a memory-only cluster, whose SetMeta stores nothing).
func (c *Cluster) Meta(key string) string {
	if s := c.state; s.store != nil {
		return s.store.meta(key)
	}
	return ""
}

// SetFlushThreshold overrides every region's memstore flush threshold
// and the value future regions start with (tests force small SSTables).
func (c *Cluster) SetFlushThreshold(n uint64) {
	s := c.state
	s.mu.Lock()
	s.flushThreshold = n
	s.mu.Unlock()
	for _, t := range c.allTables() {
		for _, r := range t.regions {
			r.setFlushThreshold(n)
		}
	}
}

// SetBlockCacheBytes resizes the shared block cache (0 disables it);
// no-op on memory-only clusters.
func (c *Cluster) SetBlockCacheBytes(n uint64) {
	if s := c.state; s.store != nil {
		s.store.cache.setCapacity(n)
	}
}

// BlockCacheStats returns the shared block cache's cumulative hit/miss
// counts (zero on memory-only clusters).
func (c *Cluster) BlockCacheStats() (hits, misses uint64) {
	if s := c.state; s.store != nil {
		return s.store.cache.stats()
	}
	return 0, 0
}

// allTables snapshots the table list.
func (c *Cluster) allTables() []*Table {
	s := c.state
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, t)
	}
	return out
}

// FlushAll flushes every region of every table to durable storage. In
// memory mode it seals memtables into sorted segments; in disk mode it
// writes SSTables, so subsequent reads pay measured block I/O. Useful in
// tests and benchmarks that want storage-resident data regardless of the
// flush threshold.
func (c *Cluster) FlushAll() error {
	for _, t := range c.allTables() {
		for _, r := range t.regions {
			if err := r.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Seal ends a bulk build of table: in memory mode every region moves
// its memtables into sorted runs, so the reads that follow walk a
// binary-searched array instead of a skip list filled in load order.
// Like any flush it is free in the cost model, and memory-mode billing
// does not depend on where a cell sits, so no simulated count moves.
//
// In disk mode Seal does nothing. There a flush writes an SSTable, and
// every read after it pays measured block reads that the memtable never
// bills; flushing stays with the threshold.
func (c *Cluster) Seal(table string) error {
	if c.DiskBacked() {
		return nil
	}
	t, err := c.table(table)
	if err != nil {
		return err
	}
	for _, r := range t.regions {
		if err := r.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// SetRowCacheBytes resizes every region's row cache (0 disables caching)
// and sets the capacity future regions start with.
func (c *Cluster) SetRowCacheBytes(n uint64) {
	s := c.state
	s.mu.Lock()
	s.rowCacheBytes = n
	s.mu.Unlock()
	for _, t := range c.allTables() {
		for _, r := range t.regions {
			r.setRowCacheBytes(n)
		}
	}
}

// RowCacheStats aggregates row-cache hit/miss counts across all regions.
func (c *Cluster) RowCacheStats() (hits, misses uint64) {
	for _, t := range c.allTables() {
		for _, r := range t.regions {
			h, m := r.RowCacheStats()
			hits += h
			misses += m
		}
	}
	return hits, misses
}

// CompactionBytes aggregates compaction write amplification across all
// regions.
func (c *Cluster) CompactionBytes() uint64 {
	var n uint64
	for _, t := range c.allTables() {
		for _, r := range t.regions {
			n += r.CompactionBytes()
		}
	}
	return n
}

// WithMetrics returns a view of the same cluster (shared tables, regions,
// and logical clock) whose operations charge m instead of this view's
// collector. Views are cheap and safe for concurrent use.
func (c *Cluster) WithMetrics(m *sim.Metrics) *Cluster {
	if m == nil {
		m = &sim.Metrics{}
	}
	return &Cluster{state: c.state, profile: c.profile, metrics: m, guard: c.guard}
}

// WithGuard returns a view whose read operations call g before touching
// storage and abort with its error when non-nil. The query layer
// installs its budget check here, making cancellation cooperative all
// the way down: a deadline fires inside a long scan or index build, not
// just between results.
func (c *Cluster) WithGuard(g func() error) *Cluster {
	return &Cluster{state: c.state, profile: c.profile, metrics: c.metrics, guard: g}
}

// CheckInterrupt runs the view's guard, if any. Exposed for job runners
// (MapReduce) that read regions locally and need the same cooperative
// cancellation points as the metered client paths.
func (c *Cluster) CheckInterrupt() error {
	if c.guard == nil {
		return nil
	}
	return c.guard()
}

// Metrics returns the cluster's metric collector.
func (c *Cluster) Metrics() *sim.Metrics { return c.metrics }

// Profile returns the cluster's hardware profile.
func (c *Cluster) Profile() sim.Profile { return c.profile }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return c.profile.Nodes }

// Now returns a fresh, strictly increasing logical timestamp. The paper's
// update protocol (Section 6) stamps base-data and index mutations with
// the same timestamp; callers obtain one here and reuse it.
func (c *Cluster) Now() int64 {
	s := c.state
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	return s.clock
}

// CreateTable declares a table with column families and optional split
// keys. With n split keys the table starts with n+1 regions, assigned
// round-robin to nodes (HBase pre-splitting).
func (c *Cluster) CreateTable(name string, families []string, splitKeys []string) (*Table, error) {
	if err := ValidateKeyComponent(name); err != nil {
		return nil, err
	}
	if len(families) == 0 {
		return nil, fmt.Errorf("kvstore: table %q needs at least one column family", name)
	}
	for _, k := range splitKeys {
		if k == "" {
			return nil, fmt.Errorf("kvstore: table %q has an empty split key", name)
		}
	}
	s := c.state
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("kvstore: table %q already exists", name)
	}
	t := &Table{Name: name, families: make(map[string]bool)}
	for _, f := range families {
		if err := ValidateKeyComponent(f); err != nil {
			return nil, fmt.Errorf("kvstore: bad family: %w", err)
		}
		t.families[f] = true
	}
	keys := append([]string(nil), splitKeys...)
	sort.Strings(keys)
	// Deduplicate: a repeated split key would create a degenerate,
	// unreachable region ["m", "m") that wastes one MapReduce mapper and
	// skews task-startup costs.
	uniq := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			uniq = append(uniq, k)
		}
	}
	keys = uniq
	bounds := append([]string{""}, keys...)
	for i, start := range bounds {
		end := ""
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		s.nextID++
		s.seed++
		r := newRegion(s.nextID, name, start, end, (s.nextID-1)%c.profile.Nodes, s.seed, s.rowCacheBytes)
		if s.flushThreshold > 0 {
			r.flushThreshold = s.flushThreshold
		}
		if _, err := r.attachStore(s.store); err != nil {
			return nil, err
		}
		t.regions = append(t.regions, r)
	}
	if s.store != nil {
		mt := manifestTable{Name: name, Families: t.Families()}
		for _, r := range t.regions {
			mt.Regions = append(mt.Regions, r.manifestTemplateLocked())
		}
		nextID, seed := s.nextID, s.seed
		if err := s.store.mutate(func(m *manifest) {
			m.NextID = nextID
			m.Seed = seed
			m.Tables = append(m.Tables, mt)
		}); err != nil {
			return nil, err
		}
	}
	s.tables[name] = t
	return t, nil
}

// DropTable removes a table. On a disk-backed cluster the manifest
// forgets the table first; its files are unlinked only after that save,
// so a crash mid-drop leaves orphans, never dangling references.
func (c *Cluster) DropTable(name string) error {
	s := c.state
	s.mu.Lock()
	t, ok := s.tables[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w %q", ErrNoTable, name)
	}
	delete(s.tables, name)
	s.mu.Unlock()
	if s.store == nil {
		return nil
	}
	var dropped []manifestRegion
	if err := s.store.mutate(func(m *manifest) {
		for i, mt := range m.Tables {
			if mt.Name == name {
				dropped = mt.Regions
				m.Tables = append(m.Tables[:i], m.Tables[i+1:]...)
				break
			}
		}
	}); err != nil {
		return err
	}
	for _, r := range t.regions {
		r.shutdown()
	}
	for i := range dropped {
		if err := s.store.dropRegionFiles(&dropped[i]); err != nil {
			return err
		}
	}
	return nil
}

// TableNames lists tables in sorted order.
func (c *Cluster) TableNames() []string {
	s := c.state
	s.mu.RLock()
	defer s.mu.RUnlock()
	var names []string
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// table fetches a table or errors.
func (c *Cluster) table(name string) (*Table, error) {
	s := c.state
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoTable, name)
	}
	return t, nil
}

// HasFamily reports whether the table declares the family.
func (t *Table) HasFamily(f string) bool { return t.families[f] }

// Families returns the table's column families, sorted.
func (t *Table) Families() []string {
	var out []string
	for f := range t.families {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// regionFor locates the region containing row.
func (t *Table) regionFor(row string) *Region {
	// Regions are sorted by StartKey; find the last region whose start
	// is <= row.
	idx := sort.Search(len(t.regions), func(i int) bool {
		return t.regions[i].StartKey() > row
	}) - 1
	if idx < 0 {
		idx = 0
	}
	return t.regions[idx]
}

// applyRow routes one row's atomic mutation batch to its region and
// advances the table's mutation sequence when it lands.
func (t *Table) applyRow(cells []Cell) error {
	if err := t.regionFor(cells[0].Row).mutateRow(cells); err != nil {
		return err
	}
	t.mutSeq.Add(1)
	return nil
}

// Regions returns a copy of the table's regions in key order.
func (t *Table) Regions() []*Region {
	return append([]*Region(nil), t.regions...)
}

// DiskSize totals the table's stored bytes.
func (t *Table) DiskSize() uint64 {
	var s uint64
	for _, r := range t.regions {
		s += r.DiskSize()
	}
	return s
}

// TableRegions exposes a table's regions for locality-aware consumers
// (the MapReduce runner schedules one mapper per region, on its node).
func (c *Cluster) TableRegions(name string) ([]*Region, error) {
	t, err := c.table(name)
	if err != nil {
		return nil, err
	}
	return t.Regions(), nil
}

// TableStats summarizes a table for the query planner: region count,
// stored cell versions, live cells, and stored bytes. Like
// TableDiskSize it is free introspection — cluster metadata a client
// caches — and charges no metrics. It is also cheap: each region keeps
// its live count current as it applies mutations (Region.LiveCellCount
// walks a region only on its first ask or after a scrub quarantine), so
// a call costs O(regions + runs), not O(cells), even right after a
// write.
type TableStats struct {
	Regions int
	// Cells counts stored cell VERSIONS (every update adds one until a
	// major compaction); LiveCells counts distinct live columns — the
	// version-churn-free figure cardinality estimates should use.
	Cells     uint64
	LiveCells uint64
	Bytes     uint64
	// MutSeq is the table's mutation sequence (see Table.MutationSeq):
	// the freshness key caches of table-derived state validate against.
	MutSeq uint64
}

// TableStats returns planner statistics for a table.
func (c *Cluster) TableStats(name string) (TableStats, error) {
	t, err := c.table(name)
	if err != nil {
		return TableStats{}, err
	}
	st := TableStats{Regions: len(t.regions), MutSeq: t.MutationSeq()}
	for _, r := range t.regions {
		st.Cells += uint64(r.CellCount())
		st.LiveCells += r.LiveCellCount()
		st.Bytes += r.DiskSize()
	}
	return st, nil
}

// TableDiskSize returns the table's total stored bytes.
func (c *Cluster) TableDiskSize(name string) (uint64, error) {
	t, err := c.table(name)
	if err != nil {
		return 0, err
	}
	return t.DiskSize(), nil
}

// rpc is the counted work of one client round trip that performed
// stats server-side: the disk bytes it read, the payload it returned and
// the cells it examined. sim.Profile.Price prices it, and a keyed read
// adds its seeks (see keyed).
func (stats OpStats) rpc() sim.Op {
	return sim.Op{RPCs: 1, DiskBytes: stats.BytesRead, WireBytes: stats.BytesReturned, Cells: stats.CellsExamined}
}

// keyed is the counted work of one keyed-read RPC for nrows rows. A
// row served from the row cache costs no seek. On a disk-backed cluster
// the seek count is MEASURED — one per SSTable block actually fetched
// (block-cache hits and memtable-only reads fetch none, and so does a
// row-cache hit) — rather than assumed one per uncached row.
func (c *Cluster) keyed(nrows int, stats OpStats) sim.Op {
	op := stats.rpc()
	if c.state.store != nil {
		op.Seeks = stats.BlockReads
	} else {
		op.Seeks = uint64(nrows) - stats.CacheHits
	}
	return op
}

// Put writes one cell (timestamp 0 means "stamp with Now()").
func (c *Cluster) Put(table string, cell Cell) error {
	cell.Tombstone = false
	return c.writeTable(table, []Cell{cell})
}

// Get fetches one row (nil if absent). families==nil fetches all.
func (c *Cluster) Get(table, row string, families ...string) (*Row, error) {
	if err := c.CheckInterrupt(); err != nil {
		return nil, err
	}
	t, err := c.table(table)
	if err != nil {
		return nil, err
	}
	got, stats, err := t.regionFor(row).get(row, families)
	if err != nil {
		return nil, err
	}
	// A keyed read costs one seek rather than a scan of the region —
	// and a row-cache hit not even that: no disk bytes (get reports
	// BytesRead accordingly), no seek. The RPC, transfer, and per-KV
	// CPU costs always apply, and the read units are always billed
	// (DynamoDB charges per request, not per disk access).
	op := c.keyed(1, stats)
	c.metrics.Charge(&c.profile, &op)
	return got, nil
}

// BatchPut loads many cells efficiently (one logical bulk RPC), used
// by data generators and index builders. It bypasses per-cell RPC
// latency but still meters bytes and write counts. Each zero timestamp
// is stamped with its own Now().
func (c *Cluster) BatchPut(table string, cells []Cell) error {
	return c.writeTable(table, cells)
}

// TableMutation is one table's share of a multi-table group write.
type TableMutation struct {
	Table string
	Cells []Cell
}

// GroupWriteError reports a group write that failed part-way: the listed
// Applied tables received all their mutations, Table's did not (its rows
// before the failing one may have landed — row batches stay atomic, the
// cross-table group does not). Callers that must keep several tables in
// lockstep (index maintenance) surface this so the divergence is
// re-appliable instead of silent.
type GroupWriteError struct {
	// Table is the table whose mutations failed.
	Table string
	// Applied lists tables whose mutations fully landed before the
	// failure, in apply order.
	Applied []string
	// Err is the underlying mutation error.
	Err error
}

func (e *GroupWriteError) Error() string {
	return fmt.Sprintf("kvstore: group write to %q failed (applied: %v): %v", e.Table, e.Applied, e.Err)
}

func (e *GroupWriteError) Unwrap() error { return e.Err }

// GroupWrite applies cell mutations spanning several tables as ONE
// batched client write: each row's cells apply atomically (one region
// lock cycle, one WAL append batch per row), and the whole group is
// charged a single mutation RPC — latency once, bytes summed — instead
// of one round trip per cell. This is the transport Section 6's
// write-through index maintenance rides: a tuple's old → new transition
// augments into base + IJLMR + ISL + BFHM + DRJN mutations and ships as
// one batch.
//
// Zero timestamps are stamped with one shared fresh Now() for the whole
// group (the paper's same-timestamp treatment); pre-stamped cells keep
// their timestamps, which makes re-applying an identical group after a
// partial failure idempotent — same cell coordinates, same timestamps,
// same values.
//
// On a mid-group failure the returned *GroupWriteError names the failed
// table and the tables already applied; nothing is charged.
func (c *Cluster) GroupWrite(muts []TableMutation) error {
	var ts int64
	stamp := func() int64 {
		if ts == 0 {
			ts = c.Now()
		}
		return ts
	}
	if table, applied, err := c.write(muts, stamp); err != nil {
		return &GroupWriteError{Table: table, Applied: applied, Err: err}
	}
	return nil
}

// writeTable is write for one table, stamping each zero timestamp with
// its own Now().
func (c *Cluster) writeTable(table string, cells []Cell) error {
	_, _, err := c.write([]TableMutation{{Table: table, Cells: cells}}, c.Now)
	return err
}

// write is the one metered write door behind Put, BatchPut and
// GroupWrite. Per table, in order, it looks the table up, checks each
// cell's family and stamps a zero timestamp with stamp(), then applies
// the cells as per-row atomic mutations in row-key order; the whole
// call is billed once, as one mutation RPC, after everything landed.
// Tables without cells are skipped. A failure returns the failed table
// and the tables fully applied before it, and bills nothing.
func (c *Cluster) write(muts []TableMutation, stamp func() int64) (failed string, applied []string, err error) {
	var bytes uint64
	cellCount := 0
	for mi := range muts {
		m := &muts[mi]
		if len(m.Cells) == 0 {
			continue
		}
		t, err := c.table(m.Table)
		if err != nil {
			return m.Table, applied, err
		}
		byRow := map[string][]Cell{}
		var order []string
		for i := range m.Cells {
			cell := &m.Cells[i]
			if !t.HasFamily(cell.Family) {
				return m.Table, applied, fmt.Errorf("kvstore: table %q has no family %q", m.Table, cell.Family)
			}
			if cell.Timestamp == 0 {
				cell.Timestamp = stamp()
			}
			bytes += cell.StoredSize()
			if _, ok := byRow[cell.Row]; !ok {
				order = append(order, cell.Row)
			}
			byRow[cell.Row] = append(byRow[cell.Row], *cell)
		}
		sort.Strings(order)
		for _, row := range order {
			if err := t.applyRow(byRow[row]); err != nil {
				return m.Table, applied, err
			}
		}
		cellCount += len(m.Cells)
		applied = append(applied, m.Table)
	}
	if cellCount == 0 {
		//lint:allow chargecheck an empty write applied no mutations, so there is nothing to bill
		return "", nil, nil
	}
	c.metrics.Charge(&c.profile, &sim.Op{RPCs: 1, WireBytes: bytes, Writes: uint64(cellCount)})
	return "", nil, nil
}
