// Package kvstore implements the NoSQL substrate the paper's algorithms
// run on: an embedded, deterministic, HBase-like distributed sorted
// key-value store.
//
// The data model follows Section 1 of the paper: a key-value pair is the
// quadruplet {row key, column name, column value, timestamp}; a table is
// an ordered collection of key-value pairs; a row is the set of pairs
// sharing a key; column families partition a table vertically. Tables are
// horizontally sharded into key-range regions, each hosted by one node of
// a simulated cluster. The store supports efficient point gets, ascending
// keyed scans (with client-side batching, like HBase scanner caching),
// server-side filters, and row-level atomic mutations — and nothing more,
// which is exactly the contract the paper's algorithms are designed for.
//
// # Storage engine
//
// Each region is a miniature LSM tree with one store per column family —
// HBase's Store: a skip-list memtable plus immutable sorted segments (the
// in-memory analogue of HFiles) holding that family's cells only. A
// write goes to its family's memtable; in disk mode it is first
// appended to the region's WAL file, while a memory-mode region keeps no
// log at all — it has no crash to survive. When the region's TOTAL
// memstore size exceeds the flush threshold, every non-empty family
// memtable becomes a segment of its store in one flush. Internal cell
// keys embed bit-inverted timestamps and sequence numbers so the newest
// version of a column sorts first, which lets every reader take the
// first version it encounters.
//
// Bulk writes land as sorted runs. Cluster.BulkWrite is the store's
// unmetered bulk door — a MapReduce job's output (every index build,
// the query scratch tables) and a bulk load (a relation's BulkLoad, the
// TPC-H loader) come through it, and their callers bill the work, as
// HBase bulk loads write sorted files and bypass the memstore. In
// memory mode the cells never touch a memtable: each cell is checked as
// any write checks it, each region numbers its cells in input order,
// sorts them once and copies them, with what its family memtables
// already held, into one new run per dirty family store, sized to the
// bytes it holds and in key order. The install is a flush's — row
// cache, live count, compaction — plus the table's mutation sequence. So
// the reads after a build binary-search a run instead of chasing a skip
// list filled in load order (an inverse score list is written in score
// order, which is random key order), and the build never pays for the
// skip list's inserts or the copy out of it. Memory-mode billing does
// not depend on where a cell sits, so no simulated count moves.
//
// Disk mode keeps the write-ahead path: each row goes through the WAL
// and its memtable like any write, and flushing stays with the
// threshold. There a flush writes an SSTable, and every read after it
// pays measured block reads that a memtable read never bills; landing
// a build as a file would move every disk-mode read count, and the
// SSTables, MANIFEST and WAL a bulk write leaves are exactly those of
// the same cells written row by row.
//
// Cells at rest are bytes, not objects (arena.go). A memtable, a
// segment and a decoded SSTable block all keep their cells the same way:
// internal keys appended to string slabs, values appended to byte slabs,
// and one pointer-free 32-byte reference per cell version (slab, offset
// and length of key and value, the lengths of row and family inside the
// key, the tombstone bit). The memtable threads its references into a
// skip list kept in pages of 32-bit words — a node is its reference
// followed by its tower, a link is the successor's position — so growth
// copies nothing; a segment and a decoded block are the same type, a
// sortedRun — the references in key order, binary-searched — filled by
// the same builder from a memtable flush, a bulk write, a merge, or a
// block decode. So the heap holds a
// few slabs and arrays per store rather than five objects per cell, and
// the garbage collector's mark work no longer grows with the data.
//
// Five rules follow from that layout:
//
//   - Writes copy. Put, BatchPut and GroupWrite — three doors onto one
//     metered write body, which validates, stamps, groups by row, applies
//     and bills once — and the unmetered BulkWrite copy key and value
//     into the arena (and, on disk, the WAL file); the caller may reuse
//     its buffers at once. A zero-length value is stored as no
//     bytes and reads back as nil everywhere.
//   - Iterators yield views. cellIter.cell() returns a Cell whose
//     strings are substrings of the stored key and whose Value is a
//     capacity-clipped slice of the value slab, valid until the next
//     next() on that iterator. The read loops copy the Cell by value
//     into the rows they return; those copies still point into the
//     arena, which is safe — slab bytes are written once and never
//     moved — and means returned Values are READ-ONLY: append
//     reallocates, writing through one would corrupt the store.
//   - A scanner's rows are the scanner's. A batch is one block it owns
//     and refills (rowBlock: the rows, and one cell slab their Cells
//     sub-slice; its first batch sizes both, to Caching rows up to
//     maxPresizedRows), so a *Row from Scanner.Next, and its Cells
//     slice, is valid until the next Next or Fill. ScanAll copies each batch out
//     into rows and a cell array of its own, so its rows are detached,
//     as are Get's and MultiGet's; a MapReduce task's row is valid for
//     its Map call. In every case the cells' strings and Values are the
//     same views, unchanged: valid for as long as they are held.
//   - Whoever keeps a cell past the operation detaches it. A copy of a
//     view keeps its whole slab alive. Inside the store, the row cache
//     copies each row into a buffer of its own before caching it (a
//     cached row must not pin a retired memtable or a compacted-away
//     segment), and an SSTable writer clones the few keys its open
//     segment keeps.
//   - A block read's bytes are scratch. The frame read from an SSTable
//     and the payload inflated out of it live in a pooled buffer that
//     the next block read reuses, so every block decoder copies what it
//     keeps: a data block into its own slabs, index and meta entries
//     into strings, a bloom filter into its own words. The pooled
//     DEFLATE state — the writer framing a block, the reader inflating
//     one — is held by one caller at a time, for one frame.
//
// Reads merge the stores of the requested families only (Scan.Families,
// Get's family list; none = all): a family-restricted read never walks —
// or, in disk mode, faults in — another family's cells. This is the
// access model the paper's ISL index relies on (Section 4.2: both
// relations' score lists in one table, one family per relation). Rows
// keep their (family, qualifier) cell order because the stores merge by
// the same internal key.
//
// The read path is tiered, cheapest first:
//
//   - Row cache. A byte-bounded LRU per region (an lru.Cache, the
//     container every cache in the repo shares) caches fully
//     materialized rows — including negative entries for absent rows —
//     and is invalidated per row on every mutation. A row larger than
//     the whole cache is not cached and evicts nothing. A hit performs
//     zero segment work. Only full-row gets are cached and served;
//     family-restricted gets always read the LSM.
//   - Segment pruning. Each segment carries its row-key range and a
//     bloom filter over its row keys (~1% false positives); a point get
//     consults both and binary-searches only the segments that may
//     contain the row.
//   - Merge. Scans (and multi-segment gets) merge the requested
//     families' memtables and surviving segments through a heap-based
//     k-way merge: O(1) access to the current winner, O(log k) advance.
//
// Compaction is size-tiered and runs per family store: when a flush
// leaves a store more than compactThreshold segments, its runs of
// similar size (~4x-wide tiers) are merged together, rather than
// rewriting the whole store on every trigger. A merge covering every
// run of the family drops tombstones and dead versions like an HBase
// major compaction (a column's versions live nowhere else); a subset
// merge retains every version — it only reduces run count — because a
// tombstone inside the merge must still hide its column's versions in
// runs outside it. Region.Compact still forces a full major compaction
// of every family store.
//
// # Durable storage
//
// The store runs in one of two modes, fixed at construction and never
// mixed within a region. NewCluster keeps flushed segments in memory
// (the original simulator behavior) and keeps no write-ahead log;
// OpenCluster roots the cluster in a directory and makes every layer
// real: per-region write-ahead logs (rNNNNNN.wal, all families
// interleaved), binary SSTables (NNNNNN.sst, one family's run each), and
// a MANIFEST naming them. A log lives only in its file — Region.WALSize
// is the file's length — and is read back only at cold start. Both
// modes share the per-family layout. The test suites run in disk mode
// under KVSTORE_DISK=1, where NewCluster roots each cluster in a fresh
// temp directory and Close removes it.
//
// A flush of a region with n dirty families writes n SSTables and
// registers all of them in ONE manifest save before the WAL truncates;
// the manifest lists a region's files flat, newest first per family,
// and each file's meta block names its family — that is how cold start
// regroups them into stores.
//
// What is on disk has one compatibility rule: each format carries a
// version, open reads exactly the version this build writes, and
// anything else fails the open with a FormatVersionError naming the
// file and the version it found — never corruption, never an upgrade in
// place. The MANIFEST's version is 1; a missing one reads as 0, the
// shape every earlier build wrote, and is refused before the orphan
// sweep, so a refused directory is left byte for byte as it was. WALs
// are read only through the MANIFEST that lists them, so its version
// covers the WAL record format too. An SSTable carries its own version
// (2) in the footer; a version-1 file (one mixed-family run per flush)
// is never opened and mis-grouped.
//
// An SSTable is a sequence of framed blocks — data blocks, then index
// blocks, then a summary, bloom, and meta block, then a fixed 60-byte
// footer holding the tail-block offsets, the format version, and the
// magic. Every frame is [4B length][1B codec: raw|flate][payload]
// [4B CRC32], so corruption is detected per block, not per file. Data
// blocks prefix-compress cell keys against restart points (one full
// key every 16 cells) and append their restart-offset array
// Golomb-coded; ~4 KiB of payload cuts a block. One index entry run
// covers up to 64 data blocks, and the summary samples the index the
// same way, so a point get touches at most two blocks (one index, one
// data) beyond the in-memory summary/bloom/meta. Block fetches go
// through a store-wide byte-bounded LRU block cache, the same lru.Cache
// as the row cache under its own lock (Cluster.SetBlockCacheBytes,
// default 32 MiB). In disk mode the simulator charges seeks from the
// *measured* block reads — cache hits are counted but cost no seek —
// replacing the memory mode's per-operation seek formula, so the
// cache's eviction order decides what a disk-mode query costs.
//
// # Recovery protocol
//
// All durable-state transitions funnel through two rules: data files
// are immutable once registered, and the MANIFEST is replaced
// atomically (write temp, fsync, rename, fsync directory). Ordering
// does the rest:
//
//   - Flush/compaction writes and fsyncs new SSTables, registers them
//     in the MANIFEST — one save per flush however many family files
//     it wrote, one per family-store compaction — and only then
//     unlinks obsolete files (replaced runs) and truncates the drained
//     WAL. A crash before registration leaves the old manifest pointing
//     at the old, still-present files and the WAL intact; a crash after
//     registration but before the unlinks leaves orphans. A flush is
//     never visible for some of its families only.
//   - Open reads the MANIFEST, deletes any file it does not reference
//     (the orphans of a mid-compaction crash), advances the file
//     allocator past everything on disk, opens each region's segments
//     (footer, then summary/bloom/meta) into the family stores their
//     meta blocks name, restores its quarantined files (below) to their
//     stores without opening them, and reads the region's WAL file once:
//     the valid prefix is checked, replayed record by record into the
//     memtable of the family in its key, and dropped. The same pass
//     yields the largest logged timestamp; the cluster clock resumes
//     past it and every SSTable's, so recovered writes never collide
//     with new ones. This cold start is the only recovery there is.
//
// A table's regions are fixed when it is created — CreateTable's split
// keys pre-split it, HBase style — and cold start rebuilds exactly the
// regions the MANIFEST lists; nothing splits or moves a region online.
// The MANIFEST holds each region's record inside its table, in key
// order, so no record can outlive the table that lists it.
//
// # Failure taxonomy
//
// Every file operation flows through a pluggable VFS (OpenClusterFS;
// internal/faultfs wraps any VFS with deterministic fault schedules
// for the tests), and failures surface typed, never stringly:
//
//   - IOError names the file and operation of an I/O failure.
//     Transient read errors are retried with bounded backoff
//     (readRetryAttempts) before one surfaces.
//   - CorruptionError (matching ErrCorruption) names the file and byte
//     offset of a failed checksum. A WAL whose FINAL record is torn —
//     incomplete, or complete with a failing CRC — is trimmed at open
//     and recovery proceeds, because a torn tail is a crash mid-append
//     and that record was never acknowledged. A CRC failure with valid
//     records after it can only be at-rest damage and fails the open.
//   - FormatVersionError names a file written in a format version this
//     build does not read, and that version. The bytes are intact, so
//     it does not match ErrCorruption and Scrub/repair do not apply.
//
// Cluster.Scrub walks every on-disk frame verifying checksums,
// bypassing the block cache so the verification reads the media, and
// quarantines tables that fail: a quarantined table leaves the read
// path of its family store (reads of that family that could touch its
// key range return a typed CorruptionError instead of silently missing
// rows; reads restricted to other families are unaffected; all-family
// reads — TableCells for Merkle digests — fail, so replica
// repair escalates to a full resync) and its file is never deleted while
// the table lives. The quarantine is durable: the region's MANIFEST
// record lists each quarantined file with its family and row span from
// the scrub on, every later flush and compaction carries it forward,
// and the orphan sweep keeps its file. Cluster.Quarantined lists them;
// the scrub's reads are measured I/O, charged like any client-visible
// work.
//
// Long operations degrade cooperatively: a view wrapped by WithGuard
// checks its interrupt (deadline, context, budget — see core's Budget)
// at every RPC boundary and inside scans and MapReduce tasks.
//
// # Cost accounting
//
// Every operation returns OpStats so the metered client (or the
// MapReduce runner) charges the simulator faithfully. A charge site
// states the operation's counts as a sim.Op — one RPC, its seeks, the
// disk bytes read, the bytes returned and the cells examined — and
// prices it with sim.Profile.Price, the simulator's one price list; this
// package keeps no price of its own. A keyed read that
// misses the row cache costs one RPC round trip, one disk seek, the
// returned bytes, and one read unit per cell examined. A row-cache hit
// skips the seek and the disk bytes — the row is served from region
// server memory — but still pays the RPC, transfer, and CPU costs, and
// bills exactly the read units of the cold read that populated it,
// mirroring DynamoDB's per-request pricing (the paper's footnote 1).
// Scans bypass the row cache entirely and charge for every version
// they sweep. In disk mode the seek charge is measured rather than
// modeled: each operation bills one seek per actual block read
// (OpStats.BlockReads), so a warm block cache genuinely cheapens
// repeat reads.
//
// # The transport seam
//
// This package is strictly node-local: one Cluster is one region
// server's storage, and nothing in it knows about peers, replication,
// or the network. The multi-node layers sit above — internal/transport
// defines the RegionService RPC surface (loopback and TCP), and
// internal/topology routes, replicates, and repairs across Clusters it
// can only reach through that seam. These methods exist for those
// layers and keep replication deterministic:
//
//   - ObserveClock folds a peer's timestamp into the local logical
//     clock, so a router-stamped write applied everywhere lands with
//     the SAME timestamp on every replica and later local stamps sort
//     above it.
//   - TableCells flattens a table's live cells in row and storage
//     order — what a Merkle row digest covers and a repair ships.
//   - MerkleTree, RepairRange and Repair are the node half of
//     anti-entropy (antientropy.go): a table's tree over a fixed 64
//     hash-token leaves, the source's payload for the divergent leaves,
//     and the target's landing of it at its ORIGINAL timestamps (scoped:
//     each shipped row replaced wholesale and source-absent rows
//     deleted; or whole-table drop/recreate/re-ingest for corruption). The digest pass bills
//     CPU per cell on top of TableCells' reads; a repair bills the
//     stale-row reads and one group write like any client mutation.
//
// Because every replica applies the identical resolved operation
// sequence through the same deterministic clock, replicas of a table
// are byte-identical — cell for cell, timestamp for timestamp — which
// is what lets the layers above diff replicas with Merkle trees and
// serve any query from any replica with the exact single-node answer.
package kvstore
