package kvstore

import (
	"encoding/binary"
	"fmt"
	"iter"

	"repro/internal/merkle"
	"repro/internal/sim"
)

// Replica anti-entropy, the node side. A replicated topology keeps N
// clusters convergent by replaying identical pre-stamped mutations on
// each; when a replica misses writes (downtime) or damages them at rest
// (bit rot), the router diffs per-table Merkle trees (MerkleTree) and
// re-ships the divergent rows: the source reads them (RepairRange), the
// target lands them (Repair). The protocol lives inside kvstore because
// it mutates tables directly — repair moves already-maintained
// replicated state, so routing it through the query layer's Maintainer
// would double-apply index maintenance.

// merkleLeaves is the number of hash-token ranges a table's tree splits
// its rows into: a power of two, so the tree above the leaves is
// complete. More leaves would localize repairs to fewer rows at the
// cost of larger trees on the wire.
const merkleLeaves = 64

// TableCells snapshots every live cell of a table in row order (regions
// in key order, each one's cells sorted): the newest version of each
// column, tombstones and shadowed versions excluded — exactly
// the state a Merkle digest or repair payload should cover, because two
// replicas that answer every read identically may still differ in dead
// versions (local flush/compaction timing). The snapshot is charged as
// one scan-shaped RPC per region: anti-entropy reads are real reads.
func (c *Cluster) TableCells(name string) ([]Cell, error) {
	if err := c.CheckInterrupt(); err != nil {
		return nil, err
	}
	t, err := c.table(name)
	if err != nil {
		return nil, err
	}
	var out []Cell
	for _, r := range t.regions {
		cells, err := r.allCells()
		if err != nil {
			return nil, err
		}
		var stats OpStats
		for i := range cells {
			stats.CellsExamined++
			sz := cells[i].StoredSize()
			stats.BytesRead += sz
			stats.BytesReturned += sz
		}
		op := stats.rpc()
		c.metrics.Charge(&c.profile, &op)
		out = append(out, cells...)
	}
	return out, nil
}

// ObserveClock advances the logical clock to at least ts. Replicas call
// it when applying router-stamped mutations so a later locally-stamped
// write (repair tombstones, index builds) cannot sort below replicated
// cells it is meant to shadow.
func (c *Cluster) ObserveClock(ts int64) {
	s := c.state
	s.mu.Lock()
	if ts > s.clock {
		s.clock = ts
	}
	s.mu.Unlock()
}

// Clock reads the logical clock without advancing it. The router polls
// it so router-assigned group timestamps always dominate node-local
// stamps (index builds, repair tombstones).
func (c *Cluster) Clock() int64 {
	s := c.state
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock
}

// rowRuns yields each row's run of cells. TableCells returns a table's
// cells in row order, so a row's cells are adjacent.
func rowRuns(cells []Cell) iter.Seq2[string, []Cell] {
	return func(yield func(string, []Cell) bool) {
		for i := 0; i < len(cells); {
			j := i + 1
			for j < len(cells) && cells[j].Row == cells[i].Row {
				j++
			}
			if !yield(cells[i].Row, cells[i:j]) {
				return
			}
			i = j
		}
	}
}

// inLeaves returns the test of whether a row falls in one of leaves, the
// Merkle leaf indexes a repair covers. Every row passes when leaves is
// empty (a whole-table fetch); an index outside the tree matches no row.
func inLeaves(leaves []int) func(row string) bool {
	if len(leaves) == 0 {
		return func(string) bool { return true }
	}
	var set [merkleLeaves]bool
	for _, i := range leaves {
		if i >= 0 && i < merkleLeaves {
			set[i] = true
		}
	}
	return func(row string) bool { return set[merkle.LeafIndex(merkleLeaves, row)] }
}

// rowDigest digests one row for its Merkle leaf: the family, qualifier,
// timestamp and value of every live cell, in storage order.
func rowDigest(row string, cells []Cell) merkle.Digest {
	parts := make([][]byte, 0, 4*len(cells))
	for i := range cells {
		ts := binary.BigEndian.AppendUint64(nil, uint64(cells[i].Timestamp))
		parts = append(parts, []byte(cells[i].Family), []byte(cells[i].Qualifier), ts, cells[i].Value)
	}
	return merkle.HashRow(row, parts...)
}

// appendMissing appends to dst the cells of local, one row's live cells,
// whose column the shipped row lacks. Both runs are in storage order:
// by family, then qualifier.
func appendMissing(dst, local, shipped []Cell) []Cell {
	j := 0
	for _, c := range local {
		for j < len(shipped) && (shipped[j].Family < c.Family || shipped[j].Family == c.Family && shipped[j].Qualifier < c.Qualifier) {
			j++
		}
		if j == len(shipped) || shipped[j].Family != c.Family || shipped[j].Qualifier != c.Qualifier {
			dst = append(dst, c)
		}
	}
	return dst
}

// MerkleTree summarizes a table's live contents for anti-entropy. A
// table this cluster never saw summarizes as an all-empty tree, so every
// populated leaf of a peer's tree diverges and the repair recreates the
// table. The digest pass bills TableCells' reads plus CPU time per
// digested cell.
func (c *Cluster) MerkleTree(table string) (*merkle.Tree, error) {
	b := merkle.NewBuilder(merkleLeaves)
	if _, err := c.table(table); err != nil {
		return b.Build(), nil
	}
	cells, err := c.TableCells(table)
	if err != nil {
		return nil, err
	}
	for row, run := range rowRuns(cells) {
		b.Add(row, rowDigest(row, run))
	}
	c.metrics.Advance(c.profile.Price(&sim.Op{Cells: uint64(len(cells))}))
	return b.Build(), nil
}

// RepairRange reads a repair payload on the source replica: the table's
// families and the live cells of the rows in the given Merkle leaves, or
// of every row when leaves is empty (a full resync's source). A table
// this cluster does not hold fails with ErrNoTable.
func (c *Cluster) RepairRange(table string, leaves []int) (families []string, cells []Cell, err error) {
	t, err := c.table(table)
	if err != nil {
		return nil, nil, err
	}
	all, err := c.TableCells(table)
	if err != nil {
		return nil, nil, err
	}
	in := inLeaves(leaves)
	for row, run := range rowRuns(all) {
		if in(row) {
			cells = append(cells, run...)
		}
	}
	return t.Families(), cells, nil
}

// Repair lands a source replica's payload (RepairRange's families and
// cells) on this replica. The cells keep their ORIGINAL timestamps, so
// the repaired rows become byte-identical to the source's.
//
// A full repair replaces the table wholesale: drop it (quarantined or
// corrupt SSTables go with it), recreate it with the source's families
// and re-ingest. That is the corruption path: a replica whose own Merkle
// build fails its checksums has no trustworthy state to diff against.
//
// A scoped repair replaces each shipped row wholesale and deletes this
// replica's own rows in leaves (every row when leaves is empty) that the
// payload lacks: rows the source deleted or never had. Retired cells —
// every live cell of such a row, and the live cells of a shipped row
// whose columns the payload row lacks (entries a missed delete or update
// removed from a wide index row) — are tombstoned under a fresh local
// timestamp, which the ObserveClock below makes sort above every
// replicated cell; tombstones are invisible to the digest, so the trees
// still converge. A table the replica never saw is created. Returns rows
// deleted and cells applied.
func (c *Cluster) Repair(table string, families []string, cells []Cell, leaves []int, full bool) (deleted, applied int, err error) {
	t, err := c.table(table)
	var stale []string
	var retired []Cell // live cells of shipped rows that the payload rows lack
	switch {
	case err == nil && full:
		if err := c.DropTable(table); err != nil {
			return 0, 0, err
		}
		t = nil
	case err == nil:
		// This replica's rows in leaves that no payload cell names are
		// stale: the source deleted them or never had them.
		local, err := c.TableCells(table)
		if err != nil {
			return 0, 0, err
		}
		src := make(map[string][]Cell)
		for row, run := range rowRuns(cells) {
			src[row] = run
		}
		in := inLeaves(leaves)
		for row, run := range rowRuns(local) {
			if shipped, ok := src[row]; ok {
				retired = appendMissing(retired, run, shipped)
			} else if in(row) {
				stale = append(stale, row)
			}
		}
	}
	if t == nil {
		if t, err = c.CreateTable(table, families, nil); err != nil {
			return 0, 0, err
		}
	}
	var bytes uint64
	var maxTS int64
	for i := range cells {
		if !t.HasFamily(cells[i].Family) {
			return 0, 0, fmt.Errorf("kvstore: repair cell for %q names unknown family %q", table, cells[i].Family)
		}
		bytes += cells[i].StoredSize()
		maxTS = max(maxTS, cells[i].Timestamp)
	}
	c.ObserveClock(maxTS)
	tombstones := 0
	// retire tombstones one row's live cells under a fresh timestamp.
	retire := func(live []Cell) error {
		ts := c.Now()
		dead := make([]Cell, len(live))
		for i := range live {
			dead[i] = Cell{Row: live[i].Row, Family: live[i].Family, Qualifier: live[i].Qualifier, Timestamp: ts, Tombstone: true}
			bytes += dead[i].StoredSize()
		}
		tombstones += len(dead)
		return t.applyRow(dead)
	}
	for _, row := range stale {
		got, stats, gerr := t.regionFor(row).get(row, nil)
		op := stats.rpc()
		c.metrics.Charge(&c.profile, &op)
		if gerr != nil {
			return deleted, applied, gerr
		}
		if got == nil {
			continue
		}
		if err := retire(got.Cells); err != nil {
			return deleted, applied, err
		}
		deleted++
	}
	for _, run := range rowRuns(retired) {
		if err := retire(run); err != nil {
			return deleted, applied, err
		}
	}
	// Each row's run is one atomic mutation.
	for _, run := range rowRuns(cells) {
		if err := t.applyRow(run); err != nil {
			return deleted, applied, err
		}
		applied += len(run)
	}
	// One group-write RPC for the whole payload — charged even when it
	// shipped nothing, since the repair call itself still crossed the wire.
	c.metrics.Charge(&c.profile, &sim.Op{RPCs: 1, WireBytes: bytes, Writes: uint64(tombstones + applied)})
	return deleted, applied, nil
}
