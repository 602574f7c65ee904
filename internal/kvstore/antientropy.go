package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Replica anti-entropy primitives. A replicated topology keeps N
// clusters convergent by replaying identical pre-stamped mutations on
// each; when a replica misses writes (downtime) or damages them at rest
// (bit rot), the router diffs per-table Merkle trees and re-ships the
// divergent rows through the two functions below. The primitives live
// inside kvstore because they mutate tables directly — repair moves
// already-maintained replicated state, so routing it through the query
// layer's Maintainer would double-apply index maintenance.

// TableCells snapshots every live cell of a table: the newest version
// of each column, tombstones and shadowed versions excluded — exactly
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
		c.chargeRPC(stats)
		out = append(out, cells...)
	}
	return out, nil
}

// TableFamilies returns a table's declared column families.
func (c *Cluster) TableFamilies(name string) ([]string, error) {
	t, err := c.table(name)
	if err != nil {
		return nil, err
	}
	return t.Families(), nil
}

// HasTable reports whether the table exists.
func (c *Cluster) HasTable(name string) bool {
	_, err := c.table(name)
	return err == nil
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

// maxCellTS returns the largest timestamp in a repair payload.
func maxCellTS(cells []Cell) int64 {
	var ts int64
	for i := range cells {
		if cells[i].Timestamp > ts {
			ts = cells[i].Timestamp
		}
	}
	return ts
}

// RepairApply applies a replica-repair payload to a table: the shipped
// cells land with their ORIGINAL timestamps (so the repaired replica
// becomes byte-identical to the source for those rows), and each listed
// row the source does not have is deleted — every live cell tombstoned
// under a fresh local timestamp, which the prior ObserveClock guarantees
// sorts above anything replicated. The table is created on the fly when
// the replica never saw it. Returns rows deleted and cells applied.
func (c *Cluster) RepairApply(table string, families []string, cells []Cell, deleteRows []string) (deleted, applied int, err error) {
	t, err := c.table(table)
	if err != nil {
		if t, err = c.CreateTable(table, families, nil); err != nil {
			return 0, 0, err
		}
	}
	c.ObserveClock(maxCellTS(cells))
	var bytes uint64
	var cellCount int
	for _, row := range deleteRows {
		got, stats, gerr := t.regionFor(row).get(row, nil)
		c.chargeRPC(stats)
		if gerr != nil {
			return deleted, applied, gerr
		}
		if got == nil {
			continue
		}
		ts := c.Now()
		dead := make([]Cell, 0, len(got.Cells))
		for i := range got.Cells {
			dc := got.Cells[i]
			dead = append(dead, Cell{Row: dc.Row, Family: dc.Family, Qualifier: dc.Qualifier, Timestamp: ts, Tombstone: true})
		}
		if err := t.applyRow(dead); err != nil {
			return deleted, applied, err
		}
		for i := range dead {
			bytes += dead[i].StoredSize()
		}
		cellCount += len(dead)
		deleted++
	}
	// Group shipped cells into per-row atomic mutations, sorted for
	// deterministic apply order.
	byRow := map[string][]Cell{}
	var order []string
	for i := range cells {
		if !t.HasFamily(cells[i].Family) {
			return deleted, applied, fmt.Errorf("kvstore: repair cell for %q names unknown family %q", table, cells[i].Family)
		}
		if _, ok := byRow[cells[i].Row]; !ok {
			order = append(order, cells[i].Row)
		}
		byRow[cells[i].Row] = append(byRow[cells[i].Row], cells[i])
		bytes += cells[i].StoredSize()
	}
	sort.Strings(order)
	for _, row := range order {
		if err := t.applyRow(byRow[row]); err != nil {
			return deleted, applied, err
		}
		applied += len(byRow[row])
	}
	cellCount += applied
	// One group-write RPC for the whole payload — charged even when it
	// shipped nothing, since the repair call itself still crossed the wire.
	c.chargeWrite(bytes, cellCount)
	return deleted, applied, nil
}

// RepairReplace rebuilds a table wholesale from a source replica's
// snapshot: drop (quarantined or corrupt SSTables go with it), recreate
// with the source's families, and re-ingest the shipped cells at their
// original timestamps. This is the corruption path — when a replica's
// own Merkle build fails its checksums there is no trustworthy local
// state to diff against, so the whole table is replaced.
func (c *Cluster) RepairReplace(table string, families []string, cells []Cell) (int, error) {
	if c.HasTable(table) {
		if err := c.DropTable(table); err != nil {
			return 0, err
		}
	}
	if _, err := c.CreateTable(table, families, nil); err != nil {
		return 0, err
	}
	_, applied, err := c.RepairApply(table, families, cells, nil)
	return applied, err
}

// MerkleScanStats reports the work of one table digest pass.
type MerkleScanStats struct {
	Rows  int
	Cells int
}

// ChargeMerkleScan meters the digest pass that backed a Merkle tree
// build: the rows were already charged as reads by TableCells; the
// hashing itself costs CPU time proportional to the cells digested.
func (c *Cluster) ChargeMerkleScan(st MerkleScanStats) {
	c.metrics.Advance(c.profile.CPUTime(uint64(st.Cells)))
}

// RowDigestParts flattens a row's cells into the byte parts a Merkle
// row digest covers: family, qualifier, timestamp, and value of every
// live cell, in storage order. Kept next to the repair primitives so
// the digest definition and the repair payload can never drift apart.
func RowDigestParts(cells []Cell) [][]byte {
	parts := make([][]byte, 0, 4*len(cells))
	for i := range cells {
		tsBuf := make([]byte, 8)
		binary.BigEndian.PutUint64(tsBuf, uint64(cells[i].Timestamp))
		parts = append(parts, []byte(cells[i].Family), []byte(cells[i].Qualifier), tsBuf, cells[i].Value)
	}
	return parts
}
