package kvstore

import "fmt"

// This file exposes the unmetered, locality-aware access paths used by
// the MapReduce runner. Hadoop tasks read their region's data from the
// local disk and write results directly into the store; the job runner —
// not the client RPC layer — is responsible for charging time, network,
// and read units for that work. Everything here returns OpStats so the
// caller can do exactly that.

// LocalScan walks this region's rows in key order (no RPC, no
// metering), handing each to fn. It reads the region in blocks of at
// most localScanBlock rows into one reused rowBlock, so a row and its
// Cells are valid only until fn returns (the cells' strings and Values
// are views, see Cell). The region is read-locked while a block fills,
// never while fn runs. Each block resumes on the row the one before
// stopped at and pays for that row's first cell itself, so the blocks
// bill what one pass over the region bills.
func (r *Region) LocalScan(families []string, f Filter, fn func(*Row) error) (OpStats, error) {
	var stats OpStats
	var b rowBlock
	for start := ""; ; {
		b.reset()
		st, next, err := r.scan(&b, start, localScanBlock, families, f, false)
		stats.add(st)
		if err != nil {
			return stats, err
		}
		for i := range b.rows {
			if err := fn(&b.rows[i]); err != nil {
				return stats, err
			}
		}
		if next == "" {
			return stats, nil
		}
		start = next
	}
}

// localScanBlock bounds the rows a LocalScan holds at once, whatever
// the region's size.
const localScanBlock = 1024

// LocalWrite applies cells grouped into per-row atomic mutations without
// client-side metering, returning the payload bytes written. Timestamps
// of zero are stamped from the cluster clock.
func (c *Cluster) LocalWrite(table string, cells []Cell) (uint64, error) {
	t, err := c.table(table)
	if err != nil {
		return 0, err
	}
	var bytes uint64
	var pending []Cell
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if err := t.applyRow(pending); err != nil {
			return err
		}
		pending = pending[:0]
		return nil
	}
	for i := range cells {
		if !t.HasFamily(cells[i].Family) {
			return bytes, fmt.Errorf("kvstore: table %q has no family %q", table, cells[i].Family)
		}
		if cells[i].Timestamp == 0 {
			cells[i].Timestamp = c.Now()
		}
		bytes += cells[i].StoredSize()
		if len(pending) > 0 && pending[0].Row != cells[i].Row {
			if err := flush(); err != nil {
				return bytes, err
			}
		}
		pending = append(pending, cells[i])
	}
	if err := flush(); err != nil {
		return bytes, err
	}
	return bytes, nil
}
