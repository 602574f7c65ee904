package kvstore

import "fmt"

// This file exposes the unmetered, locality-aware access paths used by
// the MapReduce runner. Hadoop tasks read their region's data from the
// local disk and write results directly into the store; the job runner —
// not the client RPC layer — is responsible for charging time, network,
// and read units for that work. Everything here returns OpStats so the
// caller can do exactly that.

// LocalScan reads rows straight from this region (no RPC, no metering).
// limit 0 means no limit.
func (r *Region) LocalScan(startRow, stopRow string, limit int, families []string, readTs int64, f Filter) ([]Row, OpStats, error) {
	return r.scan(startRow, stopRow, limit, families, readTs, f)
}

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
