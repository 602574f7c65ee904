package kvstore

// This file exposes the unmetered, locality-aware read path used by the
// MapReduce runner. Hadoop tasks read their region's data from the
// local disk (and write results straight into the store through
// BulkWrite); the job runner — not the client RPC layer — is
// responsible for charging time, network, and read units for that
// work, so LocalScan returns OpStats for it to do exactly that.

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
