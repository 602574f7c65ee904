package kvstore

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Scan describes a client scan request: the whole table, in key order.
type Scan struct {
	Table string
	// Families restricts the scan to these column families (nil = all).
	// Every region keeps one store per family, so a restricted scan
	// merges — and is billed for — only the named families' cells.
	Families []string
	Filter   Filter
	// Caching is the scanner batch size: rows fetched per RPC, HBase's
	// scanner-caching knob. The paper's ISL batching (Section 4.2.3:
	// "batched scans ... with a non-zero rowcache size") maps here.
	Caching int
	// Prefetch bills the scan as if it read ahead: the next batch's RPC
	// counts as issued when the batch before it is delivered (the first
	// one when the scanner opens), and the clock work charged to the same
	// collector since then hides that much of its round trip. Fill
	// advances the clock by the batch's cost minus the clock's progress
	// since the issue, never below zero, and bills the resource counters
	// in full. So two prefetching streams feeding one coordinator overlap
	// each other's round trips. Nothing is read before it is consumed:
	// Fill fetches the batch on the caller's goroutine when it is needed,
	// so a scanner abandoned part-way has read and billed only the
	// batches it delivered.
	Prefetch bool
}

// Scanner streams rows of a table in ascending key order across region
// boundaries, fetching Caching rows per RPC and charging the client
// metrics accordingly.
//
// A batch is the one rowBlock the scanner owns: each fetch refills it,
// so the rows Next hands out are recycled batch by batch rather than
// allocated row by row.
type Scanner struct {
	c       *Cluster
	scan    Scan
	block   rowBlock
	pos     int // next row of the batch
	nextRow string
	done    bool
	err     error
	// issuedAt is the collector clock when the next batch's RPC counts
	// as issued, for Scan.Prefetch's billing.
	issuedAt time.Duration
}

// OpenScanner starts a scan. A prefetching scan's first RPC counts as
// issued here, so whatever the caller bills before consuming it (e.g.
// the other stream of a rank-join coordinator fetching ITS first batch)
// overlaps its round trip.
func (c *Cluster) OpenScanner(s Scan) (*Scanner, error) {
	if _, err := c.table(s.Table); err != nil {
		return nil, err
	}
	if s.Caching < 1 {
		s.Caching = 1
	}
	return &Scanner{c: c, scan: s, issuedAt: c.metrics.SimTime()}, nil
}

// Next returns the next row, or nil when the scan is exhausted. The row
// and its Cells slice belong to the scanner and are valid until the
// next call to Next or Fill, which may reuse them for another batch;
// the cells' strings and Values are views into the store and stay
// valid for as long as they are held (see Cell). A caller that keeps
// rows uses ScanAll, or copies what it keeps.
func (sc *Scanner) Next() (*Row, error) {
	if sc.err != nil {
		return nil, sc.err
	}
	for sc.Buffered() == 0 {
		if sc.done {
			return nil, nil
		}
		if err := sc.Fill(); err != nil {
			return nil, err
		}
	}
	r := &sc.block.rows[sc.pos]
	sc.pos++
	return r, nil
}

// Buffered reports how many fetched rows await consumption.
func (sc *Scanner) Buffered() int { return len(sc.block.rows) - sc.pos }

// Done reports whether the scan is exhausted (no buffered rows and no
// further batches).
func (sc *Scanner) Done() bool { return sc.err != nil || (sc.done && sc.Buffered() == 0) }

// Fill fetches the next batch if the buffer is drained, charging the
// scanner's metrics. It is a no-op while buffered rows remain; when it
// fetches, the rows of the batch before are no longer valid.
func (sc *Scanner) Fill() error {
	if sc.err != nil {
		return sc.err
	}
	if sc.Buffered() > 0 || sc.done {
		return nil
	}
	if err := sc.c.CheckInterrupt(); err != nil {
		sc.err = err
		return err
	}
	stats, err := sc.fetchOnce()
	if err != nil {
		sc.block.reset()
		sc.err = err
		return err
	}
	op := stats.rpc()
	sc.c.metrics.Count(&op)
	cost := sc.c.profile.Price(&op)
	if sc.scan.Prefetch {
		// Clock progress since the RPC counts as issued is work the
		// fetch overlapped with; only the remainder extends the
		// turnaround.
		cost -= sc.c.metrics.SimTime() - sc.issuedAt
	}
	if cost > 0 {
		sc.c.metrics.Advance(cost)
	}
	sc.issuedAt = sc.c.metrics.SimTime()
	return nil
}

// fetchOnce reads one batch of up to Caching rows from the scanner's
// cursor into its block, possibly spanning multiple regions
// server-side, and moves the cursor past it. It charges no metrics:
// Fill bills the batch.
func (sc *Scanner) fetchOnce() (OpStats, error) {
	var stats OpStats
	t, err := sc.c.table(sc.scan.Table)
	if err != nil {
		return stats, err
	}
	want, b := sc.scan.Caching, &sc.block
	if b.rows == nil {
		// The first batch sizes the block once: grown by appends, it
		// would reallocate and recopy its arrays several times in every
		// scanner's first batch. The slab holds two cells per row: a
		// relation row carries a join value and a score, and an inverse
		// score list row one cell, or two when tuples share a score.
		n := min(want, maxPresizedRows)
		b.rows, b.cells = make([]Row, 0, n), make([]Cell, 0, 2*n)
	}
	b.reset()
	sc.pos = 0
	for _, r := range t.regions {
		if r.EndKey() != "" && sc.nextRow != "" && sc.nextRow >= r.EndKey() {
			continue // region entirely before the cursor
		}
		st, _, err := r.scan(b, sc.nextRow, want, sc.scan.Families, sc.scan.Filter, true)
		if err != nil {
			return stats, err
		}
		stats.add(st)
		if len(b.rows) >= want {
			break
		}
	}
	sc.done = len(b.rows) < want
	if len(b.rows) > 0 {
		sc.nextRow = b.rows[len(b.rows)-1].Key + "\x01" // resume strictly after the last row
	}
	return stats, nil
}

// maxPresizedRows bounds the rows a scanner's block is sized for up
// front, however large its Caching: a huge batch grows past it only as
// the rows arrive.
const maxPresizedRows = 1024

// ScanAll drains a scan into rows the caller owns: each batch's rows
// and cells are copied out of the scanner's reused block into arrays of
// their own, one cell array per batch. The cells' strings and Values
// are the same views Next hands out (see Cell).
func (c *Cluster) ScanAll(s Scan) ([]Row, error) {
	sc, err := c.OpenScanner(s)
	if err != nil {
		return nil, err
	}
	var out []Row
	for {
		if err := sc.Fill(); err != nil {
			return nil, err
		}
		if sc.Buffered() == 0 {
			return out, nil
		}
		b := &sc.block
		cells := append([]Cell(nil), b.cells...)
		off := 0
		for i := range b.rows {
			n := len(b.rows[i].Cells)
			out = append(out, Row{Key: b.rows[i].Key, Cells: cells[off : off+n : off+n]})
			off += n
		}
		sc.pos = len(b.rows)
	}
}

// multiGet is the counted and the timed work of one batched-get RPC of
// nrows keyed reads. The two differ by two terms: the 16 bytes per
// requested key that model the row keys on the wire are counted as
// network traffic but not timed, and the disk bytes are counted while
// the time prices the seeks alone.
func (c *Cluster) multiGet(nrows int, stats OpStats) (counted, timed sim.Op) {
	timed = c.keyed(nrows, stats)
	counted = timed
	counted.WireBytes += uint64(nrows) * 16
	timed.DiskBytes = 0
	return counted, timed
}

// MultiGet fetches several rows in ONE client RPC (HBase's batched Get).
// Read units and server-side seeks are still paid per row, but the RPC
// round-trip latency is amortized across the batch — the cost profile
// BFHM's reverse-mapping phase relies on. Missing rows yield nil entries.
func (c *Cluster) MultiGet(table string, rows []string, families ...string) ([]*Row, error) {
	if err := c.CheckInterrupt(); err != nil {
		return nil, err
	}
	t, err := c.table(table)
	if err != nil {
		return nil, err
	}
	out := make([]*Row, len(rows))
	var stats OpStats
	for i, row := range rows {
		got, st, err := t.regionFor(row).get(row, families)
		if err != nil {
			return nil, fmt.Errorf("kvstore: multi-get %q: %w", row, err)
		}
		stats.add(st)
		out[i] = got
	}
	counted, timed := c.multiGet(len(rows), stats)
	c.metrics.Count(&counted)
	c.metrics.Advance(c.profile.Price(&timed))
	return out, nil
}

// multiGetBatch is the per-region slice of one ParallelMultiGet fan-out.
type multiGetBatch struct {
	region *Region
	idxs   []int
	stats  OpStats
}

// ParallelMultiGet bills a batched get as a fan-out over up to
// parallelism concurrent lanes. Rows are grouped by the region that
// holds them (each group is one RPC, as HBase clients batch per region
// server); groups larger than an even 1/parallelism share are further
// chunked into multiple RPCs, modelling the server-side handler pool and
// multi-disk parallelism that lets one region serve concurrent point
// reads. The batches are dealt round-robin onto lanes and read on the
// caller's goroutine, lane after lane. The clock advances by the slowest
// lane's total time while read units, bytes, and RPC counts sum over
// every RPC — the parallel-lane convention of sim.Metrics.AdvanceParallel.
// As with MultiGet, the first failing read returns its error and nothing
// is billed. With parallelism <= 1 it degrades to the single-RPC
// sequential MultiGet.
func (c *Cluster) ParallelMultiGet(table string, rows []string, parallelism int, families ...string) ([]*Row, error) {
	if parallelism <= 1 || len(rows) <= 1 {
		return c.MultiGet(table, rows, families...)
	}
	if err := c.CheckInterrupt(); err != nil {
		return nil, err
	}
	t, err := c.table(table)
	if err != nil {
		return nil, err
	}

	// Group row indexes by region, preserving request order per region.
	byRegion := map[*Region]*multiGetBatch{}
	var groups []*multiGetBatch
	for i, row := range rows {
		r := t.regionFor(row)
		b := byRegion[r]
		if b == nil {
			b = &multiGetBatch{region: r}
			byRegion[r] = b
			groups = append(groups, b)
		}
		b.idxs = append(b.idxs, i)
	}

	// Chunk oversized region groups so the fan-out can reach the lane
	// budget even when the key range is region-skewed (BFHM's reverse
	// mappings cluster in the high-score buckets of one region).
	chunk := (len(rows) + parallelism - 1) / parallelism
	if chunk < 1 {
		chunk = 1
	}
	var batches []*multiGetBatch
	for _, g := range groups {
		for s := 0; s < len(g.idxs); s += chunk {
			e := s + chunk
			if e > len(g.idxs) {
				e = len(g.idxs)
			}
			batches = append(batches, &multiGetBatch{region: g.region, idxs: g.idxs[s:e]})
		}
	}

	// Deal batches round-robin onto lanes (deterministic: batches follow
	// the request order of their first row).
	lanes := parallelism
	if lanes > len(batches) {
		lanes = len(batches)
	}
	laneBatches := make([][]*multiGetBatch, lanes)
	for i, b := range batches {
		laneBatches[i%lanes] = append(laneBatches[i%lanes], b)
	}

	out := make([]*Row, len(rows))
	laneDur := make([]time.Duration, lanes)
	for l, lane := range laneBatches {
		for _, b := range lane {
			for _, i := range b.idxs {
				got, st, err := b.region.get(rows[i], families)
				if err != nil {
					return nil, fmt.Errorf("kvstore: multi-get %q: %w", rows[i], err)
				}
				b.stats.add(st)
				out[i] = got
			}
			_, timed := c.multiGet(len(b.idxs), b.stats)
			laneDur[l] += c.profile.Price(&timed)
		}
	}
	for _, b := range batches {
		counted, _ := c.multiGet(len(b.idxs), b.stats)
		c.metrics.Count(&counted)
	}
	c.metrics.AdvanceParallel(laneDur...)
	return out, nil
}
