package kvstore

import (
	"fmt"
	"sync"
	"time"
)

// Scan describes a client scan request.
type Scan struct {
	Table    string
	StartRow string // inclusive; "" = table start
	StopRow  string // exclusive; "" = table end
	// Families restricts the scan to these column families (nil = all).
	// Every region keeps one store per family, so a restricted scan
	// merges — and is billed for — only the named families' cells.
	Families []string
	Filter   Filter
	// Caching is the scanner batch size: rows fetched per RPC, HBase's
	// scanner-caching knob. The paper's ISL batching (Section 4.2.3:
	// "batched scans ... with a non-zero rowcache size") maps here.
	Caching int
	// ReadTs, when non-zero, hides cells newer than this timestamp
	// (snapshot reads used by index maintenance tests).
	ReadTs int64
	// Prefetch enables asynchronous read-ahead: after a batch is
	// delivered the scanner immediately issues the next batch's RPC in
	// the background, overlapping it with the caller's consumption. The
	// cost model charges the full resource counters for every CONSUMED
	// batch but advances the clock only by the portion of the fetch NOT
	// hidden behind other work charged to the same collector since the
	// RPC was issued (so two prefetching streams feeding one coordinator
	// overlap each other's round trips). A speculative batch still in
	// flight when the caller abandons the scanner is never billed — the
	// client cancels the scanner lease, as with HBase scanner close.
	Prefetch bool
}

// fetchResult is the outcome of one batch pulled by fetchOnce into a
// block.
type fetchResult struct {
	stats   OpStats
	nextRow string
	done    bool
	err     error
}

// Scanner streams rows of a table in ascending key order across region
// boundaries, fetching Caching rows per RPC and charging the client
// metrics accordingly.
//
// A batch is one rowBlock the scanner owns. It keeps two: the batch the
// caller is reading, and a spare that the next fetch — synchronous, or
// the background prefetch — refills. Taking the next batch turns the
// block just read into the spare, so the rows Next hands out are
// recycled batch by batch rather than allocated row by row.
type Scanner struct {
	c       *Cluster
	scan    Scan
	blocks  [2]rowBlock
	cur     int // blocks[cur] is the batch being read, blocks[1-cur] the spare
	pos     int // next row of the batch
	nextRow string
	done    bool
	err     error

	// Prefetch state: at most one background fetch is in flight, and
	// it fills the spare block.
	pfCh       chan fetchResult
	pfInflight bool
	pfIssuedAt time.Duration // collector clock when the RPC was issued
}

// OpenScanner starts a scan.
func (c *Cluster) OpenScanner(s Scan) (*Scanner, error) {
	if _, err := c.table(s.Table); err != nil {
		return nil, err
	}
	if s.Caching < 1 {
		s.Caching = 1
	}
	sc := &Scanner{c: c, scan: s, nextRow: s.StartRow}
	if s.Prefetch {
		sc.pfCh = make(chan fetchResult, 1)
		// Read ahead eagerly: the first batch's round trip overlaps
		// whatever the caller does between opening and consuming (e.g.
		// the other stream of a rank-join coordinator fetching ITS first
		// batch). Nothing is billed unless the batch is consumed.
		sc.prefetch()
	}
	return sc, nil
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
	r := &sc.blocks[sc.cur].rows[sc.pos]
	sc.pos++
	return r, nil
}

// Buffered reports how many fetched rows await consumption.
func (sc *Scanner) Buffered() int { return len(sc.blocks[sc.cur].rows) - sc.pos }

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
	var res fetchResult
	hidden := time.Duration(0)
	if sc.pfInflight {
		res = <-sc.pfCh
		sc.pfInflight = false
		// Clock progress since the RPC was issued is work the fetch
		// overlapped with; only the remainder extends the turnaround.
		hidden = sc.c.metrics.SimTime() - sc.pfIssuedAt
	} else {
		res = sc.fetchOnce(sc.nextRow, &sc.blocks[1-sc.cur])
	}
	if res.err != nil {
		sc.err = res.err
		return res.err
	}
	sc.cur, sc.pos = 1-sc.cur, 0
	sc.nextRow = res.nextRow
	sc.done = res.done
	sc.c.chargeRPCCounters(res.stats)
	cost := sc.c.rpcCost(res.stats)
	if cost > hidden {
		sc.c.metrics.Advance(cost - hidden)
	}
	if sc.scan.Prefetch && !sc.done {
		sc.prefetch()
	}
	return nil
}

// prefetch issues the next batch's RPC in the background, into the
// spare block.
func (sc *Scanner) prefetch() {
	sc.pfInflight = true
	sc.pfIssuedAt = sc.c.metrics.SimTime()
	start, b := sc.nextRow, &sc.blocks[1-sc.cur]
	go func() {
		sc.pfCh <- sc.fetchOnce(start, b)
	}()
}

// fetchOnce performs one batch read of up to Caching rows starting at
// start into b, possibly spanning multiple regions server-side. It
// touches no scanner state but b and charges no metrics, so it is safe
// to run from the prefetch goroutine.
func (sc *Scanner) fetchOnce(start string, b *rowBlock) fetchResult {
	t, err := sc.c.table(sc.scan.Table)
	if err != nil {
		return fetchResult{err: err}
	}
	want := sc.scan.Caching
	out := fetchResult{nextRow: start}
	b.reset()
	for _, r := range t.regions {
		if r.EndKey() != "" && start != "" && start >= r.EndKey() {
			continue // region entirely before the cursor
		}
		if sc.scan.StopRow != "" && r.StartKey() != "" && r.StartKey() >= sc.scan.StopRow {
			break // region entirely after the stop row
		}
		st, _, err := r.scan(b, start, sc.scan.StopRow, want, sc.scan.Families, sc.scan.ReadTs, sc.scan.Filter, true)
		if err != nil {
			return fetchResult{err: err}
		}
		out.stats.add(st)
		if len(b.rows) >= want {
			break
		}
	}
	if len(b.rows) < want {
		out.done = true
	}
	if len(b.rows) > 0 {
		out.nextRow = b.rows[len(b.rows)-1].Key + "\x01" // resume strictly after the last row
	} else {
		out.done = true
	}
	return out
}

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
		b := &sc.blocks[sc.cur]
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

// multiGetCost returns the simulated duration of one batched-get RPC of
// nrows keyed reads with the given server-side work. Rows served from
// the row cache (stats.CacheHits) skip their disk seek. On a
// disk-backed cluster the seek count is MEASURED — one per SSTable
// block actually fetched — rather than assumed one per uncached row.
func (c *Cluster) multiGetCost(nrows int, stats OpStats) time.Duration {
	var seeks int
	if c.state.store != nil {
		seeks = int(stats.BlockReads)
	} else {
		seeks = nrows - int(stats.CacheHits)
	}
	if seeks < 0 {
		seeks = 0
	}
	return c.profile.RPCLatency +
		time.Duration(seeks)*c.profile.SeekLatency +
		c.profile.TransferTime(requestOverhead+stats.BytesReturned) +
		c.profile.CPUTime(stats.CellsExamined)
}

// chargeMultiGetCounters meters the resource counters of one batched-get
// RPC (the 16 bytes per requested key model the row keys on the wire).
func (c *Cluster) chargeMultiGetCounters(nrows int, stats OpStats) {
	c.metrics.AddReadRPC(requestOverhead+uint64(nrows)*16+stats.BytesReturned, stats.CellsExamined, stats.BytesRead)
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
	c.chargeMultiGetCounters(len(rows), stats)
	c.metrics.Advance(c.multiGetCost(len(rows), stats))
	return out, nil
}

// multiGetBatch is the per-region slice of one ParallelMultiGet fan-out.
type multiGetBatch struct {
	region *Region
	idxs   []int
	stats  OpStats
	cost   time.Duration
	err    error
}

// ParallelMultiGet fans a batched get out over up to parallelism
// concurrent lanes. Rows are grouped by the region that holds them (each
// group is one RPC, as HBase clients batch per region server); groups
// larger than an even 1/parallelism share are further chunked into
// multiple RPCs, modelling the server-side handler pool and multi-disk
// parallelism that lets one region serve concurrent point reads. The
// clock advances by the slowest lane's total time while read units,
// bytes, and RPC counts sum over every RPC — the parallel-lane convention
// of sim.Metrics.AdvanceParallel. With parallelism <= 1 it degrades to
// the single-RPC sequential MultiGet.
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
	var wg sync.WaitGroup
	for l := range laneBatches {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for _, b := range laneBatches[l] {
				for _, i := range b.idxs {
					got, st, err := b.region.get(rows[i], families)
					if err != nil {
						b.err = fmt.Errorf("kvstore: multi-get %q: %w", rows[i], err)
						return
					}
					b.stats.add(st)
					out[i] = got
				}
				b.cost = c.multiGetCost(len(b.idxs), b.stats)
				laneDur[l] += b.cost
			}
		}(l)
	}
	wg.Wait()

	for _, b := range batches {
		if b.err != nil {
			return nil, b.err
		}
		c.chargeMultiGetCounters(len(b.idxs), b.stats)
	}
	c.metrics.AdvanceParallel(laneDur...)
	return out, nil
}
