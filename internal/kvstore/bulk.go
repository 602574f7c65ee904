package kvstore

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// BulkWrite is the store's unmetered bulk door: a MapReduce job's
// store writes and a bulk load land through it, and their callers bill
// the work (the runner per job, a loader per batch). parts are written
// in order, as if concatenated, and it returns their payload bytes.
// Each zero timestamp is stamped with its own fresh Now(), in input
// order. Consecutive cells of one row within a part are one row
// mutation, as far as the table's mutation sequence is concerned.
//
// In memory mode the cells never enter a memtable. Every cell is first
// checked as any write checks it (Region.checkCell), so nothing lands
// unless all of them pass. Then each region of the table numbers its
// cells in input order, sorts them once, and copies them, with what its
// family memtables already held, into one run per family sized to fit,
// in key order (see sealBulk). A bulk write so leaves every region of
// the table with empty memtables, and the reads that follow
// binary-search a run instead of walking a skip list filled in load
// order. Memory-mode billing does not depend on where a cell sits, so
// no simulated count moves.
//
// In disk mode each row mutation goes through the WAL and its family
// memtable like any write, and flushing stays with the threshold: there
// a flush writes an SSTable, and every read after it pays measured
// block reads that a memtable read never bills.
//
//lint:allow chargecheck the bulk door is unmetered by design: the MapReduce runner and the bulk loaders bill what they write
func (c *Cluster) BulkWrite(table string, parts ...[]Cell) (uint64, error) {
	t, err := c.table(table)
	if err != nil {
		return 0, err
	}
	var bytes uint64
	var stamps, rows int
	for _, p := range parts {
		for i := range p {
			if !t.HasFamily(p[i].Family) {
				return 0, fmt.Errorf("kvstore: table %q has no family %q", table, p[i].Family)
			}
			bytes += p[i].StoredSize()
			if p[i].Timestamp == 0 {
				stamps++
			}
			if i == 0 || p[i].Row != p[i-1].Row {
				rows++
			}
		}
	}
	stamp := func() {
		ts := c.reserveClock(stamps)
		for _, p := range parts {
			for i := range p {
				if p[i].Timestamp == 0 {
					p[i].Timestamp = ts
					ts++
				}
			}
		}
	}

	if c.DiskBacked() {
		stamp()
		for _, p := range parts {
			for i := 0; i < len(p); {
				j := i + 1
				for j < len(p) && p[j].Row == p[i].Row {
					j++
				}
				if err := t.applyRow(p[i:j]); err != nil {
					return bytes, err
				}
				i = j
			}
		}
		return bytes, nil
	}

	counts := make([]int, len(t.regions))
	for _, p := range parts {
		for i := range p {
			ri := t.regionIndex(p[i].Row)
			if err := t.regions[ri].checkCell(&p[i]); err != nil {
				return 0, err
			}
			counts[ri]++
		}
	}
	staged := make([][]bulkEntry, len(t.regions))
	for ri, n := range counts {
		staged[ri] = make([]bulkEntry, 0, n)
	}
	for _, p := range parts {
		for i := range p {
			ri := t.regionIndex(p[i].Row)
			staged[ri] = append(staged[ri], bulkEntry{c: &p[i], ord: uint64(len(staged[ri]) + 1)})
		}
	}
	stamp()
	for ri, r := range t.regions {
		if err := r.sealBulk(staged[ri]); err != nil {
			return bytes, err
		}
		staged[ri] = nil
	}
	t.mutSeq.Add(uint64(rows))
	return bytes, nil
}

// bulkEntry is one cell of a memory-mode bulk write, staged in its
// region: ord is its 1-based position among the region's cells in
// input order, so it lands under sequence number base+ord, where base
// is the region's sequence when the write installs.
type bulkEntry struct {
	c   *Cell
	ord uint64
}

// cmpVersion orders two cell versions of one family as their internal
// keys sort: by row, then qualifier, then newest timestamp first (the
// key holds ^ts). It returns 0 for two versions of one column at one
// timestamp, which the sequence number orders.
func cmpVersion(a, b *Cell) int {
	if c := strings.Compare(a.Row, b.Row); c != 0 {
		return c
	}
	if c := strings.Compare(a.Qualifier, b.Qualifier); c != 0 {
		return c
	}
	return cmp.Compare(uint64(b.Timestamp), uint64(a.Timestamp))
}

// cmpStaged orders staged cells by family, the order of a region's
// stores, and within a family by internal key: the later of two writes
// of one column at one timestamp carries the higher sequence number,
// so it sorts first.
func cmpStaged(a, b bulkEntry) int {
	if c := strings.Compare(a.c.Family, b.c.Family); c != 0 {
		return c
	}
	if c := cmpVersion(a.c, b.c); c != 0 {
		return c
	}
	return cmp.Compare(b.ord, a.ord)
}

// sealBulk lands a bulk write's share of this memory-mode region. The
// sort runs before the lock is taken. Under it the cells take the next
// len(staged) sequence numbers in input order, and the maintained live
// count moves by the newest staged version of each column, as
// countMutationLocked moves it for a single write. Each touched row
// leaves the row cache. Then a flush puts every dirty family store's
// memtable and staged cells into one new run (flushLocked), with the
// compaction a flush brings. A region with nothing staged is flushed
// all the same, so no bulk write leaves a memtable behind.
func (r *Region) sealBulk(staged []bulkEntry) error {
	slices.SortFunc(staged, cmpStaged)
	r.mu.Lock()
	defer r.mu.Unlock()
	base := r.seq
	r.seq += uint64(len(staged))
	var st *familyStore
	for i := range staged {
		c := staged[i].c
		var prev *Cell
		if i > 0 {
			prev = staged[i-1].c
		}
		if prev == nil || prev.Family != c.Family {
			st = r.storeLocked(c.Family)
		}
		if prev == nil || prev.Row != c.Row {
			r.cache.invalidate(c.Row)
		}
		newColumn := prev == nil || prev.Family != c.Family || prev.Row != c.Row || prev.Qualifier != c.Qualifier
		if r.liveCounted && newColumn {
			r.countMutationLocked(st, cellKey(c.Row, c.Family, c.Qualifier, c.Timestamp, base+staged[i].ord), c)
		}
	}
	return r.flushLocked(staged, base)
}

// sealedRun copies st's memtable and span — staged cells of st's
// family in key order, cell e under sequence base+e.ord — into one run,
// merged in key order. Its slabs are sized to the bytes it holds, so
// the run takes the memory a flush of the same cells would. Every
// staged sequence number is above the memtable's, so of two versions
// of a column at one timestamp the staged one sorts first.
func (st *familyStore) sealedRun(span []bulkEntry, base uint64) *segment {
	keyBytes, valBytes := st.mem.arena.size()
	for _, e := range span {
		keyBytes += internalKeyLen(e.c)
		valBytes += len(e.c.Value)
	}
	b := newRunBuilder(st.mem.count+len(span), keyBytes, valBytes)
	mem := st.mem.iterator("")
	for _, e := range span {
		for ; mem.valid() && cmpVersion(mem.cell(), e.c) < 0; mem.next() {
			b.add(mem.key(), mem.cell())
		}
		b.addCell(e.c, base+e.ord)
	}
	for ; mem.valid(); mem.next() {
		b.add(mem.key(), mem.cell())
	}
	return newSegment(b.finish())
}
