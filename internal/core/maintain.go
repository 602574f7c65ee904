package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bloom"
	"repro/internal/histogram"
	"repro/internal/kvstore"
)

// This file implements Section 6 — online updates and index maintenance.
// Base-data insertions and deletions are intercepted at the caller level
// and augmented to mutate the indexes as well, reusing the original
// mutation's timestamp everywhere so replicas converge (the paper's
// eventual-consistency treatment: "key-value timestamps are used to
// discern between fresh and stale tuples").
//
//   - IJLMR and ISL indexes are inverted lists, so a tuple mutation maps
//     to one index-cell mutation each — per index: a relation joined in
//     several queries has several IJLMR tables and is a leaf of several
//     inverse-score-list tables, and every one of them is maintained.
//   - BFHM and DRJN keep one blob per score bucket that cannot be updated
//     in place: a hybrid filter with min/max scores, or a band's partition
//     counts with lo/hi scores. Both keep the same mutation-record log in
//     the bucket row: a write appends an insertion or deletion record
//     (recordCell, stamped like the base mutation). A reader replays the
//     log over the blob and writes nothing (replayRecords; see bfhm.go for
//     why a query never writes); WriteBackAll, the offline pass, folds the
//     log into a fresh blob and purges it (consolidate). BFHM also
//     maintains its reverse mappings directly.
//
// The augmented mutation ships as ONE kvstore.GroupWrite: base table
// plus every index table in a single batched write RPC (one latency
// charge, bytes summed) instead of one round trip per index cell.

// bloomBitPos mirrors bloom.Hybrid.BitPos for callers that maintain a
// filter they cannot decode (the mutation path never reads the blob).
func bloomBitPos(mbits uint64, joinValue string) uint64 {
	return bloom.Hash64String(joinValue) % mbits
}

// A mutation record's qualifier is "i:<rowKey>@<ts>" for an insertion or
// "d:<rowKey>@<ts>" for a deletion; its value is the tuple's EncodeTuple.
const (
	recordInsPfx = "i:"
	recordDelPfx = "d:"
)

// recordCell builds the mutation record of t in the row of its score
// bucket in an index with layout l. The timestamp suffix makes every
// mutation's record a distinct column: row-key-only qualifiers let a later
// mutation of the same key shadow an earlier, not-yet-replayed record
// (reads return one version per column), silently corrupting replayed
// counts. Re-applying the same mutation with the same timestamp still
// lands on the same qualifier, keeping recovery idempotent.
func recordCell(l histogram.Layout, family string, ins bool, t Tuple, ts int64) kvstore.Cell {
	pfx := recordDelPfx
	if ins {
		pfx = recordInsPfx
	}
	return kvstore.Cell{
		Row:       kvstore.BucketKey(l.BucketOf(t.Score)),
		Family:    family,
		Qualifier: pfx + t.RowKey + "@" + strconv.FormatInt(ts, 36),
		Value:     EncodeTuple(t),
		Timestamp: ts,
	}
}

// recordLog is what replaying a row leaves for consolidate: the record
// qualifiers in replay order and the newest record's timestamp.
type recordLog struct {
	quals  []string
	newest int64
}

// replayRecords makes one pass over a bucket row's cells, parses the
// mutation records of family, and replays them in timestamp order
// (Section 6: "replay all row mutations in timestamp order and
// reconstruct the up-to-date blob"), calling apply with each record that
// changes its row key's state.
//
// At equal timestamps deletions replay first: an update ships its
// old-tuple deletion and new-tuple insertion under one timestamp, and must
// net to "replaced", not "removed". A record that repeats its key's
// current state is dropped: a retried delete or a blind double insert
// leaves a second record, and applying both would count a filter bit or a
// band cell shared with live tuples twice. apply reports whether it took
// the record; a record it refuses does not become its key's state.
func replayRecords(family string, cells []kvstore.Cell, apply func(ins bool, t Tuple) bool) (recordLog, error) {
	type record struct {
		ins  bool
		t    Tuple
		ts   int64
		qual string
	}
	var recs []record
	for i := range cells {
		c := &cells[i]
		ins := strings.HasPrefix(c.Qualifier, recordInsPfx)
		if c.Family != family || !ins && !strings.HasPrefix(c.Qualifier, recordDelPfx) {
			continue
		}
		t, err := DecodeTuple(c.Value)
		if err != nil {
			return recordLog{}, fmt.Errorf("bad mutation record %q in family %q: %w", c.Qualifier, family, err)
		}
		recs = append(recs, record{ins: ins, t: t, ts: c.Timestamp, qual: c.Qualifier})
	}
	if len(recs) == 0 {
		return recordLog{}, nil
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].ts != recs[j].ts {
			return recs[i].ts < recs[j].ts
		}
		return !recs[i].ins && recs[j].ins
	})
	log := recordLog{quals: make([]string, len(recs)), newest: recs[len(recs)-1].ts}
	present := make(map[string]bool, len(recs))
	for i, r := range recs {
		if was, seen := present[r.t.RowKey]; !(seen && was == r.ins) && apply(r.ins, r.t) {
			present[r.t.RowKey] = r.ins
		}
		log.quals[i] = r.qual
	}
	return log, nil
}

// consolidate is the offline pass of Section 6 ("off-line (by a thread
// periodically probing bucket rows for mutation records)") over bucket
// rows 0..rows-1 of one index table, one Get each. fold decodes a row and
// replays its log; when the log is not empty it also returns the row's
// fresh blob cells (qualifier and value). consolidate writes those at the
// newest record's timestamp and tombstones every record, in one atomic row
// mutation (a one-row GroupWrite), and returns how many rows it rewrote.
func consolidate(c *kvstore.Cluster, table, family string, rows int,
	fold func(no int, row *kvstore.Row) ([]kvstore.Cell, recordLog, error)) (int, error) {
	n := 0
	for no := 0; no < rows; no++ {
		key := kvstore.BucketKey(no)
		row, err := c.Get(table, key)
		if err != nil {
			return n, err
		}
		if row == nil {
			continue
		}
		cells, log, err := fold(no, row)
		if err != nil {
			return n, err
		}
		if len(log.quals) == 0 {
			continue
		}
		for i := range cells {
			cells[i].Row, cells[i].Family, cells[i].Timestamp = key, family, log.newest
		}
		for _, q := range log.quals {
			cells = append(cells, kvstore.Cell{Row: key, Family: family, Qualifier: q, Timestamp: log.newest, Tombstone: true})
		}
		//lint:allow maintcheck writes an index's own bucket or band table, not a maintained base relation
		if err := c.GroupWrite([]kvstore.TableMutation{{Table: table, Cells: cells}}); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// BoundIJLMR attaches one built IJLMR index to the column family this
// relation writes in it.
type BoundIJLMR struct {
	Idx    *IJLMRIndex
	Family string
}

// Maintainer intercepts tuple-level mutations for one relation and keeps
// ALL of its registered indexes synchronized. IJLMR binds per query, so
// it is a slice: a relation joined in two IJLMR queries has two tables,
// and a mutation maintains both. The inverse score list, BFHM and DRJN
// are per relation: one of each, however many trees read it.
type Maintainer struct {
	C   *kvstore.Cluster
	Rel Relation
	// Any subset of the following may be populated.
	IJLMR []BoundIJLMR
	ISL   *ISLIndex
	BFHM  *BFHMIndex
	DRJN  *DRJNIndex
}

// MaintenanceError reports a write-through maintenance batch that failed
// part-way: the base table and the Applied index tables hold the
// mutation, the structure named by Index does not — base and indexes
// have diverged. Re-applying the same transition through Write with the
// carried Timestamp is idempotent — already-applied cells rewrite
// identically — and converges the store once the failure cause is gone.
// Write is internal: the public relation handles offer no timestamped
// re-apply.
type MaintenanceError struct {
	// Relation names the maintained relation.
	Relation string
	// Index names the divergent structure: "base", "ijlmr", "isl",
	// "bfhm", or "drjn".
	Index string
	// Table is the failed structure's backing table.
	Table string
	// Timestamp is the batch's shared mutation timestamp; reuse it to
	// re-apply idempotently.
	Timestamp int64
	// Applied lists the tables the batch fully reached before failing.
	// Empty means nothing landed and the store is still consistent.
	Applied []string
	// Err is the underlying write error.
	Err error
}

func (e *MaintenanceError) Error() string {
	return fmt.Sprintf("core: index maintenance for relation %q diverged at %s (table %q, ts %d, applied %v): %v",
		e.Relation, e.Index, e.Table, e.Timestamp, e.Applied, e.Err)
}

func (e *MaintenanceError) Unwrap() error { return e.Err }

// indexMutation is one structure's share of a maintenance batch.
type indexMutation struct {
	index string
	kvstore.TableMutation
}

// apply ships a maintenance batch as one group write and wraps partial
// failures in a MaintenanceError naming the divergent structure.
func (m *Maintainer) apply(muts []indexMutation, ts int64) error {
	group := make([]kvstore.TableMutation, len(muts))
	for i := range muts {
		group[i] = muts[i].TableMutation
	}
	err := m.C.GroupWrite(group)
	if err == nil {
		return nil
	}
	me := &MaintenanceError{Relation: m.Rel.Name, Index: "base", Timestamp: ts, Err: err}
	if gwe, ok := err.(*kvstore.GroupWriteError); ok {
		me.Table = gwe.Table
		me.Applied = gwe.Applied
		me.Err = gwe.Err
		for i := range muts {
			if muts[i].Table == gwe.Table {
				me.Index = muts[i].index
				break
			}
		}
	}
	return me
}

// mutations assembles the augmented batch of one old → new transition
// (either may be nil: an insert has no old tuple, a delete no new one),
// every cell stamped ts. The base row's two columns and each inverted
// structure — every bound IJLMR table, then the inverse score list —
// get new's entry and retire old's (appendMove): since an update keeps
// the row key, the base row gets puts, or tombstones when new is nil.
// The bucket indexes follow (appendBucketIndexes).
func (m *Maintainer) mutations(old, new *Tuple, ts int64) []indexMutation {
	rel := &m.Rel
	base := appendMove(make([]kvstore.Cell, 0, 2), old, new, ts, func(t *Tuple) kvstore.Cell {
		return kvstore.Cell{Row: t.RowKey, Family: rel.Family, Qualifier: rel.JoinQual, Value: []byte(t.JoinValue)}
	})
	base = appendMove(base, old, new, ts, func(t *Tuple) kvstore.Cell {
		return kvstore.Cell{Row: t.RowKey, Family: rel.Family, Qualifier: rel.ScoreQual, Value: kvstore.FloatValue(t.Score)}
	})
	muts := []indexMutation{{index: "base", TableMutation: kvstore.TableMutation{Table: rel.Table, Cells: base}}}
	for _, b := range m.IJLMR {
		muts = append(muts, indexMutation{index: "ijlmr", TableMutation: kvstore.TableMutation{
			Table: b.Idx.Table,
			Cells: appendMove(nil, old, new, ts, func(t *Tuple) kvstore.Cell {
				return kvstore.Cell{Row: t.JoinValue, Family: b.Family, Qualifier: t.RowKey, Value: kvstore.FloatValue(t.Score)}
			}),
		}})
	}
	if m.ISL != nil {
		muts = append(muts, indexMutation{index: "isl", TableMutation: kvstore.TableMutation{
			Table: m.ISL.Table,
			Cells: appendMove(nil, old, new, ts, func(t *Tuple) kvstore.Cell {
				return kvstore.Cell{Row: kvstore.EncodeScoreDesc(t.Score), Family: rel.Name, Qualifier: t.RowKey, Value: []byte(t.JoinValue)}
			}),
		}})
	}
	return m.appendBucketIndexes(muts, old, new, ts)
}

// appendMove appends one structure's cells for old → new, where entry
// places a tuple's cell: new's entry, then a tombstone at old's
// coordinate unless that is new's — there the entry is simply
// overwritten, since a tombstone AND a value at one (row, family,
// qualifier, timestamp) would be ambiguous.
func appendMove(cells []kvstore.Cell, old, new *Tuple, ts int64, entry func(t *Tuple) kvstore.Cell) []kvstore.Cell {
	n := len(cells)
	if new != nil {
		c := entry(new)
		c.Timestamp = ts
		cells = append(cells, c)
	}
	if old != nil {
		c := entry(old)
		if new == nil || c.Row != cells[n].Row || c.Qualifier != cells[n].Qualifier {
			cells = append(cells, kvstore.Cell{Row: c.Row, Family: c.Family, Qualifier: c.Qualifier, Timestamp: ts, Tombstone: true})
		}
	}
	return cells
}

// appendBucketIndexes appends the BFHM and DRJN shares of a batch that
// retires old and adds new (either may be nil). BFHM's reverse mapping
// moves directly, through appendMove like the inverted lists (Section 6:
// "an entry being added in the corresponding reverse mapping row").
// Both indexes' bucket rows get a deletion record for old and an
// insertion record for new; same-timestamp replay applies deletions
// first, so an update nets to "replaced".
func (m *Maintainer) appendBucketIndexes(muts []indexMutation, old, new *Tuple, ts int64) []indexMutation {
	records := func(l histogram.Layout, family string, cells []kvstore.Cell) []kvstore.Cell {
		if old != nil {
			cells = append(cells, recordCell(l, family, false, *old, ts))
		}
		if new != nil {
			cells = append(cells, recordCell(l, family, true, *new, ts))
		}
		return cells
	}
	if idx := m.BFHM; idx != nil {
		cells := appendMove(nil, old, new, ts, func(t *Tuple) kvstore.Cell {
			return kvstore.Cell{Row: kvstore.ReverseMapKey(idx.Layout.BucketOf(t.Score), bloomBitPos(idx.MBits, t.JoinValue)),
				Family: bfhmFamily, Qualifier: t.RowKey, Value: EncodeTuple(*t)}
		})
		muts = append(muts, indexMutation{index: "bfhm", TableMutation: kvstore.TableMutation{
			Table: idx.Table, Cells: records(idx.Layout, bfhmFamily, cells)}})
	}
	if idx := m.DRJN; idx != nil {
		muts = append(muts, indexMutation{index: "drjn", TableMutation: kvstore.TableMutation{
			Table: idx.Table, Cells: records(idx.Layout, drjnFamily, nil)}})
	}
	return muts
}

// Write applies one tuple transition with full index maintenance: old
// is the relation's current tuple (nil when the row is absent), new the
// tuple replacing it (nil for a delete). Insert and delete are the two
// special cases of the one update rule: the base row and every
// registered index retire old's entries and gain new's under ONE shared
// timestamp, shipped as one group write. A new tuple needs a row key
// and a join value, and an update keeps the row key. The caller
// supplies old as read at its interception point; a wrong old tuple
// strands index entries (an insert over a live key leaves the old
// score's inverse-list entries live, producing phantom results).
//
// ts 0 stamps the batch with a fresh timestamp. A non-zero ts re-applies
// a MaintenanceError's batch with its carried Timestamp, which is
// idempotent and converges a diverged store; replicated topologies also
// use it to apply a router-stamped write identically on every replica.
func (m *Maintainer) Write(old, new *Tuple, ts int64) error {
	if err := CheckWrite(old, new); err != nil {
		return err
	}
	if ts == 0 {
		ts = m.C.Now()
	}
	return m.apply(m.mutations(old, new, ts), ts)
}

// CheckWrite refuses a transition Write would refuse, before anything
// is written: a new tuple needs a row key and a join value, and neither
// may hold a NUL, which separates the components of composite index
// keys; an update keeps the row key; and one side must be present.
func CheckWrite(old, new *Tuple) error {
	switch {
	case new != nil && (new.RowKey == "" || new.JoinValue == ""):
		if old == nil {
			return fmt.Errorf("core: insert needs row key and join value")
		}
		return fmt.Errorf("core: update needs row key and join value")
	case new != nil && (strings.IndexByte(new.RowKey, 0) >= 0 || strings.IndexByte(new.JoinValue, 0) >= 0):
		return fmt.Errorf("core: row key %q and join value %q must not contain NUL", new.RowKey, new.JoinValue)
	case old != nil && new != nil && old.RowKey != new.RowKey:
		return fmt.Errorf("core: update must keep the row key (%q != %q)", old.RowKey, new.RowKey)
	case old == nil && new == nil:
		return fmt.Errorf("core: write needs an old or a new tuple")
	}
	return nil
}

// insertBatchChunk bounds how many tuples one InsertBatch group write
// carries.
const insertBatchChunk = 256

// InsertBatch inserts many NEW tuples with full index maintenance,
// batching up to insertBatchChunk tuples' augmented mutations into each
// group write (one write RPC per chunk instead of one per tuple). It
// writes each tuple as an insert (Write with no old tuple), so it does
// not retire previous index entries for reused row keys. Tuples within
// a chunk share one timestamp.
func (m *Maintainer) InsertBatch(tuples []Tuple) error {
	return m.insertBatch(tuples, m.C.Now, insertBatchChunk)
}

// InsertBatchAt is InsertBatch with ONE caller-supplied timestamp for
// the whole batch, applied in a single group write. Replicated
// topologies use it to apply a router-stamped bulk load identically on
// every replica: same cells, same timestamps, byte-identical tables.
func (m *Maintainer) InsertBatchAt(tuples []Tuple, ts int64) error {
	return m.insertBatch(tuples, func() int64 { return ts }, len(tuples))
}

func (m *Maintainer) insertBatch(tuples []Tuple, stamp func() int64, chunk int) error {
	// Validate the whole batch before ANY chunk applies: a bad tuple in
	// a later chunk must not leave the earlier chunks silently committed
	// behind a plain error.
	for i := range tuples {
		if err := CheckWrite(nil, &tuples[i]); err != nil {
			return fmt.Errorf("core: insert batch tuple %d: %w", i, err)
		}
	}
	if chunk < 1 {
		chunk = 1
	}
	for start := 0; start < len(tuples); start += chunk {
		end := start + chunk
		if end > len(tuples) {
			end = len(tuples)
		}
		ts := stamp()
		// Merge the per-tuple batches per table so the chunk stays one
		// TableMutation per structure.
		merged := map[string]*indexMutation{}
		var order []string
		for _, t := range tuples[start:end] {
			for _, mu := range m.mutations(nil, &t, ts) {
				got, ok := merged[mu.Table]
				if !ok {
					cp := mu
					merged[mu.Table] = &cp
					order = append(order, mu.Table)
					continue
				}
				got.Cells = append(got.Cells, mu.Cells...)
			}
		}
		batch := make([]indexMutation, 0, len(order))
		for _, tbl := range order {
			batch = append(batch, *merged[tbl])
		}
		if err := m.apply(batch, ts); err != nil {
			return err
		}
	}
	return nil
}

// WriteBackAll runs the offline write-back pass — the "off-line (by a
// thread periodically probing bucket rows for mutation records)" mode of
// Section 6 — over the relation's BFHM bucket rows and DRJN band rows:
// each row's record log is folded into a fresh blob and purged, bounding
// row growth under sustained write traffic (see consolidate). It returns
// how many rows were rewritten.
func (m *Maintainer) WriteBackAll() (int, error) {
	n := 0
	if idx := m.BFHM; idx != nil {
		k, err := consolidate(m.C, idx.Table, bfhmFamily, idx.Layout.Buckets, func(no int, row *kvstore.Row) ([]kvstore.Cell, recordLog, error) {
			b, log, err := decodeBFHMBucket(idx, no, row.Cells)
			if err != nil || len(log.quals) == 0 {
				return nil, log, err
			}
			blob, err := b.Filter.Encode()
			return []kvstore.Cell{
				{Qualifier: bfhmBlobQual, Value: blob},
				{Qualifier: bfhmMinQual, Value: kvstore.FloatValue(b.Min)},
				{Qualifier: bfhmMaxQual, Value: kvstore.FloatValue(b.Max)},
			}, log, err
		})
		n += k
		if err != nil {
			return n, err
		}
	}
	if idx := m.DRJN; idx != nil {
		k, err := consolidate(m.C, idx.Table, drjnFamily, idx.Layout.Buckets, func(no int, row *kvstore.Row) ([]kvstore.Cell, recordLog, error) {
			bd, log, err := decodeBandRow(idx, no, row)
			if err != nil || len(log.quals) == 0 {
				return nil, log, err
			}
			return []kvstore.Cell{{Qualifier: drjnBandQual, Value: histogram.MarshalBandData(bd.Cells, bd.Lo, bd.Hi, bd.NonEmpty)}}, log, nil
		})
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
