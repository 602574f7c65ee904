package core

import (
	"fmt"
	"strconv"

	"repro/internal/bloom"
	"repro/internal/kvstore"
)

// bloomBitPos mirrors bloom.Hybrid.BitPos for callers that maintain a
// filter they cannot decode (the mutation path never reads the blob).
func bloomBitPos(mbits uint64, joinValue string) uint64 {
	return bloom.Hash64String(joinValue) % mbits
}

// mutRecordQual builds a mutation-record qualifier (BFHM bucket rows,
// DRJN band rows). The timestamp suffix makes every mutation's record a
// distinct column: row-key-only qualifiers let a later mutation of the
// same key shadow an earlier, not-yet-replayed record (reads return one
// version per column), silently corrupting replayed counts. Re-applying
// the same mutation with the same timestamp still lands on the same
// qualifier, keeping recovery idempotent.
func mutRecordQual(pfx, rowKey string, ts int64) string {
	return pfx + rowKey + "@" + strconv.FormatInt(ts, 36)
}

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
//   - BFHM blobs cannot be updated in place; mutations append insertion
//     or tombstone records to the bucket row (same timestamp as the base
//     mutation) and maintain the reverse mappings directly. Readers
//     replay the records over the blob and write nothing; WriteBackAll,
//     the offline pass, persists reconstructed blobs (see bfhm.go for why
//     a query never does).
//   - DRJN band rows receive the same record treatment: inserts and
//     deletes append per-tuple delta records that readers fold into the
//     band's partition counts and observed score bounds, so the band
//     walk prices (and bounds) fresh cardinalities with no offline
//     rebuild.
//
// The augmented mutation ships as ONE kvstore.GroupWrite: base table
// plus every index table in a single batched write RPC (one latency
// charge, bytes summed) instead of one round trip per index cell.

// BoundIJLMR attaches one built IJLMR index to the column family this
// relation writes in it.
type BoundIJLMR struct {
	Idx    *IJLMRIndex
	Family string
}

// BoundISL attaches one built inverse-score-list index to the column
// family this relation writes in it.
type BoundISL struct {
	Idx    *ISLIndex
	Family string
}

// Maintainer intercepts tuple-level mutations for one relation and keeps
// ALL of its registered indexes synchronized. IJLMR binds per query and
// ISL per leaf set, so they are slices: a relation participating in two
// queries has two inverse-list tables, and a mutation maintains both.
type Maintainer struct {
	C   *kvstore.Cluster
	Rel Relation
	// Any subset of the following may be populated.
	IJLMR []BoundIJLMR
	ISL   []BoundISL
	BFHM  *BFHMIndex
	DRJN  *DRJNIndex
}

// MaintenanceError reports a write-through maintenance batch that failed
// part-way: the base table and the Applied index tables hold the
// mutation, the structure named by Index does not — base and indexes
// have diverged. Re-applying the same logical mutation with the carried
// Timestamp (InsertTupleAt / DeleteTupleAt / UpdateTupleAt) is
// idempotent — already-applied cells rewrite identically — and converges
// the store once the failure cause is gone.
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

// appendInverseLists appends one mutation per bound inverse-score-list
// index, with cells built for that index's family.
func (m *Maintainer) appendInverseLists(muts []indexMutation, cells func(family string) []kvstore.Cell) []indexMutation {
	for _, b := range m.ISL {
		muts = append(muts, indexMutation{index: "isl", TableMutation: kvstore.TableMutation{
			Table: b.Idx.Table, Cells: cells(b.Family)}})
	}
	return muts
}

// insertMutations assembles the augmented mutation batch for one tuple
// insertion, every cell stamped ts.
func (m *Maintainer) insertMutations(t Tuple, ts int64, extraCells []kvstore.Cell) []indexMutation {
	base := []kvstore.Cell{
		{Row: t.RowKey, Family: m.Rel.Family, Qualifier: m.Rel.JoinQual, Value: []byte(t.JoinValue), Timestamp: ts},
		{Row: t.RowKey, Family: m.Rel.Family, Qualifier: m.Rel.ScoreQual, Value: kvstore.FloatValue(t.Score), Timestamp: ts},
	}
	for _, c := range extraCells {
		c.Row = t.RowKey
		c.Timestamp = ts
		base = append(base, c)
	}
	muts := []indexMutation{{index: "base", TableMutation: kvstore.TableMutation{Table: m.Rel.Table, Cells: base}}}
	for _, b := range m.IJLMR {
		muts = append(muts, indexMutation{index: "ijlmr", TableMutation: kvstore.TableMutation{
			Table: b.Idx.Table,
			Cells: []kvstore.Cell{{Row: t.JoinValue, Family: b.Family, Qualifier: t.RowKey,
				Value: kvstore.FloatValue(t.Score), Timestamp: ts}},
		}})
	}
	muts = m.appendInverseLists(muts, func(fam string) []kvstore.Cell {
		return []kvstore.Cell{{Row: kvstore.EncodeScoreDesc(t.Score), Family: fam, Qualifier: t.RowKey,
			Value: []byte(t.JoinValue), Timestamp: ts}}
	})
	if m.BFHM != nil {
		muts = append(muts, indexMutation{index: "bfhm", TableMutation: kvstore.TableMutation{
			Table: m.BFHM.Table, Cells: m.bfhmInsertCells(t, ts),
		}})
	}
	if m.DRJN != nil {
		muts = append(muts, indexMutation{index: "drjn", TableMutation: kvstore.TableMutation{
			Table: m.DRJN.Table, Cells: []kvstore.Cell{drjnInsertRecord(m.DRJN, t, ts)},
		}})
	}
	return muts
}

// deleteMutations assembles the augmented mutation batch for one tuple
// deletion.
func (m *Maintainer) deleteMutations(t Tuple, ts int64) []indexMutation {
	base := []kvstore.Cell{
		{Row: t.RowKey, Family: m.Rel.Family, Qualifier: m.Rel.JoinQual, Timestamp: ts, Tombstone: true},
		{Row: t.RowKey, Family: m.Rel.Family, Qualifier: m.Rel.ScoreQual, Timestamp: ts, Tombstone: true},
	}
	muts := []indexMutation{{index: "base", TableMutation: kvstore.TableMutation{Table: m.Rel.Table, Cells: base}}}
	for _, b := range m.IJLMR {
		muts = append(muts, indexMutation{index: "ijlmr", TableMutation: kvstore.TableMutation{
			Table: b.Idx.Table,
			Cells: []kvstore.Cell{{Row: t.JoinValue, Family: b.Family, Qualifier: t.RowKey,
				Timestamp: ts, Tombstone: true}},
		}})
	}
	muts = m.appendInverseLists(muts, func(fam string) []kvstore.Cell {
		return []kvstore.Cell{{Row: kvstore.EncodeScoreDesc(t.Score), Family: fam, Qualifier: t.RowKey,
			Timestamp: ts, Tombstone: true}}
	})
	if m.BFHM != nil {
		muts = append(muts, indexMutation{index: "bfhm", TableMutation: kvstore.TableMutation{
			Table: m.BFHM.Table, Cells: m.bfhmDeleteCells(t, ts),
		}})
	}
	if m.DRJN != nil {
		muts = append(muts, indexMutation{index: "drjn", TableMutation: kvstore.TableMutation{
			Table: m.DRJN.Table, Cells: []kvstore.Cell{drjnDeleteRecord(m.DRJN, t, ts)},
		}})
	}
	return muts
}

// updateMutations assembles the batch replacing old with new (same row
// key) under one timestamp. Index entries whose coordinates change get a
// tombstone at the old position and a fresh entry at the new one; those
// whose coordinates are unchanged are simply overwritten — writing a
// tombstone AND a value at one (row, family, qualifier, timestamp) would
// be ambiguous.
func (m *Maintainer) updateMutations(old, new Tuple, ts int64) []indexMutation {
	base := []kvstore.Cell{
		{Row: new.RowKey, Family: m.Rel.Family, Qualifier: m.Rel.JoinQual, Value: []byte(new.JoinValue), Timestamp: ts},
		{Row: new.RowKey, Family: m.Rel.Family, Qualifier: m.Rel.ScoreQual, Value: kvstore.FloatValue(new.Score), Timestamp: ts},
	}
	muts := []indexMutation{{index: "base", TableMutation: kvstore.TableMutation{Table: m.Rel.Table, Cells: base}}}
	for _, b := range m.IJLMR {
		cells := []kvstore.Cell{{Row: new.JoinValue, Family: b.Family, Qualifier: new.RowKey,
			Value: kvstore.FloatValue(new.Score), Timestamp: ts}}
		if old.JoinValue != new.JoinValue {
			cells = append(cells, kvstore.Cell{Row: old.JoinValue, Family: b.Family, Qualifier: old.RowKey,
				Timestamp: ts, Tombstone: true})
		}
		muts = append(muts, indexMutation{index: "ijlmr", TableMutation: kvstore.TableMutation{Table: b.Idx.Table, Cells: cells}})
	}
	oldScoreKey, newScoreKey := kvstore.EncodeScoreDesc(old.Score), kvstore.EncodeScoreDesc(new.Score)
	muts = m.appendInverseLists(muts, func(fam string) []kvstore.Cell {
		cells := []kvstore.Cell{{Row: newScoreKey, Family: fam, Qualifier: new.RowKey,
			Value: []byte(new.JoinValue), Timestamp: ts}}
		if oldScoreKey != newScoreKey {
			cells = append(cells, kvstore.Cell{Row: oldScoreKey, Family: fam, Qualifier: old.RowKey,
				Timestamp: ts, Tombstone: true})
		}
		return cells
	})
	if m.BFHM != nil {
		oldKey := kvstore.ReverseMapKey(m.BFHM.Layout.BucketOf(old.Score), bloomBitPos(m.BFHM.MBits, old.JoinValue))
		newKey := kvstore.ReverseMapKey(m.BFHM.Layout.BucketOf(new.Score), bloomBitPos(m.BFHM.MBits, new.JoinValue))
		cells := []kvstore.Cell{{Row: newKey, Family: bfhmFamily, Qualifier: new.RowKey,
			Value: EncodeTuple(new), Timestamp: ts}}
		if oldKey != newKey {
			cells = append(cells, kvstore.Cell{Row: oldKey, Family: bfhmFamily, Qualifier: old.RowKey,
				Timestamp: ts, Tombstone: true})
		}
		// The bucket rows always get a delete record for the old tuple
		// and an insertion record for the new one; same-timestamp replay
		// applies deletions first, so a same-bucket update nets to
		// "replaced".
		cells = append(cells,
			kvstore.Cell{Row: kvstore.BucketKey(m.BFHM.Layout.BucketOf(old.Score)), Family: bfhmFamily,
				Qualifier: mutRecordQual(bfhmDelPfx, old.RowKey, ts), Value: EncodeTuple(old), Timestamp: ts},
			kvstore.Cell{Row: kvstore.BucketKey(m.BFHM.Layout.BucketOf(new.Score)), Family: bfhmFamily,
				Qualifier: mutRecordQual(bfhmInsPfx, new.RowKey, ts), Value: EncodeTuple(new), Timestamp: ts},
		)
		muts = append(muts, indexMutation{index: "bfhm", TableMutation: kvstore.TableMutation{Table: m.BFHM.Table, Cells: cells}})
	}
	if m.DRJN != nil {
		muts = append(muts, indexMutation{index: "drjn", TableMutation: kvstore.TableMutation{
			Table: m.DRJN.Table,
			Cells: []kvstore.Cell{drjnDeleteRecord(m.DRJN, old, ts), drjnInsertRecord(m.DRJN, new, ts)},
		}})
	}
	return muts
}

// InsertTuple writes a new base tuple and its index entries — all
// registered indexes, all stamped with one fresh timestamp, shipped as
// one group write. The row key must be new; inserting over an existing
// key with a different score or join value strands the old index
// entries (use UpdateTuple, which retires them).
func (m *Maintainer) InsertTuple(t Tuple, extraCells ...kvstore.Cell) error {
	if t.RowKey == "" || t.JoinValue == "" {
		return fmt.Errorf("core: insert needs row key and join value")
	}
	return m.InsertTupleAt(t, m.C.Now(), extraCells...)
}

// InsertTupleAt is InsertTuple with a caller-supplied timestamp: re-apply
// a MaintenanceError's batch with its carried Timestamp to converge a
// diverged store idempotently.
func (m *Maintainer) InsertTupleAt(t Tuple, ts int64, extraCells ...kvstore.Cell) error {
	if t.RowKey == "" || t.JoinValue == "" {
		return fmt.Errorf("core: insert needs row key and join value")
	}
	return m.apply(m.insertMutations(t, ts, extraCells), ts)
}

// DeleteTuple removes a base tuple and its index entries. The caller
// supplies the tuple's current join value and score (the paper's
// interception point has them at hand).
func (m *Maintainer) DeleteTuple(t Tuple) error {
	return m.DeleteTupleAt(t, m.C.Now())
}

// DeleteTupleAt is DeleteTuple with a caller-supplied timestamp (see
// InsertTupleAt).
func (m *Maintainer) DeleteTupleAt(t Tuple, ts int64) error {
	return m.apply(m.deleteMutations(t, ts), ts)
}

// UpdateTuple replaces a tuple's join value and/or score in place: the
// old index entries are retired and the new ones written under ONE
// shared timestamp, in one group write. This is the safe form of
// "insert over an existing row key" — a blind re-insert leaves the old
// score's inverse-list entries live, producing phantom results.
func (m *Maintainer) UpdateTuple(old, new Tuple) error {
	if err := validateUpdate(old, new); err != nil {
		return err
	}
	return m.UpdateTupleAt(old, new, m.C.Now())
}

// UpdateTupleAt is UpdateTuple with a caller-supplied timestamp (see
// InsertTupleAt).
func (m *Maintainer) UpdateTupleAt(old, new Tuple, ts int64) error {
	if err := validateUpdate(old, new); err != nil {
		return err
	}
	return m.apply(m.updateMutations(old, new, ts), ts)
}

func validateUpdate(old, new Tuple) error {
	if new.RowKey == "" || new.JoinValue == "" {
		return fmt.Errorf("core: update needs row key and join value")
	}
	if old.RowKey != new.RowKey {
		return fmt.Errorf("core: update must keep the row key (%q != %q)", old.RowKey, new.RowKey)
	}
	return nil
}

// insertBatchChunk bounds how many tuples one InsertBatch group write
// carries.
const insertBatchChunk = 256

// InsertBatch inserts many NEW tuples with full index maintenance,
// batching up to insertBatchChunk tuples' augmented mutations into each
// group write (one write RPC per chunk instead of one per tuple). Like
// InsertTuple it does not retire previous index entries for reused row
// keys. Tuples within a chunk share one timestamp.
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
		if tuples[i].RowKey == "" || tuples[i].JoinValue == "" {
			return fmt.Errorf("core: insert batch tuple %d needs row key and join value", i)
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
			for _, mu := range m.insertMutations(t, ts, nil) {
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

// bfhmInsertCells appends an insertion record to the bucket row and adds
// the reverse mapping (Section 6: "each tuple insertion ... will result
// in an insertion record being added to the bucket row, in addition to an
// entry being added in the corresponding reverse mapping row").
func (m *Maintainer) bfhmInsertCells(t Tuple, ts int64) []kvstore.Cell {
	bucket := m.BFHM.Layout.BucketOf(t.Score)
	bitPos := bloomBitPos(m.BFHM.MBits, t.JoinValue)
	return []kvstore.Cell{
		{Row: kvstore.ReverseMapKey(bucket, bitPos), Family: bfhmFamily, Qualifier: t.RowKey,
			Value: EncodeTuple(t), Timestamp: ts},
		{Row: kvstore.BucketKey(bucket), Family: bfhmFamily, Qualifier: mutRecordQual(bfhmInsPfx, t.RowKey, ts),
			Value: EncodeTuple(t), Timestamp: ts},
	}
}

// bfhmDeleteCells adds a tombstone record to the bucket row and deletes
// the reverse mapping directly (Section 6).
func (m *Maintainer) bfhmDeleteCells(t Tuple, ts int64) []kvstore.Cell {
	bucket := m.BFHM.Layout.BucketOf(t.Score)
	bitPos := bloomBitPos(m.BFHM.MBits, t.JoinValue)
	return []kvstore.Cell{
		{Row: kvstore.ReverseMapKey(bucket, bitPos), Family: bfhmFamily, Qualifier: t.RowKey,
			Timestamp: ts, Tombstone: true},
		{Row: kvstore.BucketKey(bucket), Family: bfhmFamily, Qualifier: mutRecordQual(bfhmDelPfx, t.RowKey, ts),
			Value: EncodeTuple(t), Timestamp: ts},
	}
}

// WriteBackAll runs the offline write-back pass — the "off-line (by a
// thread periodically probing bucket rows for mutation records)" mode of
// Section 6: every dirty BFHM bucket is reconstructed and persisted, and
// every DRJN band carrying delta records is consolidated into a fresh
// blob with its records purged (bounding band-row growth under sustained
// write traffic). It returns how many structures were rewritten.
func (m *Maintainer) WriteBackAll() (int, error) {
	n := 0
	if m.BFHM != nil {
		for b := 0; b < m.BFHM.Layout.Buckets; b++ {
			bucket, err := fetchBFHMBucket(m.C, m.BFHM, b)
			if err != nil {
				return n, err
			}
			if bucket.Dirty {
				if err := writeBackBucket(m.C, m.BFHM, bucket); err != nil {
					return n, err
				}
				n++
			}
		}
	}
	if m.DRJN != nil {
		for b := 0; b < m.DRJN.Layout.Buckets; b++ {
			folded, err := writeBackDRJNBand(m.C, m.DRJN, b)
			if err != nil {
				return n, err
			}
			if folded {
				n++
			}
		}
	}
	return n, nil
}
