package core

import (
	"fmt"

	"repro/internal/kvstore"
	"repro/internal/mapreduce"
)

// This file implements the inverse score lists of ISL (Section 4.2)
// and the one cursor that reads them. The index inverts each relation
// on its (negated) score: one index row per distinct score value,
// holding {tuple row key -> join value} entries (Fig. 3), one column
// family per relation. The binary index (ISLIndex, built per two-way
// query) and the n-way index (ISLNIndex, shared by every tree over the
// same leaves) differ only in table name. listCursor is Algorithm 4's
// coordinator stated for n lists: it scans them in turn in batches
// (HBase scanner caching), feeds the rank-join operator of anyk.go, and
// pauses the moment the next-ranked result is provably complete. The isl
// and anyk executors both open it.

// ISLIndex locates a built ISL index.
type ISLIndex struct {
	// Table is the shared index table.
	Table string
	// LeftFamily / RightFamily are the per-relation column families.
	LeftFamily  string
	RightFamily string
}

// ISLTableName derives the index table name for a query.
func ISLTableName(q *Query) string { return "isl_" + q.ID() }

// BuildISLRelation indexes one relation (Algorithm 3): a map-only job
// writing {negated-score: rowKey, joinValue} cells.
func BuildISLRelation(c *kvstore.Cluster, rel Relation, indexTable, fam string) (*mapreduce.Result, error) {
	return mapreduce.Run(&mapreduce.Job{
		Name:    "isl-index-" + rel.Name,
		Cluster: c,
		Input:   kvstore.Scan{Table: rel.Table, Families: []string{rel.Family}},
		Mapper: mapreduce.MapperFunc(func(row *kvstore.Row, ctx mapreduce.Context) error {
			t, ok := TupleFromRow(&rel, row)
			if !ok {
				ctx.Counter("skipped", 1)
				return nil
			}
			// emit(score: rowKey, joinValue) — Algorithm 3 line 5,
			// with the negated-score key encoding of Section 4.2.2.
			ctx.WriteCell(indexTable, kvstore.Cell{
				Row:       kvstore.EncodeScoreDesc(t.Score),
				Family:    fam,
				Qualifier: t.RowKey,
				Value:     []byte(t.JoinValue),
			})
			ctx.Counter("indexed", 1)
			return nil
		}),
	})
}

// BuildISL creates the index table and indexes both relations.
func BuildISL(c *kvstore.Cluster, q Query) (*ISLIndex, []*mapreduce.Result, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	idx := &ISLIndex{
		Table:       ISLTableName(&q),
		LeftFamily:  q.Left.Name,
		RightFamily: q.Right.Name,
	}
	// Score keys are uniform hex; split the key space evenly per node.
	if _, err := c.CreateTable(idx.Table, []string{idx.LeftFamily, idx.RightFamily}, scoreKeySplits(c.Nodes())); err != nil {
		return nil, nil, err
	}
	left, err := BuildISLRelation(c, q.Left, idx.Table, idx.LeftFamily)
	if err != nil {
		return nil, nil, err
	}
	right, err := BuildISLRelation(c, q.Right, idx.Table, idx.RightFamily)
	if err != nil {
		return nil, nil, err
	}
	return idx, []*mapreduce.Result{left, right}, nil
}

// ISLNIndex is an n-way ISL index: one column family per relation in a
// shared inverse-score-list table.
type ISLNIndex struct {
	Table    string
	Families []string // one per relation, in leaf order
}

// BuildISLN builds the n-way ISL index over a tree's relations
// (Algorithm 3 per relation).
func BuildISLN(c *kvstore.Cluster, t *JoinTree) (*ISLNIndex, []*mapreduce.Result, error) {
	v := *t
	if v.K < 1 {
		v.K = 1 // the indexed content does not depend on k
	}
	if err := v.Validate(); err != nil {
		return nil, nil, err
	}
	idx := &ISLNIndex{Table: "isln_" + t.LeafID()}
	for i := range t.Relations {
		idx.Families = append(idx.Families, t.Relations[i].Name)
	}
	if _, err := c.CreateTable(idx.Table, idx.Families, scoreKeySplits(c.Nodes())); err != nil {
		return nil, nil, err
	}
	var results []*mapreduce.Result
	for i := range t.Relations {
		res, err := BuildISLRelation(c, t.Relations[i], idx.Table, idx.Families[i])
		if err != nil {
			return nil, nil, err
		}
		results = append(results, res)
	}
	return idx, results, nil
}

// EnsureISLN idempotently builds the shared n-way inverse-score-list
// index for a tree's leaf set: one table keyed by LeafID with one
// column family per relation. Edge predicates never change the indexed
// content, so every tree over the same leaves and aggregate shares one
// physical index (the anyk executor on any shape, the isl executor on
// all-equi trees of three or more leaves).
func EnsureISLN(c *kvstore.Cluster, t *JoinTree, store *IndexStore) error {
	leafID := t.LeafID()
	lock := store.BuildScope("isln/" + leafID)
	lock.Lock()
	defer lock.Unlock()
	if _, ok := store.ISLN(leafID); ok {
		return nil
	}
	idx, _, err := BuildISLN(c, t)
	if err != nil {
		return err
	}
	store.PutISLN(leafID, idx)
	return nil
}

// scoreKeySplits pre-splits the negated-score hex key space. Scores in
// [0,1] negate into a narrow band of the float key space; splitting on
// the first hex digits of that band spreads regions across nodes.
func scoreKeySplits(nodes int) []string {
	if nodes < 2 {
		return nil
	}
	// Keys for scores in (0,1] range from EncodeFloat(-1) to
	// EncodeFloat(0); sample boundary scores to build the splits.
	var out []string
	for i := 1; i < nodes; i++ {
		s := 1 - float64(i)/float64(nodes) // descending score boundaries
		out = append(out, kvstore.EncodeScoreDesc(s))
	}
	return out
}

// islStream is a batched scan over one index family, expanding index
// rows (one per distinct score) into tuples in descending score order.
type islStream struct {
	scanner *kvstore.Scanner
	buf     []Tuple
	pos     int
	done    bool
}

func newISLStream(c *kvstore.Cluster, table, family string, batch int, prefetch bool) (*islStream, error) {
	if batch < 1 {
		batch = 1
	}
	sc, err := c.OpenScanner(kvstore.Scan{
		Table:    table,
		Families: []string{family},
		Caching:  batch,
		Prefetch: prefetch,
	})
	if err != nil {
		return nil, err
	}
	return &islStream{scanner: sc}, nil
}

// Next returns the next tuple, or nil when the list is drained.
func (s *islStream) Next() (*Tuple, error) {
	for s.pos >= len(s.buf) {
		if s.done {
			return nil, nil
		}
		row, err := s.scanner.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			s.done = true
			return nil, nil
		}
		score, err := kvstore.DecodeScoreDesc(row.Key)
		if err != nil {
			return nil, fmt.Errorf("isl: bad score key %q: %w", row.Key, err)
		}
		s.buf = s.buf[:0]
		s.pos = 0
		for i := range row.Cells {
			c := &row.Cells[i]
			s.buf = append(s.buf, Tuple{
				RowKey:    c.Qualifier,
				JoinValue: string(c.Value),
				Score:     score,
			})
		}
	}
	t := &s.buf[s.pos]
	s.pos++
	return t, nil
}

// listCursor drives the rank-join operator from per-leaf inverse score
// lists on Algorithm 4's schedule generalized to n leaves: consume
// batch tuples from the current leaf, then move to the next, skipping
// drained leaves. It feeds one tuple at a time and pauses as soon as a
// result is releasable, so pulling k results consumes exactly the input
// prefix they need and pulling k more resumes where the cursor stopped
// instead of rescanning from the top of the lists.
type listCursor struct {
	op      *anyKOp
	streams []*islStream
	batch   int
	leaf    int // the leaf being consumed (Algorithm 4's CurrentRelation)
	taken   int // tuples consumed from its current batch
	// releaseEndsBatch makes a released result also end the current
	// leaf's batch, so the next pull starts on the next leaf; without
	// it a release keeps the cursor's place in the batch, as
	// Algorithm 4 does. It is the one difference between the anyk
	// executor (set) and the isl executor (unset).
	releaseEndsBatch bool
	closed           bool
}

// openLists opens the list cursor for t over one inverse-score-list
// table holding a family per leaf, in leaf order. opts must already
// carry its defaults.
func openLists(c *kvstore.Cluster, t *JoinTree, table string, families []string, opts ExecOptions, releaseEndsBatch bool) (Cursor, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if len(families) != len(t.Relations) {
		return nil, fmt.Errorf("core: inverse score list index %s has %d families, tree %s has %d leaves",
			table, len(families), t.LeafID(), len(t.Relations))
	}
	streams := make([]*islStream, len(families))
	for i, fam := range families {
		// With Parallelism >= 2 every stream reads ahead asynchronously;
		// the shared collector's clock-progress accounting overlaps the
		// leaves' RPCs (Section 4.2.3's batched scans, pipelined).
		s, err := newISLStream(c, table, fam, opts.ISLBatch, opts.Parallelism >= 2)
		if err != nil {
			return nil, err
		}
		streams[i] = s
	}
	cur := &listCursor{op: newAnyKOp(t), streams: streams, batch: opts.ISLBatch, releaseEndsBatch: releaseEndsBatch}
	return WrapBudget(cur, opts.Budget), nil
}

// Next implements Cursor.
func (lc *listCursor) Next() (*JoinResult, error) {
	if lc.closed {
		return nil, ErrCursorClosed
	}
	for !lc.op.releasable() {
		if lc.op.allDone() {
			return nil, nil
		}
		if err := lc.pull(); err != nil {
			return nil, err
		}
	}
	if lc.releaseEndsBatch && lc.taken > 0 {
		lc.nextLeaf()
	}
	r := lc.op.pop()
	return &r, nil
}

// pull feeds one tuple, or one exhaustion mark, from the current leaf
// into the operator. The caller guarantees some leaf is not drained.
func (lc *listCursor) pull() error {
	for lc.op.done[lc.leaf] {
		lc.nextLeaf()
	}
	t, err := lc.streams[lc.leaf].Next()
	if err != nil {
		return err
	}
	if t == nil {
		lc.op.exhaust(lc.leaf)
		lc.nextLeaf()
		return nil
	}
	lc.op.push(lc.leaf, *t)
	if lc.taken++; lc.taken >= lc.batch {
		lc.nextLeaf()
	}
	return nil
}

// nextLeaf ends the current leaf's batch.
func (lc *listCursor) nextLeaf() {
	lc.leaf = (lc.leaf + 1) % len(lc.streams)
	lc.taken = 0
}

// Close implements Cursor. An early close abandons the scanners, so no
// further read units accrue, and drops the operator: a closed cursor
// someone still references (a Rows kept for its Cost, an evicted page
// cursor) must not pin the leaf arenas and the ready heap.
func (lc *listCursor) Close() error {
	lc.closed = true
	lc.op, lc.streams = nil, nil
	return nil
}
