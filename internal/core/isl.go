package core

import (
	"fmt"
	"strings"

	"repro/internal/kvstore"
	"repro/internal/mapreduce"
)

// This file implements the inverse score lists of ISL (Section 4.2)
// and the one cursor that reads them. The index inverts each relation
// on its (negated) score: one index row per distinct score value,
// holding {tuple row key -> join value} entries (Fig. 3), one column
// family per relation. There is one index type (ISLIndex), keyed by
// the tree's leaf set: edge predicates never change the indexed
// content, so every tree over the same leaves and aggregate — the
// paper's two-way query included — shares one table, and the isl and
// anyk executors read the same one. listCursor is Algorithm 4's
// coordinator stated for n lists: it scans them in batches (HBase
// scanner caching, ISLBatch rows per RPC), feeds the rank-join operator
// of anyk.go one tuple at a time, and pauses the moment the next-ranked
// result is provably complete.
//
// Where the cursor departs from Algorithm 4 is which list the next
// tuple comes from. Algorithm 4 alternates, so every list is read to the
// same count; but the HRJN threshold max_i f(min_i, max_-i) only falls
// when the list attaining the max is read, and on a skewed join or a
// band chain every tuple read from a list past its share is a read unit
// that can release nothing. The cursor therefore follows HRJN* (Ilyas,
// Aref and Elmagarmid, "Supporting top-k join queries in relational
// databases"): read the list that bounds the threshold, which for a
// two-way sum reads each list exactly to the score depth the k-th result
// needs. The schedule decides only how deep each list is read: results,
// release rule and tie order do not depend on it.

// ISLIndex locates a built inverse-score-list index: one shared table
// with one column family per relation.
type ISLIndex struct {
	Table    string
	Families []string // one per relation, in leaf order
}

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

// BuildISL creates the index table isl_<LeafID> and indexes every
// relation of the tree (Algorithm 3 per relation).
func BuildISL(c *kvstore.Cluster, t *JoinTree) (*ISLIndex, []*mapreduce.Result, error) {
	v := *t
	if v.K < 1 {
		v.K = 1 // the indexed content does not depend on k
	}
	if err := v.Validate(); err != nil {
		return nil, nil, err
	}
	idx := &ISLIndex{Table: "isl_" + t.LeafID()}
	for i := range t.Relations {
		idx.Families = append(idx.Families, t.Relations[i].Name)
	}
	// Score keys are uniform hex; split the key space evenly per node.
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
// It holds the scanner's current row, which is valid until the next
// scanner.Next, and builds each tuple from views: RowKey is the cell's
// qualifier, a string into the store. JoinValue is the one copy, cut
// from a string built per scanner batch, so the stream allocates per
// batch, not per tuple. The Tuple Next returns is valid until the next
// Next; its strings for as long as they are held.
type islStream struct {
	scanner *kvstore.Scanner
	row     *kvstore.Row
	score   float64
	pos     int // next cell of row
	done    bool
	tuple   Tuple
	// vals holds the join values of the current batch; a new batch
	// starts a new string, sized by the batch before.
	vals strings.Builder
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
	for s.row == nil || s.pos >= len(s.row.Cells) {
		if s.done {
			return nil, nil
		}
		newBatch := s.scanner.Buffered() == 0
		row, err := s.scanner.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			s.row, s.done = nil, true
			return nil, nil
		}
		score, err := kvstore.DecodeScoreDesc(row.Key)
		if err != nil {
			return nil, fmt.Errorf("isl: bad score key %q: %w", row.Key, err)
		}
		if newBatch {
			n := s.vals.Len()
			s.vals.Reset()
			s.vals.Grow(n)
		}
		s.row, s.score, s.pos = row, score, 0
	}
	c := &s.row.Cells[s.pos]
	s.pos++
	from := s.vals.Len()
	s.vals.Write(c.Value)
	s.tuple = Tuple{RowKey: c.Qualifier, JoinValue: s.vals.String()[from:], Score: s.score}
	return &s.tuple, nil
}

// listCursor drives the rank-join operator from per-leaf inverse score
// lists. It feeds one tuple at a time, always from the leaf that bounds
// the threshold (HRJN*'s rule, anyKOp.bounding), and pauses as soon as
// a result is releasable, so pulling k results consumes exactly the
// input prefix they need and pulling k more resumes where the cursor
// stopped instead of rescanning from the top of the lists. Both the isl
// and the anyk executor open it.
type listCursor struct {
	op      *anyKOp
	streams []*islStream
	closed  bool
}

// openLists opens the list cursor for t over its built inverse-score-list
// index.
func openLists(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (Cursor, error) {
	idx, _ := store.ISL.Get(t.LeafID())
	if len(idx.Families) != len(t.Relations) {
		return nil, fmt.Errorf("core: inverse score list index %s has %d families, tree %s has %d leaves",
			idx.Table, len(idx.Families), t.LeafID(), len(t.Relations))
	}
	streams := make([]*islStream, len(idx.Families))
	for i, fam := range idx.Families {
		// With Parallelism >= 2 every stream bills its batches as
		// read-ahead: the shared collector's clock progress since a
		// batch's RPC counts as issued hides that much of its round trip,
		// so the leaves' RPCs overlap (Section 4.2.3's batched scans,
		// pipelined). Each batch is still read only when consumed.
		s, err := newISLStream(c, idx.Table, fam, opts.ISLBatch, opts.Parallelism >= 2)
		if err != nil {
			return nil, err
		}
		streams[i] = s
	}
	return &listCursor{op: newAnyKOp(t), streams: streams}, nil
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
	r := lc.op.pop()
	return &r, nil
}

// pull feeds one tuple, or one exhaustion mark, from the leaf that
// bounds the threshold into the operator. The caller guarantees some
// leaf is not drained.
func (lc *listCursor) pull() error {
	i := lc.op.bounding()
	t, err := lc.streams[i].Next()
	if err != nil {
		return err
	}
	if t == nil {
		lc.op.exhaust(i)
	} else {
		lc.op.push(i, *t)
	}
	return nil
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
