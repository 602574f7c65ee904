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
// holding {tuple row key -> join value} entries (Fig. 3). There is one
// index type (ISLIndex), keyed by relation: a relation's list depends
// on neither the edge predicates nor the aggregate nor the other
// leaves, so every tree that names the relation — the paper's two-way
// query included — reads the same table isl_<relation>. listCursor is
// Algorithm 4's coordinator stated for n lists: it scans them in batches
// (HBase scanner caching, ISLBatch rows per RPC), feeds the rank-join
// operator of anyk.go one tuple at a time, and pauses the moment the
// next-ranked result is provably complete.
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

// ISLIndex locates one relation's built inverse score list: the table
// isl_<relation>, whose one column family is named after the relation.
type ISLIndex struct {
	Table string
}

// islEntry is a tuple's entry in relation rel's inverse score list:
// emit(score: rowKey, joinValue), Algorithm 3 line 5, with the
// negated-score key encoding of Section 4.2.2. The build job and the
// maintainer both place it here.
func islEntry(rel string, t *Tuple) kvstore.Cell {
	return kvstore.Cell{Row: kvstore.EncodeScoreDesc(t.Score), Family: rel, Qualifier: t.RowKey, Value: []byte(t.JoinValue)}
}

// BuildISLRelation creates the table isl_<relation> and indexes the
// relation into it (Algorithm 3): a map-only job writing
// {negated-score: rowKey, joinValue} cells.
func BuildISLRelation(c *kvstore.Cluster, rel Relation) (*ISLIndex, *mapreduce.Result, error) {
	idx := &ISLIndex{Table: "isl_" + rel.Name}
	// Score keys are uniform hex; split the key space evenly per node.
	if _, err := c.CreateTable(idx.Table, []string{rel.Name}, scoreKeySplits(c.Nodes())); err != nil {
		return nil, nil, err
	}
	res, err := mapreduce.Run(&mapreduce.Job{
		Name:    "isl-index-" + rel.Name,
		Cluster: c,
		Input:   rel.scan(),
		Mapper: mapreduce.MapperFunc(func(row *kvstore.Row, ctx mapreduce.Context) error {
			t, ok := TupleFromRow(row)
			if !ok {
				ctx.Counter("skipped", 1)
				return nil
			}
			ctx.WriteCell(idx.Table, islEntry(rel.Name, &t))
			ctx.Counter("indexed", 1)
			return nil
		}),
	})
	if err != nil {
		return nil, nil, err
	}
	return idx, res, nil
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
// stopped instead of rescanning from the top of the lists. The isl
// executor opens it on every tree shape.
type listCursor struct {
	op      *anyKOp
	streams []*islStream
	closed  bool
}

// openLists opens the list cursor for t over its leaves' built inverse
// score lists.
func openLists(c *kvstore.Cluster, t *JoinTree, store *IndexStore, opts ExecOptions) (Cursor, error) {
	streams := make([]*islStream, len(t.Relations))
	for i := range t.Relations {
		leaf := &t.Relations[i]
		idx, _ := store.ISL.Get(leaf.Name)
		// With Parallelism >= 2 every stream bills its batches as
		// read-ahead: the shared collector's clock progress since a
		// batch's RPC counts as issued hides that much of its round trip,
		// so the leaves' RPCs overlap (Section 4.2.3's batched scans,
		// pipelined). Each batch is still read only when consumed.
		s, err := newISLStream(c, idx.Table, leaf.Name, opts.ISLBatch, opts.Parallelism >= 2)
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
// cursor) must not pin the leaf arenas and the ready heap. The leaves'
// buffers go back to their pools for the next cursor, emptied of tuples
// first; every result Next returned holds copies, not views into them.
func (lc *listCursor) Close() error {
	lc.closed = true
	if lc.op != nil {
		for _, li := range lc.op.join.leaves {
			li.release()
		}
	}
	lc.op, lc.streams = nil, nil
	return nil
}
