package core

import (
	"fmt"

	"repro/internal/kvstore"
)

// This file defines the streaming execution layer: every executor
// opens a pull-based Cursor that yields join results one at a time in
// descending score order, without fixing k up front. The executors
// with a sorted-access loop enumerate natively — each Next() does only
// the marginal work the next result needs: isl through the one list
// cursor over inverse score lists (isl.go) feeding the one rank-join
// operator (anyk.go), DRJN through its band walk — while
// batch-shaped algorithms (naive, Hive, Pig, IJLMR, BFHM) are adapted
// through a materializing cursor that re-runs the bounded query at
// doubling depths. The batch TopK path is a thin drain of the same
// cursor, so the two APIs can never disagree on results.

// Cursor is a pull-based stream of join results in descending score
// order (ties broken on row keys, like every batch result list).
//
// Next returns the next result, or (nil, nil) when the join is
// exhausted. Close releases the cursor; a closed cursor performs no
// further store reads, so abandoning a stream early never charges for
// results that were not consumed.
//
// Cursors are not safe for concurrent use. Cost attribution follows the
// cluster view the cursor was opened on: meter a private lane (see
// kvstore.Cluster.WithMetrics) to isolate one stream's spend.
type Cursor interface {
	Next() (*JoinResult, error)
	Close() error
}

// ErrCursorClosed is returned by Next after Close.
var ErrCursorClosed = fmt.Errorf("core: cursor is closed")

// RunCursor executes a bounded top-k as a drain of a streaming cursor:
// open, pull k results, close, and report the metrics delta as the
// query's cost.
func RunCursor(c *kvstore.Cluster, k int, open func() (Cursor, error)) (*Result, error) {
	before := c.Metrics().Snapshot()
	cur, err := open()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	out := make([]JoinResult, 0, k)
	for len(out) < k {
		r, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		out = append(out, *r)
	}
	return &Result{Results: out, Cost: c.Metrics().Snapshot().Sub(before)}, nil
}

// materializedCursor adapts a batch-shaped executor to the Cursor
// interface on the doubling-depth schedule: run the bounded computation
// at an initial depth (the page hint), and when drained past it, re-run
// at doubled depths until a run comes back short (the result set is
// exhausted). Deterministic tie-breaking makes each deeper run a strict
// prefix extension of the previous one, so the emitted stream is
// consistent across re-runs — but every deepening pays the full batch
// cost again, which is exactly the penalty the planner charges
// non-incremental executors for deep pagination.
type materializedCursor struct {
	run     func(k int) (*Result, error)
	results []JoinResult
	pos     int
	depth   int
	hint    int
	done    bool // the last run came back short: nothing deeper exists
	closed  bool
}

// NewMaterializedCursor wraps a bounded batch run (run(k) returns the
// top-k) as a streaming cursor. hint is the initial materialization
// depth (minimum 1).
func NewMaterializedCursor(hint int, run func(k int) (*Result, error)) Cursor {
	if hint < 1 {
		hint = 1
	}
	return &materializedCursor{run: run, hint: hint}
}

// Next implements Cursor.
func (m *materializedCursor) Next() (*JoinResult, error) {
	if m.closed {
		return nil, ErrCursorClosed
	}
	for m.pos >= len(m.results) {
		if m.done {
			return nil, nil
		}
		if m.depth == 0 {
			m.depth = m.hint
		} else {
			m.depth *= 2
		}
		res, err := m.run(m.depth)
		if err != nil {
			return nil, err
		}
		m.results = res.Results
		if len(m.results) < m.depth {
			m.done = true
		}
	}
	r := &m.results[m.pos]
	m.pos++
	return r, nil
}

// Close implements Cursor, dropping the buffered results.
func (m *materializedCursor) Close() error {
	m.closed = true
	m.results = nil
	return nil
}
