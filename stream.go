package rankjoin

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/sim"
)

// This file is the one result stream: Rows enumerates a query's results
// in score order without fixing k up front, whichever store opened it,
// and the cursor cache behind page tokens parks a Rows between TopK
// pages so "next k" resumes bounded state instead of re-running the
// query.

// Rows streams the results of one query in descending score order.
// Iterate with Next/Result, check Err afterwards, and Close when done
// (or early — an abandoned stream stops consuming read units at once).
//
//	rows, _ := db.Stream(q, rankjoin.AlgoAuto, nil)
//	defer rows.Close()
//	for rows.Next() {
//	    r := rows.Result()
//	    ...
//	}
//	if rows.Err() != nil { ... }
//
// DB.Stream and Distributed.Stream both return one. Rows is not safe
// for concurrent use. Cost reports what the stream has consumed so far;
// a DB's stream meters a private per-query collector and folds its
// simulated clock into the DB-wide metrics as results are pulled.
type Rows struct {
	src rowSource
	// cursor is what src points at in a DB's stream, held inline so
	// that opening one costs a single allocation.
	cursor cursorSource
	// total is the collector the stream's clock folds into; nil for a
	// Distributed's stream, whose nodes each fold the pages they serve.
	total  *Metrics
	folded time.Duration
	// budget is the bound instance a DB's cursor runs under (nil when
	// it was opened unbounded); each resumed TopK page rebinds it to
	// its own request's context, deadline and read-unit cap.
	budget *core.Budget
	algo   string
	// queryID names the query a parked stream resumes (set on parking).
	queryID string
	// token continues a Distributed's stream: the page token its source
	// pulls the next page with ("" once the last page is in hand).
	token  string
	res    JoinResult
	err    error
	done   bool
	closed bool
}

// rowSource is where a Rows draws its results: a cursor on a metered
// lane (DB) or pages pulled through the failover paging path
// (Distributed).
type rowSource interface {
	// next returns the next result in score order, nil at exhaustion.
	next() (*JoinResult, error)
	// cost reports the resources consumed so far.
	cost() sim.Snapshot
	close() error
}

// cursorSource is an executor's cursor and the per-query lane it bills.
type cursorSource struct {
	cur  core.Cursor
	lane *Metrics
}

func (s *cursorSource) next() (*JoinResult, error) { return s.cur.Next() }
func (s *cursorSource) cost() sim.Snapshot         { return s.lane.Snapshot() }
func (s *cursorSource) close() error               { return s.cur.Close() }

// fold advances the DB-wide clock by the stream's time not yet folded,
// so cumulative metrics stay live while a stream is open. Resource
// counters forward to the parent collector on their own.
func (r *Rows) fold() {
	if r.total == nil {
		return
	}
	if d := r.src.cost().SimTime - r.folded; d > 0 {
		r.total.Advance(d)
		r.folded += d
	}
}

// Next advances to the next result, reporting false at exhaustion or
// error (check Err).
func (r *Rows) Next() bool {
	if r.closed || r.done || r.err != nil {
		return false
	}
	jr, err := r.src.next()
	r.fold()
	if err != nil {
		r.err = err
		return false
	}
	if jr == nil {
		r.done = true
		return false
	}
	r.res = *jr
	return true
}

// drain pulls up to k results. On error the results collected so far
// come back with it, so cancellation can surface them as partials.
func (r *Rows) drain(k int) ([]JoinResult, error) {
	out := make([]JoinResult, 0, k)
	for len(out) < k && r.Next() {
		out = append(out, r.res)
	}
	return out, r.err
}

// Result returns the row Next advanced to.
func (r *Rows) Result() JoinResult { return r.res }

// Algorithm names the executor streaming the results.
func (r *Rows) Algorithm() string { return r.algo }

// Err returns the first error the stream hit, if any.
func (r *Rows) Err() error { return r.err }

// Cost reports the resources this stream has consumed so far.
func (r *Rows) Cost() sim.Snapshot { return r.src.cost() }

// Close releases the stream. Further Next calls return false and no
// further read units accrue. A Distributed's stream leaves any
// node-side cursor to expire from that node's cache.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.fold()
	return r.src.close()
}

// ---- Page-token cursor cache ----

// maxCachedCursors bounds how many parked streams a DB retains; past it
// the least recently issued token expires (its stream closes).
const maxCachedCursors = 64

// errUnknownPageToken marks the one page-token failure a Distributed
// may answer by re-running the query on another node: the cursor is
// gone (evicted, already taken, or lost with a restart). A token that
// names a live cursor of another query or algorithm is the caller's
// mistake and stays an error.
var errUnknownPageToken = errors.New("unknown or expired page token")

// cursorCache maps single-use page tokens to parked streams: an
// lru.Cache bounded at maxCachedCursors entries of size 1. A token is
// never looked up without being taken, so recency is issue order.
// Streams the bound evicts are closed outside the lock.
type cursorCache struct {
	mu      sync.Mutex
	entries *lru.Cache[string, *Rows] // guarded by: mu
	evicted []*Rows                   // evicted by the put in progress, to close; guarded by: mu
	nextID  uint64                    // guarded by: mu
}

func newCursorCache() *cursorCache {
	cc := &cursorCache{}
	cc.entries = lru.New(maxCachedCursors, cc.keepEvictedLocked)
	return cc
}

// keepEvictedLocked keeps a stream the bound dropped for put to close.
func (cc *cursorCache) keepEvictedLocked(_ string, rows *Rows) {
	cc.evicted = append(cc.evicted, rows)
}

// put parks a stream of the named query and returns its (fresh) token,
// evicting the oldest entry past capacity.
func (cc *cursorCache) put(rows *Rows, queryID string) string {
	rows.queryID = queryID
	cc.mu.Lock()
	cc.nextID++
	token := "pt-" + strconv.FormatUint(cc.nextID, 16) + "-" + queryID
	cc.entries.Add(token, rows, 1)
	evicted := cc.evicted
	cc.evicted = nil
	cc.mu.Unlock()
	for _, e := range evicted {
		_ = e.Close()
	}
	return token
}

// drain closes every parked stream and forgets its token.
func (cc *cursorCache) drain() {
	cc.mu.Lock()
	parked := cc.entries
	cc.entries = lru.New(maxCachedCursors, cc.keepEvictedLocked)
	cc.mu.Unlock()
	for _, e := range parked.All() {
		_ = e.Close()
	}
}

// take removes and returns the stream behind a token. Tokens are
// single-use: a second take of the same token fails.
func (cc *cursorCache) take(token string) (*Rows, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	rows, ok := cc.entries.Remove(token)
	if !ok {
		return nil, fmt.Errorf("rankjoin: %w %q", errUnknownPageToken, token)
	}
	return rows, nil
}
