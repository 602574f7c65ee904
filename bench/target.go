package main

import (
	"fmt"
	"time"

	rankjoin "repro"
	"repro/internal/sim"
)

// parallelism is QueryOptions.Parallelism for every read: the sandbox
// has two cores and the load generator must not out-thread them.
const parallelism = 2

// row is one returned join result, reduced to what the checks compare.
type row struct {
	Keys  []string
	Score float64
}

// opResult is what one executed op reports back to the harness.
type opResult struct {
	rows []row
	// cost is the simulated cost the program charged the op (reads).
	cost sim.Snapshot
	// first is the time from opening a stream to its first row.
	first time.Duration
	// algo is the executor that ran a read (what auto chose).
	algo string
	err  error
}

// target is a system under test as one closed-loop client sees it.
type target interface {
	run(o *op) opResult
}

// dbTarget drives a rankjoin.DB by direct calls: the in-process
// workloads' system under test, and every workload's oracle.
type dbTarget struct {
	db      *rankjoin.DB
	queries []rankjoin.Query
	rels    map[string]*rankjoin.RelationHandle
	opts    rankjoin.QueryOptions
}

func newDBTarget(db *rankjoin.DB, queries []rankjoin.Query) *dbTarget {
	t := &dbTarget{
		db:      db,
		queries: queries,
		rels:    map[string]*rankjoin.RelationHandle{},
		opts:    rankjoin.QueryOptions{Parallelism: parallelism},
	}
	for _, name := range db.RelationNames() {
		t.rels[name] = db.Relation(name)
	}
	return t
}

func rowOf(r rankjoin.JoinResult) row {
	keys := []string{r.Left.RowKey, r.Right.RowKey}
	for _, t := range r.Rest {
		keys = append(keys, t.RowKey)
	}
	return row{Keys: keys, Score: r.Score}
}

func rowsOf(rs []rankjoin.JoinResult) []row {
	out := make([]row, 0, len(rs))
	for _, r := range rs {
		out = append(out, rowOf(r))
	}
	return out
}

func (t *dbTarget) run(o *op) opResult {
	if o.isRead() {
		return t.read(o)
	}
	h := t.rels[o.Rel]
	if h == nil {
		return opResult{err: fmt.Errorf("bench: relation %q not loaded", o.Rel)}
	}
	var err error
	switch o.Kind {
	case opInsert:
		err = h.Insert(o.Key, o.Join, o.Score)
	case opUpdate:
		err = h.Update(o.Key, o.Join, o.Score)
	case opDelete:
		err = h.DeleteKey(o.Key)
	case opBatch:
		err = h.BatchInsert(o.Batch)
	}
	return opResult{err: err}
}

func (t *dbTarget) read(o *op) (res opResult) {
	q := t.queries[o.Query].WithK(o.K)
	algo := rankjoin.Algorithm(o.Algo)
	switch o.Kind {
	case opTopK, opPage:
		opts := t.opts
		for page := 0; page <= o.Pages; page++ {
			r, err := t.db.TopK(q, algo, &opts)
			if err != nil {
				res.err = err
				return res
			}
			res.rows = append(res.rows, rowsOf(r.Results)...)
			res.cost = res.cost.Add(r.Cost)
			res.algo = r.Algorithm
			if opts.PageToken = r.NextPageToken; opts.PageToken == "" {
				break
			}
		}
	case opStream:
		start := time.Now()
		rows, err := t.db.Stream(q, algo, &t.opts)
		if err != nil {
			res.err = err
			return res
		}
		for len(res.rows) < o.K && rows.Next() {
			if len(res.rows) == 0 {
				res.first = time.Since(start)
			}
			res.rows = append(res.rows, rowOf(rows.Result()))
		}
		res.err = rows.Err()
		res.cost = rows.Cost()
		res.algo = rows.Algorithm()
		if cerr := rows.Close(); res.err == nil {
			res.err = cerr
		}
	}
	return res
}

// oracleScores is the reference answer for a read: the naive executor
// (a full join, no index) on the same state, to the depth the read
// was asked for.
func (t *dbTarget) oracleScores(query, depth int) ([]float64, error) {
	r, err := t.db.TopK(t.queries[query].WithK(depth), rankjoin.AlgoNaive, &t.opts)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(r.Results))
	for i, jr := range r.Results {
		out[i] = jr.Score
	}
	return out, nil
}
