package core

import (
	"fmt"

	"repro/internal/kvstore"
)

// NaiveTopK is the Section 1.1 strawman: compute the full join result,
// then rank and keep k. It scans both relations through the metered
// client, hash-joins them at the coordinator, and sorts. It exists as
// the correctness oracle for every other algorithm and as the upper
// bound on shipped data. It stays a hash join of its own, not the
// two-leaf case of NaiveTreeTopK: that one shares treeJoin with the
// operator it is the oracle for.
func NaiveTopK(c *kvstore.Cluster, t *JoinTree) (*Result, error) {
	if err := requireBinary("naive", t); err != nil {
		return nil, err
	}
	before := c.Metrics().Snapshot()

	left, err := scanRelation(c, &t.Relations[0])
	if err != nil {
		return nil, fmt.Errorf("core: naive scan of %s: %w", t.Relations[0].Table(), err)
	}
	right, err := scanRelation(c, &t.Relations[1])
	if err != nil {
		return nil, fmt.Errorf("core: naive scan of %s: %w", t.Relations[1].Table(), err)
	}

	byJoin := map[string][]Tuple{}
	for _, lt := range left {
		byJoin[lt.JoinValue] = append(byJoin[lt.JoinValue], lt)
	}
	top := NewTopKList(t.K)
	score := t.Score.pair()
	for _, rt := range right {
		for _, lt := range byJoin[rt.JoinValue] {
			top.Add(JoinResult{Left: lt, Right: rt, Score: score.of(lt.Score, rt.Score)})
		}
	}
	return &Result{
		Results: top.Results(),
		Cost:    c.Metrics().Snapshot().Sub(before),
	}, nil
}

// scanBatch is the rows one RPC of a coordinator's full-table scan
// returns (kvstore.Scan.Caching): scanRelation's and readPulled's
// batch, and the batch the estimators price client scans in.
const scanBatch = 1024

// scanRelation drains a relation through the metered scanner, decoding
// each row into a tuple before the next.
func scanRelation(c *kvstore.Cluster, rel *Relation) ([]Tuple, error) {
	scan := rel.scan()
	scan.Caching = scanBatch
	sc, err := c.OpenScanner(scan)
	if err != nil {
		return nil, err
	}
	var out []Tuple
	for {
		row, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		if t, ok := TupleFromRow(row); ok {
			out = append(out, t)
		}
	}
}
