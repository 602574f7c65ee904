package core

import (
	"fmt"

	"repro/internal/kvstore"
	"repro/internal/mapreduce"
)

// This file implements IJLMR — Inverse Join List MapReduce rank join
// (Section 4.1). The index is an inverted list keyed by join value: one
// index row per join value, holding {tuple row key -> score} entries in a
// column family per indexed relation (Fig. 2). Because both relations'
// entries for the same join value live in the same row, a single map-only
// pass over the index computes every join pair, and each mapper only
// ships its local top-k list to the lone reducer.

// IJLMRIndex locates a built IJLMR index.
type IJLMRIndex struct {
	// Table is the shared index table ("one big table", Section 4.1.1).
	Table    string
	Families []string // one per relation, left then right
}

// ijlmrEntry is a tuple's entry in family fam of an IJLMR index:
// emit(joinValue: rowKey, score), Algorithm 1 line 5. The build job and
// the maintainer both place it here.
func ijlmrEntry(fam string, t *Tuple) kvstore.Cell {
	return kvstore.Cell{Row: t.JoinValue, Family: fam, Qualifier: t.RowKey, Value: kvstore.FloatValue(t.Score)}
}

// BuildIJLMRRelation indexes one relation into family fam of the index
// table with the map-only job of Algorithm 1. The index table must
// already exist with that family.
func BuildIJLMRRelation(c *kvstore.Cluster, rel Relation, indexTable, fam string) (*mapreduce.Result, error) {
	return mapreduce.Run(&mapreduce.Job{
		Name:    "ijlmr-index-" + rel.Name,
		Cluster: c,
		Input:   rel.scan(),
		Mapper: mapreduce.MapperFunc(func(row *kvstore.Row, ctx mapreduce.Context) error {
			t, ok := TupleFromRow(row)
			if !ok {
				ctx.Counter("skipped", 1)
				return nil
			}
			ctx.WriteCell(indexTable, ijlmrEntry(fam, &t))
			ctx.Counter("indexed", 1)
			return nil
		}),
	})
}

// BuildIJLMR creates the index table (pre-split across nodes) and indexes
// both relations. It returns the index handle and the two build results.
func BuildIJLMR(c *kvstore.Cluster, t *JoinTree) (*IJLMRIndex, []*mapreduce.Result, error) {
	if err := requireBinary("ijlmr", t); err != nil {
		return nil, nil, err
	}
	idx := &IJLMRIndex{
		Table:    "ijlmr_" + t.ID(),
		Families: []string{t.Relations[0].Name, t.Relations[1].Name},
	}
	if _, err := c.CreateTable(idx.Table, idx.Families, hashSplits(c.Nodes())); err != nil {
		return nil, nil, err
	}
	left, err := BuildIJLMRRelation(c, t.Relations[0], idx.Table, idx.Families[0])
	if err != nil {
		return nil, nil, err
	}
	right, err := BuildIJLMRRelation(c, t.Relations[1], idx.Table, idx.Families[1])
	if err != nil {
		return nil, nil, err
	}
	return idx, []*mapreduce.Result{left, right}, nil
}

// hashSplits pre-splits a table whose row keys are arbitrary strings into
// roughly node-count regions using single-character boundaries.
func hashSplits(nodes int) []string {
	if nodes < 2 {
		return nil
	}
	// Printable key space ~ '0'..'z'; carve it evenly.
	const lo, hi = byte('0'), byte('z')
	var out []string
	for i := 1; i < nodes; i++ {
		out = append(out, string([]byte{lo + byte(int(hi-lo)*i/nodes)}))
	}
	return out
}

// ijlmrMapper is the stateful Algorithm 2 mapper: it scans index rows,
// joins the two families' entries per row, and keeps only its local
// top-k, emitted when input is exhausted.
type ijlmrMapper struct {
	idx   *IJLMRIndex
	score *pairScore
	top   *TopKList
}

// Map implements mapreduce.Mapper (Algorithm 2 lines 4-20).
func (m *ijlmrMapper) Map(row *kvstore.Row, ctx mapreduce.Context) error {
	joinValue := row.Key
	var left, right []Tuple
	for i := range row.Cells {
		c := &row.Cells[i]
		score, ok := kvstore.ParseFloatValue(c.Value)
		if !ok {
			return fmt.Errorf("ijlmr: bad score cell %s", c.String())
		}
		t := Tuple{RowKey: c.Qualifier, JoinValue: joinValue, Score: score}
		switch c.Family {
		case m.idx.Families[0]:
			left = append(left, t)
		case m.idx.Families[1]:
			right = append(right, t)
		}
	}
	// Cartesian product of the row's two sides (the join for this
	// join value), trimmed to k as we go.
	for _, lt := range left {
		for _, rt := range right {
			m.top.Add(JoinResult{Left: lt, Right: rt, Score: m.score.of(lt.Score, rt.Score)})
		}
	}
	ctx.Counter("rows_joined", 1)
	return nil
}

// Finish implements mapreduce.Finisher (Algorithm 2 line 21).
func (m *ijlmrMapper) Finish(ctx mapreduce.Context) error {
	for _, r := range m.top.Results() {
		ctx.Emit("topk", EncodeJoinResult(r))
	}
	return nil
}

// QueryIJLMR runs the single-job rank join of Algorithm 2.
func QueryIJLMR(c *kvstore.Cluster, t *JoinTree, idx *IJLMRIndex) (*Result, error) {
	if err := requireBinary("ijlmr", t); err != nil {
		return nil, err
	}
	before := c.Metrics().Snapshot()
	res, err := mapreduce.Run(&mapreduce.Job{
		Name:    "ijlmr-query-" + t.ID(),
		Cluster: c,
		Input:   kvstore.Scan{Table: idx.Table},
		MapperFactory: func() mapreduce.Mapper {
			return &ijlmrMapper{idx: idx, score: t.Score.pair(), top: NewTopKList(t.K)}
		},
		// Algorithm 2 lines 22-28: a single reducer merges the local
		// top-k lists.
		Reducer: mapreduce.ReducerFunc(func(key string, values [][]byte, ctx mapreduce.Context) error {
			top, err := mergeTopK(t.K, values)
			if err != nil {
				return err
			}
			for _, r := range top.Results() {
				ctx.Emit("final", EncodeJoinResult(r))
			}
			return nil
		}),
		NumReducers: 1,
	})
	if err != nil {
		return nil, err
	}
	top := NewTopKList(t.K)
	for _, kv := range res.Output {
		r, err := DecodeJoinResult(kv.Value)
		if err != nil {
			return nil, err
		}
		top.Add(r)
	}
	return &Result{Results: top.Results(), Cost: c.Metrics().Snapshot().Sub(before)}, nil
}
