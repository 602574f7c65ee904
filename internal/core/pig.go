package core

import (
	"fmt"

	"repro/internal/bloom"
	"repro/internal/kvstore"
	"repro/internal/mapreduce"
)

// This file implements the Pig baseline (Section 3.1): rank-join as three
// MapReduce jobs with Pig's query-plan optimizations — early projection,
// top-k (STOP AFTER) push-down, and a sampled quantile job to balance the
// ORDER BY partitioner.
//
//	Job 1 computes the join result with early projections.
//	Job 2 samples the join result and computes quantiles for a balanced
//	      range partitioner.
//	Job 3 orders on score: map emits score-keyed records, a combiner
//	      stage produces local top-k lists, and a sole reducer emits the
//	      final top-k (Section 3.1's description, verbatim).

// pigSampleRate is Pig's default ORDER BY sampling probability.
const pigSampleRate = 100 // sample 1 in every pigSampleRate records

// pigTopKMapper is the job-3 mapper: it trims to a local top-k as it
// scans (the combiner effect of Section 3.1) and emits the survivors at
// task end.
type pigTopKMapper struct {
	score *pairScore
	top   *TopKList
}

// Map implements mapreduce.Mapper.
func (m *pigTopKMapper) Map(row *kvstore.Row, ctx mapreduce.Context) error {
	cell := row.Cell(tmpFamily, "p")
	if cell == nil {
		return nil
	}
	pair, err := DecodeJoinResult(cell.Value)
	if err != nil {
		return err
	}
	pair.Score = m.score.of(pair.Left.Score, pair.Right.Score)
	m.top.Add(pair)
	return nil
}

// Finish implements mapreduce.Finisher.
func (m *pigTopKMapper) Finish(ctx mapreduce.Context) error {
	for _, r := range m.top.Results() {
		ctx.Emit("topk", EncodeJoinResult(r))
	}
	return nil
}

// QueryPig runs the Pig baseline.
func QueryPig(c *kvstore.Cluster, t *JoinTree) (*Result, error) {
	if err := requireBinary("pig", t); err != nil {
		return nil, err
	}
	before := c.Metrics().Snapshot()
	tmpJoin := fmt.Sprintf("tmp_pig_join_%s_%d", t.ID(), c.Now())
	defer func() { _ = c.DropTable(tmpJoin) }()

	// Job 1: join with early projection (no padding — Pig strips
	// unrelated columns in the mappers).
	if _, err := joinJob(c, t, "pig-join-"+t.ID(), tmpJoin, 0); err != nil {
		return nil, err
	}

	// Job 2: sample the join result, compute quantiles at the reducer.
	// The quantiles build the balanced partitioner Pig's ORDER BY uses;
	// with the top-k push-down the final job needs only one reducer, but
	// Pig still runs the sampling job as part of its ORDER BY plan.
	if _, err := mapreduce.Run(&mapreduce.Job{
		Name:    "pig-sample-" + t.ID(),
		Cluster: c,
		Input:   kvstore.Scan{Table: tmpJoin},
		// Map tasks run concurrently: one scoring scratch per task.
		MapperFactory: func() mapreduce.Mapper {
			score := t.Score.pair()
			return mapreduce.MapperFunc(func(row *kvstore.Row, ctx mapreduce.Context) error {
				// Deterministic 1-in-N sampling on the row key hash.
				if bloom.Hash64String(row.Key)%pigSampleRate != 0 {
					return nil
				}
				cell := row.Cell(tmpFamily, "p")
				if cell == nil {
					return nil
				}
				pair, err := DecodeJoinResult(cell.Value)
				if err != nil {
					return err
				}
				ctx.Emit("sample", []byte(kvstore.EncodeScoreDesc(score.of(pair.Left.Score, pair.Right.Score))))
				return nil
			})
		},
		Reducer: mapreduce.ReducerFunc(func(key string, values [][]byte, ctx mapreduce.Context) error {
			// Quantile split points for a balanced partitioner.
			n := c.Nodes()
			if len(values) == 0 || n < 2 {
				return nil
			}
			step := len(values) / n
			if step == 0 {
				step = 1
			}
			for i := step; i < len(values); i += step {
				ctx.Emit("quantile", values[i])
			}
			return nil
		}),
		NumReducers: 1,
	}); err != nil {
		return nil, err
	}

	// Job 3: score-ordered top-k — local top-k lists at the mappers, a
	// sole reducer merging them.
	res, err := mapreduce.Run(&mapreduce.Job{
		Name:    "pig-topk-" + t.ID(),
		Cluster: c,
		Input:   kvstore.Scan{Table: tmpJoin},
		MapperFactory: func() mapreduce.Mapper {
			return &pigTopKMapper{score: t.Score.pair(), top: NewTopKList(t.K)}
		},
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
