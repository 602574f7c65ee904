package core

import (
	"fmt"

	"repro/internal/kvstore"
	"repro/internal/mapreduce"
)

// This file implements the Hive baseline (Section 3.1): rank-join as two
// MapReduce jobs plus a final fetch stage.
//
//	Job 1 computes and materializes the full join result set.
//	Job 2 computes each join tuple's score and stores the set sorted on
//	      score (a single reducer gives the total order Hive's ORDER BY
//	      produces).
//	Stage 3 (non-MapReduce) fetches the k highest-ranked rows.
//
// Hive performs no early projection or top-k push-down, so the full join
// result — with the untrimmed row payloads — crosses the shuffle twice.

const (
	hiveTagLeft  = 'L'
	hiveTagRight = 'R'
	tmpFamily    = "t"
	// hivePadding models the unprojected SELECT * row payload Hive
	// drags through its pipeline (the paper's Section 1: "rows now
	// contain typically lots of data useless to most queries"; two
	// unprojected TPC-H rows are on the order of a kilobyte).
	hivePadding = 1024
)

// tagTuple prefixes an encoded tuple with its relation tag.
func tagTuple(tag byte, t Tuple) []byte {
	return append([]byte{tag}, EncodeTuple(t)...)
}

// splitTagged decodes a tagged tuple.
func splitTagged(v []byte) (byte, Tuple, error) {
	if len(v) < 1 {
		return 0, Tuple{}, fmt.Errorf("core: empty tagged tuple")
	}
	t, err := DecodeTuple(v[1:])
	return v[0], t, err
}

// joinJob runs the repartition-join job shared by Hive and Pig: both
// relations map into a shuffle keyed by join value; reducers emit the
// cartesian product per join value into tmpTable. pad appends filler
// bytes to every materialized pair (Hive's missing projection).
func joinJob(c *kvstore.Cluster, t *JoinTree, name, tmpTable string, pad int) (*mapreduce.Result, error) {
	if _, err := c.CreateTable(tmpTable, []string{tmpFamily}, hashSplits(c.Nodes())); err != nil {
		return nil, err
	}
	mkMapper := func(tag byte) mapreduce.Mapper {
		return mapreduce.MapperFunc(func(row *kvstore.Row, ctx mapreduce.Context) error {
			tp, ok := TupleFromRow(row)
			if !ok {
				return nil
			}
			ctx.Emit(tp.JoinValue, tagTuple(tag, tp))
			return nil
		})
	}
	return mapreduce.Run(&mapreduce.Job{
		Name:    name,
		Cluster: c,
		Inputs: []mapreduce.TableInput{
			{Scan: t.Relations[0].scan(), Mapper: mkMapper(hiveTagLeft)},
			{Scan: t.Relations[1].scan(), Mapper: mkMapper(hiveTagRight)},
		},
		Reducer: mapreduce.ReducerFunc(func(key string, values [][]byte, ctx mapreduce.Context) error {
			var left, right []Tuple
			for _, v := range values {
				tag, tp, err := splitTagged(v)
				if err != nil {
					return err
				}
				if tag == hiveTagLeft {
					left = append(left, tp)
				} else {
					right = append(right, tp)
				}
			}
			for _, lt := range left {
				for _, rt := range right {
					pair := JoinResult{Left: lt, Right: rt} // score filled by job 2
					val := EncodeJoinResult(pair)
					if pad > 0 {
						val = append(val, make([]byte, pad)...)
					}
					ctx.WriteCell(tmpTable, kvstore.Cell{
						Row:       fmt.Sprintf("%s%c%s", lt.RowKey, '+', rt.RowKey),
						Family:    tmpFamily,
						Qualifier: "p",
						Value:     val,
					})
					ctx.Counter("join_results", 1)
				}
			}
			return nil
		}),
		NumReducers: c.Nodes(),
	})
}

// QueryHive runs the Hive baseline.
func QueryHive(c *kvstore.Cluster, t *JoinTree) (*Result, error) {
	if err := requireBinary("hive", t); err != nil {
		return nil, err
	}
	before := c.Metrics().Snapshot()
	uniq := c.Now()
	tmpJoin := fmt.Sprintf("tmp_hive_join_%s_%d", t.ID(), uniq)
	tmpSorted := fmt.Sprintf("tmp_hive_sorted_%s_%d", t.ID(), uniq)
	defer func() {
		_ = c.DropTable(tmpJoin)
		_ = c.DropTable(tmpSorted)
	}()

	// Job 1: materialize the join result.
	if _, err := joinJob(c, t, "hive-join-"+t.ID(), tmpJoin, hivePadding); err != nil {
		return nil, err
	}

	// Job 2: score and totally order the join result (single reducer).
	if _, err := c.CreateTable(tmpSorted, []string{tmpFamily}, nil); err != nil {
		return nil, err
	}
	if _, err := mapreduce.Run(&mapreduce.Job{
		Name:    "hive-sort-" + t.ID(),
		Cluster: c,
		Input:   kvstore.Scan{Table: tmpJoin},
		// Map tasks run concurrently: one scoring scratch per task.
		MapperFactory: func() mapreduce.Mapper {
			score := t.Score.pair()
			return mapreduce.MapperFunc(func(row *kvstore.Row, ctx mapreduce.Context) error {
				cell := row.Cell(tmpFamily, "p")
				if cell == nil {
					return nil
				}
				// The decoder ignores the trailing SELECT * padding.
				pair, err := DecodeJoinResult(cell.Value)
				if err != nil {
					return err
				}
				pair.Score = score.of(pair.Left.Score, pair.Right.Score)
				// Hive's ORDER BY drags the full unprojected rows through
				// the shuffle too.
				val := append(EncodeJoinResult(pair), make([]byte, hivePadding)...)
				ctx.Emit(kvstore.EncodeScoreDesc(pair.Score)+"|"+row.Key, val)
				return nil
			})
		},
		Reducer: mapreduce.ReducerFunc(func(key string, values [][]byte, ctx mapreduce.Context) error {
			for i, v := range values {
				ctx.WriteCell(tmpSorted, kvstore.Cell{
					Row:       fmt.Sprintf("%s#%d", key, i),
					Family:    tmpFamily,
					Qualifier: "p",
					Value:     v,
				})
			}
			return nil
		}),
		NumReducers: 1,
	}); err != nil {
		return nil, err
	}

	// Stage 3: fetch the k best rows from the sorted table.
	top := NewTopKList(t.K)
	sc, err := c.OpenScanner(kvstore.Scan{Table: tmpSorted, Caching: t.K})
	if err != nil {
		return nil, err
	}
	for n := 0; n < t.K; n++ {
		row, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		cell := row.Cell(tmpFamily, "p")
		if cell == nil {
			continue
		}
		pair, err := DecodeJoinResult(cell.Value)
		if err != nil {
			return nil, err
		}
		top.Add(pair)
	}
	return &Result{Results: top.Results(), Cost: c.Metrics().Snapshot().Sub(before)}, nil
}
