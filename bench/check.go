package main

import (
	"fmt"
	"math"
)

// scoreTolerance absorbs float summation order between executors; the
// repo's own agreement checks (benchkit) use the same figure.
const scoreTolerance = 1e-9

// verify is the check every round makes on every op: the op succeeded
// and a read came back with the rows asked for in non-increasing score
// order. The workloads' joins always hold more results than any read
// asks for, so a short read is a wrong read.
func verify(o *op, res *opResult) error {
	if res.err != nil {
		return res.err
	}
	if !o.isRead() {
		return nil
	}
	if len(res.rows) != o.wantRows() {
		return fmt.Errorf("%s %s k=%d: got %d rows, want %d", o.Kind, o.Algo, o.K, len(res.rows), o.wantRows())
	}
	for i := 1; i < len(res.rows); i++ {
		if res.rows[i].Score > res.rows[i-1].Score+scoreTolerance {
			return fmt.Errorf("%s %s k=%d: row %d (score %v) outranks row %d (score %v)",
				o.Kind, o.Algo, o.K, i, res.rows[i].Score, i-1, res.rows[i-1].Score)
		}
	}
	return nil
}

// compareOracle checks a read's rows against the oracle's scores for
// the same state, position by position. Scores and not row keys are
// compared because executors may break ties between equal scores
// differently; a misplaced, missing or stale row still shifts a score.
func compareOracle(got []row, want []float64) error {
	if len(want) < len(got) {
		return fmt.Errorf("got %d rows, oracle has only %d", len(got), len(want))
	}
	for i, r := range got {
		if math.Abs(r.Score-want[i]) > scoreTolerance {
			return fmt.Errorf("row %d has score %v, oracle says %v", i, r.Score, want[i])
		}
	}
	return nil
}

// checker holds the oracle of a check round. Oracle answers are kept
// per query until a write touches one of the query's relations, so a
// read-mostly mix does not pay a full join per read.
type checker struct {
	oracle *dbTarget
	// mirror is set when the oracle is a separate store (the cluster
	// workload): writes are applied to it as well as to the target.
	mirror bool
	// relsOf lists, per query, the relations it reads.
	relsOf [][]string
	// depth is the deepest read in the op list.
	depth int
	memo  map[int][]float64
}

func newChecker(oracle *dbTarget, mirror bool, relsOf [][]string, ops []op) *checker {
	c := &checker{oracle: oracle, mirror: mirror, relsOf: relsOf, memo: map[int][]float64{}}
	for i := range ops {
		if ops[i].isRead() && ops[i].wantRows() > c.depth {
			c.depth = ops[i].wantRows()
		}
	}
	return c
}

// wrote records a write the target has just applied.
func (c *checker) wrote(o *op) error {
	for q, rels := range c.relsOf {
		for _, r := range rels {
			if r == o.Rel {
				delete(c.memo, q)
			}
		}
	}
	if c.mirror {
		return c.oracle.run(o).err
	}
	return nil
}

// check compares one read's rows with the oracle.
func (c *checker) check(o *op, res *opResult) error {
	want, ok := c.memo[o.Query]
	if !ok {
		var err error
		if want, err = c.oracle.oracleScores(o.Query, c.depth); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		c.memo[o.Query] = want
	}
	if err := compareOracle(res.rows, want); err != nil {
		return fmt.Errorf("%s %s k=%d query %d: %w", o.Kind, o.Algo, o.K, o.Query, err)
	}
	return nil
}
