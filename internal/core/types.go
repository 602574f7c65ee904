// Package core implements the paper's rank-join algorithms over the
// kvstore/mapreduce substrate:
//
//   - Naive / Hive / Pig baselines (Section 3)
//   - IJLMR: Inverse Join List MapReduce rank join (Section 4.1)
//   - ISL: Inverse Score List rank join, an HRJN adaptation (Section 4.2)
//     generalized to any-k ranked enumeration over every acyclic join tree
//   - BFHM: the Bloom Filter Histogram Matrix rank join (Section 5)
//   - DRJN: the 2-D histogram comparator of Doulkeridis et al. (Section 7.1)
//
// plus online index maintenance for all of them (Section 6).
//
// The general query form is an acyclic join tree (JoinTree): n
// relations as leaves, n-1 equi- or band-predicate edges, and an
// n-ary monotonic aggregate f over the leaf scores:
//
//	SELECT * FROM R1, ..., Rn WHERE <tree edges hold>
//	ORDER BY f(R1.score, ..., Rn.score) STOP AFTER k
//
// The paper's binary equi-join (Section 1.1) is the two-leaf tree and
// its n-way generalization the all-equi tree; there is no separate
// two-way query form and one aggregate type (ScoreFunc) serves both.
// Results are returned highest-score first with deterministic tie-breaking on
// row keys in leaf order.
//
// A relation is its name (Relation): its base table rel_<name> holds
// one row per tuple, with the join value and the score as the columns
// d:join and d:score, and AppendBaseRow builds that row for bulk loads
// and maintained writes alike. Each index's entry for a tuple has one
// builder, shared by the index's build job and the Section 6
// maintainer, so a maintained entry is the cell a fresh build writes.
//
// Buffers a query recycles: the list cursor's leaf arena pages, equi
// tables and band grids come from package-level sync.Pools and go back
// when the cursor closes, cleared of tuple strings (a table above
// maxPooledGrid slots or links is dropped instead, since clearing keeps
// its size). So nothing outside a leaf index may point into them: a
// JoinResult copies its tuples out of the arena, and a closed cursor
// keeps no leaf. A pooled buffer is held by one cursor at a time.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/kvstore"
	"repro/internal/sim"
)

// Relation identifies one rank-join input by its name. Every relation
// is stored the same way (Section 3), and the methods and functions
// below are the one place that knows how: its base table rel_<name>
// holds one row per tuple, keyed by the tuple's row key.
type Relation struct {
	// Name tags the relation in its base and index table names
	// ("part", "lineitem").
	Name string
}

// The base row's family and the qualifiers of its two columns.
const (
	dataFamily = "d"
	joinQual   = "join"
	scoreQual  = "score"
)

// Table is the relation's base-data table.
func (r Relation) Table() string { return "rel_" + r.Name }

// CreateTable creates the relation's base table on c, unsplit.
func (r Relation) CreateTable(c *kvstore.Cluster) error {
	_, err := c.CreateTable(r.Table(), []string{dataFamily}, nil)
	return err
}

// Get reads the relation's tuple at rowKey, reporting ok=false when the
// row is absent or lacks a column.
func (r Relation) Get(c *kvstore.Cluster, rowKey string) (Tuple, bool, error) {
	row, err := c.Get(r.Table(), rowKey, dataFamily)
	if err != nil || row == nil {
		return Tuple{}, false, err
	}
	t, ok := TupleFromRow(row)
	return t, ok, nil
}

// scan is a scan of the relation's base rows.
func (r Relation) scan() kvstore.Scan {
	return kvstore.Scan{Table: r.Table(), Families: []string{dataFamily}}
}

// AppendBaseRow appends t's base row to cells: its join and score
// columns, stamped ts (0 lets the store stamp them). Bulk loads and
// maintained writes both build the row here.
func AppendBaseRow(cells []kvstore.Cell, t *Tuple, ts int64) []kvstore.Cell {
	return append(cells,
		kvstore.Cell{Row: t.RowKey, Family: dataFamily, Qualifier: joinQual, Value: []byte(t.JoinValue), Timestamp: ts},
		kvstore.Cell{Row: t.RowKey, Family: dataFamily, Qualifier: scoreQual, Value: kvstore.FloatValue(t.Score), Timestamp: ts})
}

// Tuple is the algorithm-facing view of one base row. The JSON tags
// are its form on the transport seam.
type Tuple struct {
	RowKey    string  `json:"row_key"`
	JoinValue string  `json:"join_value"`
	Score     float64 `json:"score"`
}

// TupleFromRow extracts a Tuple from a base row, reporting ok=false
// when the row lacks the join or score column.
func TupleFromRow(r *kvstore.Row) (Tuple, bool) {
	jc := r.Cell(dataFamily, joinQual)
	sc := r.Cell(dataFamily, scoreQual)
	if jc == nil || sc == nil {
		return Tuple{}, false
	}
	score, ok := kvstore.ParseFloatValue(sc.Value)
	if !ok {
		return Tuple{}, false
	}
	return Tuple{RowKey: r.Key, JoinValue: string(jc.Value), Score: score}, true
}

// JoinResult is one joined result with its aggregate score. Two-way
// joins fill Left and Right only; tree queries over more than two
// leaves carry the third and later leaves' tuples in Rest, in leaf
// order.
type JoinResult struct {
	Left  Tuple   `json:"left"`
	Right Tuple   `json:"right"`
	Rest  []Tuple `json:"rest,omitempty"`
	Score float64 `json:"score"`
}

// less orders results descending by score with deterministic tie-breaks
// on the row keys in leaf order.
func (a *JoinResult) less(b *JoinResult) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Left.RowKey != b.Left.RowKey {
		return a.Left.RowKey < b.Left.RowKey
	}
	if a.Right.RowKey != b.Right.RowKey {
		return a.Right.RowKey < b.Right.RowKey
	}
	for i := 0; i < len(a.Rest) && i < len(b.Rest); i++ {
		if a.Rest[i].RowKey != b.Rest[i].RowKey {
			return a.Rest[i].RowKey < b.Rest[i].RowKey
		}
	}
	return false
}

// ScoreFunc is a named monotonic aggregate over n tuple scores, one per
// leaf in leaf order. It is the only aggregate type: a two-way query's
// aggregate is the same function applied to two scores. Fn must depend
// on its arguments alone: the rank-join operator keeps the values it
// computed until an argument changes.
type ScoreFunc struct {
	Name string
	Fn   func(scores []float64) float64
}

// Sum adds all scores (the paper's Q2: TotalPrice + ExtendedPrice).
var Sum = ScoreFunc{Name: "sum", Fn: func(s []float64) float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}}

// Product multiplies all scores (the paper's Q1: RetailPrice *
// ExtendedPrice). Monotonic for non-negative scores, which the [0,1]
// domain guarantees.
var Product = ScoreFunc{Name: "product", Fn: func(s []float64) float64 {
	t := 1.0
	for _, v := range s {
		t *= v
	}
	return t
}}

// ScoreByName resolves an aggregate's name — the form a query takes
// where a Go function value cannot travel (JSON tree specs, the node
// wire). It is the one place a name maps to an aggregate; callers wrap
// a miss in their own error type.
func ScoreByName(name string) (ScoreFunc, bool) {
	for _, f := range []ScoreFunc{Sum, Product} {
		if f.Name == name {
			return f, true
		}
	}
	return ScoreFunc{}, false
}

// pairScore evaluates an aggregate on two scores through a scratch it
// owns, so the two-way executors' pair loops allocate nothing. It is
// not safe for concurrent use: every query, MapReduce task or other
// goroutine takes its own (ScoreFunc.pair).
type pairScore struct {
	fn func([]float64) float64
	s  [2]float64
}

func (f ScoreFunc) pair() *pairScore { return &pairScore{fn: f.Fn} }

// of returns the aggregate of a and b, in leaf order.
func (p *pairScore) of(a, b float64) float64 {
	p.s[0], p.s[1] = a, b
	return p.fn(p.s[:])
}

// Result is an executed query: the top-k list plus the resources it
// consumed (the paper's three metrics are all in Cost).
type Result struct {
	Results []JoinResult
	// Cost is the metrics delta attributable to this execution.
	Cost sim.Snapshot
	// Algorithm names the executor that produced the result.
	Algorithm string
	// Estimate is the planner's predicted cost when the execution was
	// planned (AlgoAuto); nil for hand-picked algorithms. It has Cost's
	// type, so comparing the two field by field gives the per-query
	// estimated-vs-actual error.
	Estimate *sim.Snapshot
	// PlannerCost is the statistics-gathering overhead the planner
	// spent choosing this execution (already included in Cost).
	PlannerCost sim.Snapshot
	// NextPageToken, when non-empty, resumes this query where it
	// stopped: passing it back (QueryOptions.PageToken at the public
	// layer) continues the underlying cursor instead of re-running, so
	// "next k" pays marginal cost. Empty means the result set is
	// complete.
	NextPageToken string
}

// TopKList maintains the k best join results seen so far, ordered
// descending by score (ties broken on row keys for determinism).
type TopKList struct {
	k    int
	list []JoinResult
}

// NewTopKList returns an empty list with capacity k.
func NewTopKList(k int) *TopKList {
	return &TopKList{k: k}
}

// Add inserts a result, keeping only the top k. It reports whether the
// result made the list.
func (t *TopKList) Add(r JoinResult) bool {
	pos := sort.Search(len(t.list), func(i int) bool { return r.less(&t.list[i]) })
	if pos >= t.k {
		return false
	}
	t.list = append(t.list, JoinResult{})
	copy(t.list[pos+1:], t.list[pos:])
	t.list[pos] = r
	if len(t.list) > t.k {
		t.list = t.list[:t.k]
	}
	return true
}

// Len returns the current size.
func (t *TopKList) Len() int { return len(t.list) }

// Full reports whether k results are held.
func (t *TopKList) Full() bool { return len(t.list) >= t.k }

// KthScore returns the k'th (lowest retained) score, or -Inf while the
// list is not yet full. HRJN-style termination tests compare thresholds
// against this.
func (t *TopKList) KthScore() float64 {
	if !t.Full() {
		return math.Inf(-1)
	}
	return t.list[len(t.list)-1].Score
}

// MinScore returns the lowest score currently held, or -Inf when empty.
func (t *TopKList) MinScore() float64 {
	if len(t.list) == 0 {
		return math.Inf(-1)
	}
	return t.list[len(t.list)-1].Score
}

// Results returns the held results, best first.
func (t *TopKList) Results() []JoinResult {
	return append([]JoinResult(nil), t.list...)
}

// ---- Wire encoding of tuples and join pairs (MR values, temp tables) ----

func putString(buf []byte, s string) []byte {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(s)))
	buf = append(buf, l[:]...)
	return append(buf, s...)
}

func getString(buf []byte) (string, []byte, error) {
	if len(buf) < 4 {
		return "", nil, fmt.Errorf("core: truncated string field")
	}
	n := int(binary.BigEndian.Uint32(buf[:4]))
	if len(buf) < 4+n {
		return "", nil, fmt.Errorf("core: truncated string payload")
	}
	return string(buf[4 : 4+n]), buf[4+n:], nil
}

func putFloat(buf []byte, f float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(f))
	return append(buf, b[:]...)
}

func getFloat(buf []byte) (float64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("core: truncated float field")
	}
	return math.Float64frombits(binary.BigEndian.Uint64(buf[:8])), buf[8:], nil
}

// EncodeTuple serializes a Tuple.
func EncodeTuple(t Tuple) []byte {
	buf := putString(nil, t.RowKey)
	buf = putString(buf, t.JoinValue)
	return putFloat(buf, t.Score)
}

// DecodeTuple reverses EncodeTuple.
func DecodeTuple(b []byte) (Tuple, error) {
	var t Tuple
	var err error
	t.RowKey, b, err = getString(b)
	if err != nil {
		return t, err
	}
	t.JoinValue, b, err = getString(b)
	if err != nil {
		return t, err
	}
	t.Score, _, err = getFloat(b)
	return t, err
}

// EncodeJoinResult serializes a JoinResult. The codec is the MR temp
// value format of the two-way executors, so it carries Left/Right only;
// tree results (Rest) never flow through MapReduce temp tables.
func EncodeJoinResult(r JoinResult) []byte {
	buf := EncodeTuple(r.Left)
	buf = append(buf, EncodeTuple(r.Right)...)
	return putFloat(buf, r.Score)
}

// DecodeJoinResult reverses EncodeJoinResult.
func DecodeJoinResult(b []byte) (JoinResult, error) {
	var r JoinResult
	var err error
	r.Left.RowKey, b, err = getString(b)
	if err != nil {
		return r, err
	}
	r.Left.JoinValue, b, err = getString(b)
	if err != nil {
		return r, err
	}
	r.Left.Score, b, err = getFloat(b)
	if err != nil {
		return r, err
	}
	r.Right.RowKey, b, err = getString(b)
	if err != nil {
		return r, err
	}
	r.Right.JoinValue, b, err = getString(b)
	if err != nil {
		return r, err
	}
	r.Right.Score, b, err = getFloat(b)
	if err != nil {
		return r, err
	}
	r.Score, _, err = getFloat(b)
	return r, err
}

// mergeTopK folds many encoded top-k lists into one TopKList (the single
// reducer of Algorithm 2 and Pig's final stage).
func mergeTopK(k int, values [][]byte) (*TopKList, error) {
	top := NewTopKList(k)
	for _, v := range values {
		r, err := DecodeJoinResult(v)
		if err != nil {
			return nil, err
		}
		top.Add(r)
	}
	return top, nil
}
