package rankjoin

// Multi-way rank joins (the Section 3 generalization): n relations
// equi-joined on a common attribute, ranked by an n-ary monotonic
// aggregate. This is the star-shaped special case of the general
// JoinTree query model (NewTreeQuery): every relation shares one join
// attribute, which is exactly a tree whose equi-edges all meet at leaf
// 0. NewMultiQuery returns an ordinary Query, so TopK, Stream, Explain,
// EnsureIndexes and page tokens serve it; results carry the third and
// later relations' tuples in JoinResult.Rest. Supported algorithms:
// AlgoNaive, AlgoISL (the coordinator-based HRJN generalization),
// AlgoAnyK, and AlgoAuto.

// NScoreFunc is ScoreFunc: every aggregate is n-ary, and the names
// from when the two-way form had a type of its own remain for callers.
type NScoreFunc = ScoreFunc

// SumN and ProductN are Sum and Product.
var (
	SumN     = Sum
	ProductN = Product
)

// NewMultiQuery builds an n-way equi-join query over previously defined
// relations.
func (db *DB) NewMultiQuery(relations []string, f ScoreFunc, k int) (Query, error) {
	edges := make([]TreeEdge, 0, len(relations))
	for i := 1; i < len(relations); i++ {
		edges = append(edges, TreeEdge{A: 0, B: i, Kind: PredEqui})
	}
	return db.NewTreeQuery(relations, edges, f, k)
}
