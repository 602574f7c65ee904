package rankjoin

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/kvstore"
)

// This file is the public surface of the general query model: acyclic
// join trees. A tree query names n relations (the leaves) and n-1 join
// predicates (the edges), each either an equi-predicate on the join
// attributes or a band predicate |a-b| <= width over numeric join
// values, ranked by a monotonic aggregate over all leaf scores. The
// two-way query (NewQuery) is the trivial tree shape, built by the same
// constructor; NewTreeQuery admits stars (the paper's n-way equi-join:
// edges {0,i}), chains and general acyclic shapes, and the AlgoISL
// executor enumerates any of them in score order without fixing k up
// front.

// Tree-edge re-exports.
type (
	// TreeEdge is one join predicate between two leaves of a tree query.
	TreeEdge = core.TreeEdge
	// PredKind discriminates edge predicates ("equi" or "band").
	PredKind = core.PredKind
	// ShapeError reports a structurally invalid join tree (cyclic,
	// disconnected, out-of-range edge endpoints, ...).
	ShapeError = core.ShapeError
)

// Edge predicate kinds.
const (
	// PredEqui joins two leaves on equal join values.
	PredEqui = core.PredEqui
	// PredBand joins two leaves whose numeric join values differ by at
	// most TreeEdge.Band.
	PredBand = core.PredBand
)

// ---- JSON tree-query shape (the HTTP server's wire form) ----

// TreeEdgeSpec is the JSON form of one tree edge.
type TreeEdgeSpec struct {
	// A and B index the tree's relation list.
	A int `json:"a"`
	B int `json:"b"`
	// Kind is "equi" (default when empty) or "band".
	Kind string `json:"kind,omitempty"`
	// Band is the band width for kind "band".
	Band float64 `json:"band,omitempty"`
}

// TreeSpec is the JSON form of a tree query.
type TreeSpec struct {
	// Relations lists the tree's leaves by defined relation name.
	Relations []string `json:"relations"`
	// Edges lists the n-1 join predicates. Empty with exactly two
	// relations means the single equi-edge {0,1} (the two-way shape).
	Edges []TreeEdgeSpec `json:"edges,omitempty"`
	// Score names the aggregate: "sum" or "product".
	Score string `json:"score"`
	// K is the result target.
	K int `json:"k"`
}

// query builds the spec's query over the relations defined accepts:
// an empty edge list on two relations is the single equi-edge, an
// empty aggregate name is sum, k = 0 is 10.
func (s *TreeSpec) query(defined func(name string) bool) (Query, error) {
	edges := binaryEdges
	if len(s.Edges) > 0 || len(s.Relations) != 2 {
		edges = make([]TreeEdge, 0, len(s.Edges))
		for i, e := range s.Edges {
			var kind PredKind
			switch e.Kind {
			case "", string(PredEqui):
				kind = PredEqui
			case string(PredBand):
				kind = PredBand
			default:
				return Query{}, fmt.Errorf("rankjoin: tree edge %d has unknown kind %q (want %q or %q)",
					i, e.Kind, PredEqui, PredBand)
			}
			edges = append(edges, TreeEdge{A: e.A, B: e.B, Kind: kind, Band: e.Band})
		}
	}
	name := s.Score
	if name == "" {
		name = Sum.Name
	}
	f, ok := core.ScoreByName(name)
	if !ok {
		return Query{}, fmt.Errorf("rankjoin: unknown score aggregate %q (want sum or product)", name)
	}
	k := s.K
	if k == 0 {
		k = 10
	}
	return newQuery(s.Relations, edges, f, k, defined)
}

// ParseTreeSpec decodes and structurally validates a JSON tree spec
// without needing a DB: relation names are checked for validity and
// uniqueness only (definedness is the DB's concern), edges for shape.
// It never panics on hostile input; malformed specs return typed
// errors (*ShapeError for structural problems).
func ParseTreeSpec(data []byte) (*TreeSpec, error) {
	var spec TreeSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("rankjoin: bad tree query JSON: %w", err)
	}
	if len(spec.Relations) < 2 {
		return nil, core.NewShapeError(fmt.Sprintf("tree query needs >= 2 relations, got %d", len(spec.Relations)))
	}
	seen := map[string]bool{}
	for _, name := range spec.Relations {
		if name == "" {
			return nil, core.NewShapeError("tree query has an empty relation name")
		}
		if err := kvstore.ValidateKeyComponent(name); err != nil {
			return nil, core.NewShapeError(fmt.Sprintf("bad relation name: %v", err))
		}
		if seen[name] {
			return nil, core.NewShapeError(fmt.Sprintf("relation %q listed twice", name))
		}
		seen[name] = true
	}
	q, err := spec.query(func(string) bool { return true })
	if err != nil {
		return nil, err
	}
	spec.K = q.K()
	return &spec, nil
}
