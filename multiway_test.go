package rankjoin

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// starEdges joins n leaves by equi edges that all meet at leaf 0: the
// paper's n-way equi-join (Section 3) as a tree.
func starEdges(n int) []TreeEdge {
	var edges []TreeEdge
	for i := 1; i < n; i++ {
		edges = append(edges, TreeEdge{A: 0, B: i, Kind: PredEqui})
	}
	return edges
}

func TestPublicMultiWayJoin(t *testing.T) {
	db := mustOpen(t, Config{})
	rng := rand.New(rand.NewSource(5))
	var data [][]Tuple
	for i := 0; i < 3; i++ {
		var ts []Tuple
		for j := 0; j < 100; j++ {
			ts = append(ts, Tuple{
				RowKey:    fmt.Sprintf("r%d_%03d", i, j),
				JoinValue: fmt.Sprintf("j%d", rng.Intn(12)),
				Score:     float64(rng.Intn(1000)) / 1000,
			})
		}
		data = append(data, ts)
		h, err := db.DefineRelation(fmt.Sprintf("day%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.BulkLoad(ts); err != nil {
			t.Fatal(err)
		}
	}
	q, err := db.NewTreeQuery([]string{"day0", "day1", "day2"}, starEdges(3), Sum, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, AlgoISL); err != nil {
		t.Fatal(err)
	}

	// Reference: brute force over the in-memory data.
	var ref []float64
	for _, a := range data[0] {
		for _, b := range data[1] {
			if b.JoinValue != a.JoinValue {
				continue
			}
			for _, c := range data[2] {
				if c.JoinValue == a.JoinValue {
					ref = append(ref, a.Score+b.Score+c.Score)
				}
			}
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ref)))
	if len(ref) > 8 {
		ref = ref[:8]
	}

	for _, algo := range []Algorithm{AlgoNaive, AlgoISL} {
		res, err := db.TopK(q, algo, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) != len(ref) {
			t.Fatalf("%s: %d results, want %d", algo, len(res.Results), len(ref))
		}
		for i, r := range res.Results {
			if d := r.Score - ref[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("%s: score[%d] = %f, want %f", algo, i, r.Score, ref[i])
			}
			if len(r.Rest) != 1 {
				t.Fatalf("%s: result arity %d", algo, 2+len(r.Rest))
			}
		}
	}

	// Unsupported algorithm errors cleanly.
	if _, err := db.TopK(q, AlgoBFHM, nil); err == nil {
		t.Error("BFHM multi-way accepted (unsupported)")
	}
	// Missing relation errors cleanly.
	if _, err := db.NewTreeQuery([]string{"day0", "nope"}, starEdges(2), Sum, 3); err == nil {
		t.Error("undefined relation accepted")
	}
	// WithK.
	res, err := db.TopK(q.WithK(2), AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("WithK(2) returned %d", len(res.Results))
	}
}
