package rankjoin

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestExecutorForOneRowPerName: every name Algorithms() lists, and
// AlgoNaive, resolves to its own row of the executor table, and every
// row is reached by exactly one of them, so a duplicate row cannot come
// back unnoticed. AlgoAnyK is the one name that shares a row, AlgoISL's;
// AlgoAuto and unknown names are refused.
func TestExecutorForOneRowPerName(t *testing.T) {
	byRow := map[*core.Executor]Algorithm{}
	for _, algo := range append(Algorithms(), AlgoNaive) {
		ex, err := executorFor(algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if prev, dup := byRow[ex]; dup {
			t.Errorf("%s and %s resolve to the same row %s", prev, algo, ex.Name())
		}
		byRow[ex] = algo
		if ex.Name() != string(algo) {
			t.Errorf("%s resolves to the row named %s", algo, ex.Name())
		}
	}
	for _, ex := range core.Executors() {
		if _, ok := byRow[ex]; !ok {
			t.Errorf("row %s is reached by no public name", ex.Name())
		}
	}
	anyk, err := executorFor(AlgoAnyK)
	if err != nil {
		t.Fatal(err)
	}
	if isl, _ := executorFor(AlgoISL); anyk != isl {
		t.Errorf("AlgoAnyK resolves to %s, want the isl row", anyk.Name())
	}
	for _, algo := range []Algorithm{AlgoAuto, "quantum"} {
		if ex, err := executorFor(algo); err == nil {
			t.Errorf("%q resolves to %s, want an error", algo, ex.Name())
		}
	}
}

// aliasBackend is one deployment under test: its queries over the
// relations c0, c1 and c2, and its TopK.
type aliasBackend struct {
	name  string
	chain Query
	pair  Query // c0 = c1, the shape bfhm takes
	topk  func(Query, Algorithm, *QueryOptions) (*Result, error)
}

// aliasBackends loads three relations with numeric join values into a
// DB and a three-node loopback cluster and builds the isl and bfhm
// indexes for a band chain and an equi pair over them on both.
func aliasBackends(t *testing.T) (*Distributed, []aliasBackend) {
	t.Helper()
	names := []string{"c0", "c1", "c2"}
	data := make([][]Tuple, len(names))
	for r := range names {
		for i := 0; i < 40; i++ {
			data[r] = append(data[r], Tuple{
				RowKey:    fmt.Sprintf("%s_%02d", names[r], i),
				JoinValue: fmt.Sprint((i * (r + 3)) % 9),
				Score:     float64((i*37+r*11)%100) / 100,
			})
		}
	}
	band := []TreeEdge{{A: 0, B: 1, Kind: PredBand, Band: 1}, {A: 1, B: 2, Kind: PredBand, Band: 1}}
	queries := func(tree func([]string, []TreeEdge, ScoreFunc, int) (Query, error),
		ensure func(Query, ...Algorithm) error) (Query, Query) {
		chain, err := tree(names, band, Sum, 4)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := tree(names[:2], []TreeEdge{{A: 0, B: 1, Kind: PredEqui}}, Sum, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := ensure(chain, AlgoISL); err != nil {
			t.Fatal(err)
		}
		if err := ensure(pair, AlgoISL, AlgoBFHM); err != nil {
			t.Fatal(err)
		}
		return chain, pair
	}

	db := mustOpen(t, Config{})
	d := openLoopbackCluster(t, 3)
	for r, name := range names {
		h, err := db.DefineRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.BulkLoad(data[r]); err != nil {
			t.Fatal(err)
		}
		dh, err := d.DefineRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := dh.BatchInsert(data[r]); err != nil {
			t.Fatal(err)
		}
	}
	chain, pair := queries(db.NewTreeQuery, db.EnsureIndexes)
	dchain, dpair := queries(d.NewTreeQuery, d.EnsureIndexes)
	return d, []aliasBackend{
		{"db", chain, pair, db.TopK},
		{"distributed", dchain, dpair, d.TopK},
	}
}

// TestPageTokensCrossTheAnyKAlias: AlgoAnyK and AlgoISL name one
// executor, so a page token either produced resumes under the other,
// on a DB and on a cluster, and a stream requested as AlgoAnyK pages
// through its node-side cursor. A token of another executor is still
// refused.
func TestPageTokensCrossTheAnyKAlias(t *testing.T) {
	const page = 4
	d, backends := aliasBackends(t)
	for _, b := range backends {
		want, err := b.topk(b.chain.WithK(3*page), AlgoNaive, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Results) != 3*page {
			t.Fatalf("%s: naive found %d results, want %d", b.name, len(want.Results), 3*page)
		}
		for _, order := range [][2]Algorithm{{AlgoAnyK, AlgoISL}, {AlgoISL, AlgoAnyK}} {
			label := fmt.Sprintf("%s: %s then %s", b.name, order[0], order[1])
			p1, err := b.topk(b.chain.WithK(page), order[0], nil)
			if err != nil {
				t.Fatalf("%s: page 1: %v", label, err)
			}
			if p1.Algorithm != "isl" || p1.NextPageToken == "" {
				t.Fatalf("%s: page 1 ran %q, token %q; want isl and a token", label, p1.Algorithm, p1.NextPageToken)
			}
			p2, err := b.topk(b.chain.WithK(page), order[1], &QueryOptions{PageToken: p1.NextPageToken})
			if err != nil {
				t.Fatalf("%s: page 2: %v", label, err)
			}
			assertSameResults(t, label, append(p1.Results, p2.Results...), want.Results[:2*page])
		}
		for _, order := range [][2]Algorithm{{AlgoBFHM, AlgoISL}, {AlgoISL, AlgoBFHM}} {
			label := fmt.Sprintf("%s: %s then %s", b.name, order[0], order[1])
			p1, err := b.topk(b.pair, order[0], nil)
			if err != nil {
				t.Fatalf("%s: page 1: %v", label, err)
			}
			if p1.NextPageToken == "" {
				t.Fatalf("%s: full page 1 carries no token", label)
			}
			_, err = b.topk(b.pair, order[1], &QueryOptions{PageToken: p1.NextPageToken})
			msg := fmt.Sprintf("page token was produced by %s, not %s", order[0], order[1])
			if err == nil || !strings.Contains(err.Error(), msg) {
				t.Errorf("%s: err = %v, want %q", label, err, msg)
			}
		}
	}

	dchain := backends[1].chain
	want, err := d.TopK(dchain.WithK(3*page), AlgoNaive, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := d.Stream(dchain.WithK(page), AlgoAnyK, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	got, err := rows.drain(2*page + 1) // past two page boundaries
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "distributed stream", got, want.Results[:2*page+1])
	if rows.Algorithm() != "isl" {
		t.Errorf("stream Algorithm() = %q, want isl", rows.Algorithm())
	}
}
