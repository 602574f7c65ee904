package plan

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// goldenPath pins every number Explain reports on a seeded fixture. A PR
// that moves a number updates the file and says which rows moved and
// why; delete the file and run the test twice to regenerate it.
const goldenPath = "testdata/explain.golden"

// goldenRelation loads n seeded rows into a fresh relation. Join values
// are small integers, so the same relations serve equi and band edges.
func goldenRelation(t *testing.T, c *kvstore.Cluster, name string, n int, rng *rand.Rand) core.Relation {
	t.Helper()
	rel := core.Relation{Name: name}
	if err := rel.CreateTable(c); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		return rel
	}
	cells := make([]kvstore.Cell, 0, 2*n)
	for i := 0; i < n; i++ {
		// The join value draws before the score, as the fixture always has.
		cells = core.AppendBaseRow(cells, &core.Tuple{RowKey: fmt.Sprintf("%s%04d", name, i),
			JoinValue: strconv.Itoa(rng.Intn(37)), Score: float64(rng.Intn(1000)) / 1000}, 0)
	}
	if err := c.BatchPut(rel.Table(), cells); err != nil {
		t.Fatal(err)
	}
	return rel
}

// goldenCase is one query on one index state.
type goldenCase struct {
	name  string
	c     *kvstore.Cluster
	tree  *core.JoinTree
	store *core.IndexStore
}

// goldenCases builds the fixture: a two-leaf equi query under each
// statistics source (a cluster per source, so each store builds only
// its own indexes), a 3-leaf star, a 3-leaf band chain and a two-leaf
// query over an empty leaf.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, src := range []struct {
		name  string
		execs []string
	}{
		{"uniform", []string{"isl"}},
		{"drjn", []string{"drjn", "bfhm", "isl", "ijlmr"}},
		{"bfhm", []string{"bfhm", "isl"}},
	} {
		c, err := kvstore.NewCluster(sim.LC())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		ga := goldenRelation(t, c, "ga", 600, rng)
		gb := goldenRelation(t, c, "gb", 400, rng)
		pair := &core.JoinTree{
			Relations: []core.Relation{ga, gb},
			Edges:     []core.TreeEdge{{A: 0, B: 1, Kind: core.PredEqui}},
			Score:     core.Sum,
			K:         10,
		}
		store := core.NewIndexStore()
		for _, name := range src.execs {
			ex, _ := core.Lookup(name)
			if err := ex.EnsureIndex(c, pair, store, core.IndexBuildConfig{}); err != nil {
				t.Fatal(err)
			}
		}
		cases = append(cases, goldenCase{"pair/" + src.name, c, pair, store})
		if src.name != "uniform" {
			continue
		}
		gc := goldenRelation(t, c, "gc", 300, rng)
		ge := goldenRelation(t, c, "ge", 0, rng)
		three := []core.Relation{ga, gb, gc}
		cases = append(cases,
			goldenCase{"star3/uniform", c, &core.JoinTree{
				Relations: three,
				Edges:     []core.TreeEdge{{A: 0, B: 1, Kind: core.PredEqui}, {A: 0, B: 2, Kind: core.PredEqui}},
				Score:     core.Sum,
			}, store},
			goldenCase{"bandchain3/uniform", c, &core.JoinTree{
				Relations: three,
				Edges: []core.TreeEdge{
					{A: 0, B: 1, Kind: core.PredBand, Band: 2},
					{A: 1, B: 2, Kind: core.PredBand, Band: 2},
				},
				Score: core.Sum,
			}, store},
			goldenCase{"emptyleaf/uniform", c, &core.JoinTree{
				Relations: []core.Relation{ga, ge},
				Edges:     []core.TreeEdge{{A: 0, B: 1, Kind: core.PredEqui}},
				Score:     core.Sum,
			}, store},
		)
	}
	return cases
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func fmtEst(e sim.Snapshot) string {
	return fmt.Sprintf("%dns/%dB/%dr", int64(e.SimTime), e.NetworkBytes, e.KVReads)
}

// renderPlan prints everything a plan estimates, one candidate a line.
func renderPlan(label string, p *Plan) string {
	var b strings.Builder
	depths := make([]string, len(p.Stats.LeafDepths))
	for i, d := range p.Stats.LeafDepths {
		depths[i] = fmtFloat(d)
	}
	fmt.Fprintf(&b, "%s: chosen=%s best=%s source=%s join=%s depths=[%s] bands=%d\n",
		label, p.Chosen, p.Best, p.Stats.Source, fmtFloat(p.Stats.JoinPairs),
		strings.Join(depths, " "), p.Stats.StatBands)
	for i, cand := range p.Candidates {
		fmt.Fprintf(&b, "  %d %-5s est=%s marginal=%s stream=%s\n", i+1, cand.Executor,
			fmtEst(cand.Estimate), fmtEst(cand.Marginal), fmtEst(cand.StreamEstimate))
	}
	return b.String()
}

// checkEstimates holds a plan's estimates to what the shared counting
// rule promises: every executor that reads over RPCs predicts RPCs, and
// no counter of a marginal or stream estimate comes near a uint64 wrap,
// which subClamp guards against.
func checkEstimates(t *testing.T, label string, p *Plan) {
	t.Helper()
	for _, cand := range p.Candidates {
		switch cand.Executor {
		case "isl", "naive", "bfhm", "drjn":
			if cand.Estimate.RPCCalls == 0 {
				t.Errorf("%s: %s estimate predicts no RPCs: %+v", label, cand.Executor, cand.Estimate)
			}
		}
		for _, e := range []sim.Snapshot{cand.Marginal, cand.StreamEstimate} {
			for _, v := range []uint64{uint64(e.SimTime), e.NetworkBytes, e.KVReads, e.KVWrites,
				e.RPCCalls, e.DiskBytesRead, e.TuplesShipped} {
				if v > 1<<62 {
					t.Errorf("%s: %s marginal or stream estimate wrapped: %+v", label, cand.Executor, e)
				}
			}
		}
	}
}

// TestExplainGolden compares Explain's statistics and every candidate's
// bounded, marginal and stream estimate with the committed golden, over
// k ∈ {1, 10, 100}, the time and dollars objectives and Stream on and
// off, and holds every plan to checkEstimates. The golden pins
// memory-mode table statistics.
func TestExplainGolden(t *testing.T) {
	cases := goldenCases(t)
	if cases[0].c.DiskBacked() {
		t.Skip("the golden pins memory-mode table statistics")
	}
	var b strings.Builder
	for _, gc := range cases {
		for _, k := range []int{1, 10, 100} {
			tree := *gc.tree
			tree.K = k
			for _, obj := range []Objective{ObjectiveTime, ObjectiveDollars} {
				for _, stream := range []bool{false, true} {
					p, err := Explain(gc.c, &tree, gc.store, Options{Objective: obj, Stream: stream})
					if err != nil {
						t.Fatalf("%s k=%d: %v", gc.name, k, err)
					}
					label := fmt.Sprintf("%s k=%d obj=%s stream=%v", gc.name, k, obj, stream)
					checkEstimates(t, label, p)
					b.WriteString(renderPlan(label, p))
				}
			}
		}
	}
	got := b.String()
	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it and re-run", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < max(len(gotLines), len(wantLines)) && shown < 20; i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d\n got %s\nwant %s", goldenPath, i+1, g, w)
			shown++
		}
	}
}
