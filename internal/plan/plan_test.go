package plan

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// setupCluster loads two small relations and returns everything a
// planning pass needs.
func setupCluster(t *testing.T, n int) (*kvstore.Cluster, *core.JoinTree, *core.IndexStore) {
	t.Helper()
	c, err := kvstore.NewCluster(sim.LC())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) core.Relation {
		rel := core.Relation{
			Name: name, Table: "rel_" + name, Family: "d",
			JoinQual: "join", ScoreQual: "score",
		}
		if _, err := c.CreateTable(rel.Table, []string{rel.Family}, nil); err != nil {
			t.Fatal(err)
		}
		var cells []kvstore.Cell
		for i := 0; i < n; i++ {
			row := fmt.Sprintf("%s%04d", name, i)
			cells = append(cells,
				kvstore.Cell{Row: row, Family: "d", Qualifier: "join", Value: []byte(fmt.Sprintf("j%d", i%20))},
				kvstore.Cell{Row: row, Family: "d", Qualifier: "score", Value: kvstore.FloatValue(float64(i%991) / 991)},
			)
		}
		if err := c.BatchPut(rel.Table, cells); err != nil {
			t.Fatal(err)
		}
		return rel
	}
	q := &core.JoinTree{
		Relations: []core.Relation{mk("pl"), mk("pr")},
		Edges:     []core.TreeEdge{{A: 0, B: 1, Kind: core.PredEqui}},
		Score:     core.Sum,
		K:         10,
	}
	return c, q, core.NewIndexStore()
}

func TestExplainUniformFallback(t *testing.T) {
	c, q, store := setupCluster(t, 400)
	p, err := Explain(c, q, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.Source != "uniform" {
		t.Errorf("stats source = %q, want uniform (no statistics built)", p.Stats.Source)
	}
	if p.Stats.Leaves[0].Rows != 400 || p.Stats.Leaves[1].Rows != 400 {
		t.Errorf("table stats rows = %d/%d, want 400/400", p.Stats.Leaves[0].Rows, p.Stats.Leaves[1].Rows)
	}
	if p.Stats.JoinPairs <= 0 {
		t.Errorf("uniform fallback produced JoinPairs = %g", p.Stats.JoinPairs)
	}
	if p.Stats.LeafDepths[0] <= 0 || p.Stats.LeafDepths[1] <= 0 {
		t.Errorf("uniform fallback produced depths %g/%g", p.Stats.LeafDepths[0], p.Stats.LeafDepths[1])
	}
	// Only index-free executors are runnable; the chosen one must be
	// among them and every candidate must carry a non-zero estimate.
	switch p.Chosen {
	case "naive", "hive", "pig":
	default:
		t.Errorf("chosen = %q with no indexes built", p.Chosen)
	}
	if len(p.Candidates) != len(core.Executors()) {
		t.Fatalf("%d candidates, want %d", len(p.Candidates), len(core.Executors()))
	}
	for _, cand := range p.Candidates {
		if cand.Estimate.SimTime <= 0 || cand.Estimate.KVReads == 0 {
			t.Errorf("candidate %s: zero estimate %+v", cand.Executor, cand.Estimate)
		}
	}
}

func TestExplainUsesDRJNStatistics(t *testing.T) {
	c, q, store := setupCluster(t, 400)
	ex, _ := core.Lookup("drjn")
	if err := ex.EnsureIndex(c, q, store, core.IndexBuildConfig{}); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics().Snapshot()
	p, err := Explain(c, q, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.Source != "drjn" {
		t.Errorf("stats source = %q, want drjn", p.Stats.Source)
	}
	if p.Chosen != "drjn" && !candidateReady(p, "drjn") {
		t.Errorf("drjn candidate not marked ready after its build")
	}
	// Planning reads histogram bands through the metered client.
	delta := c.Metrics().Snapshot().Sub(before)
	if delta.RPCCalls == 0 || p.PlannerCost.RPCCalls == 0 {
		t.Errorf("planner statistics reads unmetered: delta=%+v plannerCost=%+v", delta, p.PlannerCost)
	}
	// True join size here: 400*400/20 = 8000 pairs; the DRJN-derived
	// estimate must land within a factor of 4.
	if p.Stats.JoinPairs < 2000 || p.Stats.JoinPairs > 32000 {
		t.Errorf("DRJN JoinPairs estimate %g, want within [2000,32000] (true 8000)", p.Stats.JoinPairs)
	}
}

func TestExplainObjectives(t *testing.T) {
	c, q, store := setupCluster(t, 300)
	for _, obj := range []Objective{ObjectiveTime, ObjectiveNetwork, ObjectiveDollars} {
		p, err := Explain(c, q, store, Options{Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		if p.Objective != obj {
			t.Errorf("plan objective = %q, want %q", p.Objective, obj)
		}
		for i := 1; i < len(p.Candidates); i++ {
			if obj.metric(p.Candidates[i].Estimate) < obj.metric(p.Candidates[i-1].Estimate) {
				t.Errorf("%s: candidates out of order at %d", obj, i)
			}
		}
	}
}

func TestExplainRejectsUnknownObjective(t *testing.T) {
	c, q, store := setupCluster(t, 100)
	if _, err := Explain(c, q, store, Options{Objective: "dollar"}); err == nil {
		t.Fatal("Explain accepted unknown objective \"dollar\"")
	}
}

func TestChooseRunnable(t *testing.T) {
	c, q, store := setupCluster(t, 200)
	ex, p, err := Choose(c, q, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Name() != p.Chosen {
		t.Fatalf("Choose returned %q but plan chose %q", ex.Name(), p.Chosen)
	}
	if !ex.HasIndex(q, store) {
		t.Fatalf("Choose picked %q whose index is missing", ex.Name())
	}
	res, err := core.RunCursor(c, q.K, func() (core.Cursor, error) {
		return ex.Open(c, q, store, core.ExecOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) == 0 {
		t.Fatal("chosen executor returned no results")
	}
}

func candidateReady(p *Plan, name string) bool {
	for _, cand := range p.Candidates {
		if cand.Executor == name {
			return cand.IndexReady
		}
	}
	return false
}

// TestStatsUseLiveRows: planner row counts must come from live cells,
// not stored versions — an update-heavy table (every row rewritten
// several times with no compaction) must not inflate cardinalities.
func TestStatsUseLiveRows(t *testing.T) {
	c, q, store := setupCluster(t, 300)
	// Rewrite every left row's score 4 times: 300 live rows now carry
	// ~5x the stored versions.
	for round := 0; round < 4; round++ {
		var cells []kvstore.Cell
		for i := 0; i < 300; i++ {
			row := fmt.Sprintf("pl%04d", i)
			cells = append(cells,
				kvstore.Cell{Row: row, Family: "d", Qualifier: "score", Value: kvstore.FloatValue(float64((i+round)%991) / 991)},
			)
		}
		if err := c.BatchPut(q.Relations[0].Table, cells); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.TableStats(q.Relations[0].Table)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells <= st.LiveCells {
		t.Fatalf("update-heavy table should hold more versions (%d) than live cells (%d)", st.Cells, st.LiveCells)
	}

	p, err := Explain(c, q, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.Leaves[0].Rows != 300 {
		t.Errorf("planner left rows = %d, want 300 (live), not %d (version-derived)",
			p.Stats.Leaves[0].Rows, st.Cells/2)
	}
	if p.Stats.Leaves[1].Rows != 300 {
		t.Errorf("planner right rows = %d, want 300", p.Stats.Leaves[1].Rows)
	}
}

// TestStreamPlanning: Stream-mode plans must carry per-page marginal
// costs, charge materializing executors their doubling re-runs, and
// rank by the stream estimate.
func TestStreamPlanning(t *testing.T) {
	c, q, store := setupCluster(t, 400)
	for _, name := range []string{"isl", "bfhm", "drjn", "ijlmr"} {
		ex, _ := core.Lookup(name)
		if err := ex.EnsureIndex(c, q, store, core.IndexBuildConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Explain(c, q, store, Options{Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Stream {
		t.Error("plan not marked Stream")
	}
	for i, cand := range p.Candidates {
		ex, _ := core.Lookup(cand.Executor)
		if cand.Incremental != ex.Incremental() {
			t.Errorf("%s: Incremental = %v, want %v", cand.Executor, cand.Incremental, ex.Incremental())
		}
		if cand.StreamEstimate.SimTime < cand.Estimate.SimTime {
			t.Errorf("%s: stream estimate %v below bounded estimate %v",
				cand.Executor, cand.StreamEstimate.SimTime, cand.Estimate.SimTime)
		}
		if !cand.Incremental {
			// Materializing cursors re-run: the horizon must cost at
			// least two full bounded runs.
			if cand.StreamEstimate.SimTime < 2*cand.Estimate.SimTime {
				t.Errorf("%s (materializing): stream estimate %v does not include re-runs (bounded %v)",
					cand.Executor, cand.StreamEstimate.SimTime, cand.Estimate.SimTime)
			}
			if cand.Marginal.SimTime < cand.Estimate.SimTime {
				t.Errorf("%s (materializing): marginal %v below a full re-run %v",
					cand.Executor, cand.Marginal.SimTime, cand.Estimate.SimTime)
			}
		}
		if i > 0 {
			prev := p.Candidates[i-1]
			if ObjectiveTime.metric(cand.StreamEstimate) < ObjectiveTime.metric(prev.StreamEstimate) {
				t.Errorf("stream plan out of order at %d", i)
			}
		}
	}
	// Bounded-mode plans on the same state must rank by the bounded
	// estimate instead.
	pb, err := Explain(c, q, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pb.Candidates); i++ {
		if ObjectiveTime.metric(pb.Candidates[i].Estimate) < ObjectiveTime.metric(pb.Candidates[i-1].Estimate) {
			t.Errorf("bounded plan out of order at %d", i)
		}
	}
}

func TestStatsCacheInvalidatedByWrites(t *testing.T) {
	c, q, store := setupCluster(t, 200)
	tq := q
	cache := NewCache()

	st1, err := gatherStats(c, q, store, core.ExecOptions{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	// Unchanged tables: the cache serves the entry.
	st2, err := gatherStats(c, q, store, core.ExecOptions{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Leaves[0].Rows != st2.Leaves[0].Rows {
		t.Fatalf("cache hit changed stats: %v vs %v", st1.Leaves[0].Rows, st2.Leaves[0].Rows)
	}

	// ANY write to an input — here an update that keeps the live-column
	// count identical (the shape a count-keyed cache missed) — moves the
	// table's mutation sequence and must invalidate the entry.
	if err := c.Put(q.Relations[0].Table, kvstore.Cell{
		Row: "pl0000", Family: "d", Qualifier: "score", Value: kvstore.FloatValue(0.123),
	}); err != nil {
		t.Fatal(err)
	}
	lt, err := c.TableStats(q.Relations[0].Table)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.TableStats(q.Relations[1].Table)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.lookup(tq, []uint64{lt.MutSeq, rt.MutSeq}, sourceFingerprint(tq, store)); ok {
		t.Fatal("stats cache served a stale entry after a write")
	}
	if _, err := gatherStats(c, q, store, core.ExecOptions{}, cache); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.lookup(tq, []uint64{lt.MutSeq, rt.MutSeq}, sourceFingerprint(tq, store)); !ok {
		t.Fatal("re-gathered stats not cached under the new mutation seq")
	}
}

// TestStatsCacheEvictsLeastRecentlyUsed: past maxCacheEntries (tree, k)
// keys the entry that goes is the one least recently looked up or
// stored, so which statistics walk a busy server pays for again does
// not depend on map iteration order.
func TestStatsCacheEvictsLeastRecentlyUsed(t *testing.T) {
	tree := func(k int) *core.JoinTree {
		return &core.JoinTree{
			Relations: []core.Relation{{Name: "a"}, {Name: "b"}},
			Edges:     []core.TreeEdge{{A: 0, B: 1, Kind: core.PredEqui}},
			Score:     core.Sum,
			K:         k,
		}
	}
	seqs := []uint64{1, 1}
	cache := NewCache()
	for k := 1; k <= maxCacheEntries; k++ {
		cache.put(tree(k), seqs, "", core.PlanStats{})
	}
	if _, ok := cache.lookup(tree(1), seqs, ""); !ok {
		t.Fatal("first entry missing before the cache was full")
	}
	cache.put(tree(maxCacheEntries+1), seqs, "", core.PlanStats{})
	for k := 1; k <= maxCacheEntries+1; k++ {
		if _, ok := cache.lookup(tree(k), seqs, ""); ok != (k != 2) {
			t.Fatalf("k=%d cached=%v; only the second key inserted should be evicted", k, ok)
		}
	}
}
