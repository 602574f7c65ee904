// Tier-2 planner-accuracy tests: run the paper's Q1/Q2 workloads at
// several k values with every executor, and assert the cost-based
// planner's chosen executor is within a bounded factor of the best
// measured one. This is the regression net for the estimators in
// internal/core/estimate.go — if a formula drifts far enough to change
// plans for the worse, this fails.
package rankjoin_test

import (
	"strconv"
	"testing"
	"time"

	rankjoin "repro"
	"repro/internal/benchkit"
	"repro/internal/sim"
)

// plannerBoundFactor is the accepted slack: the chosen executor's
// measured cost may be at most this multiple of the best measured cost.
const plannerBoundFactor = 1.5

func TestPlannerAccuracy(t *testing.T) {
	env, err := benchkit.Setup(sim.LC(), 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer env.DB.Close()
	queries := []struct {
		name string
		q    rankjoin.Query
	}{{"q1", env.Q1}, {"q2", env.Q2}}
	algos := append(benchkit.Algorithms, rankjoin.AlgoNaive)

	for _, qc := range queries {
		for _, k := range []int{1, 10, 100} {
			q := qc.q.WithK(k)
			opts := &rankjoin.QueryOptions{ISLBatch: env.ISLBatch}

			// Measure every executor.
			measured := map[rankjoin.Algorithm]time.Duration{}
			best := time.Duration(0)
			for _, algo := range algos {
				res, err := env.DB.TopK(q, algo, opts)
				if err != nil {
					t.Fatalf("%s k=%d %s: %v", qc.name, k, algo, err)
				}
				measured[algo] = res.Cost.SimTime
				if best == 0 || res.Cost.SimTime < best {
					best = res.Cost.SimTime
				}
			}

			// Plan and run automatically.
			res, err := env.DB.TopK(q, rankjoin.AlgoAuto, opts)
			if err != nil {
				t.Fatalf("%s k=%d auto: %v", qc.name, k, err)
			}
			if res.Estimate == nil {
				t.Fatalf("%s k=%d: planned result carries no estimate", qc.name, k)
			}
			chosen := rankjoin.Algorithm(res.Algorithm)
			chosenMeasured, ok := measured[chosen]
			if !ok {
				t.Fatalf("%s k=%d: planner chose unmeasured executor %q", qc.name, k, chosen)
			}
			t.Logf("%s k=%-4d chosen=%-6s est=%-12v measured=%-12v best=%-12v (naive=%v isl=%v bfhm=%v drjn=%v ijlmr=%v hive=%v pig=%v)",
				qc.name, k, chosen, res.Estimate.SimTime, chosenMeasured, best,
				measured[rankjoin.AlgoNaive], measured[rankjoin.AlgoISL],
				measured[rankjoin.AlgoBFHM], measured[rankjoin.AlgoDRJN],
				measured[rankjoin.AlgoIJLMR], measured[rankjoin.AlgoHive],
				measured[rankjoin.AlgoPig])
			if float64(chosenMeasured) > plannerBoundFactor*float64(best) {
				t.Errorf("%s k=%d: planner chose %s (measured %v), more than %.1fx the best measured %v",
					qc.name, k, chosen, chosenMeasured, plannerBoundFactor, best)
			}
		}
	}
}

// TestExplainAllCandidates checks the acceptance criterion that Explain
// returns ranked candidates with non-zero cost estimates for every
// registered executor — even on a DB with no indexes built at all.
func TestExplainAllCandidates(t *testing.T) {
	db := mustOpenDB(t)
	l, err := db.DefineRelation("l")
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.DefineRelation("r")
	if err != nil {
		t.Fatal(err)
	}
	var lt, rt []rankjoin.Tuple
	for i := 0; i < 300; i++ {
		lt = append(lt, rankjoin.Tuple{RowKey: key("l", i), JoinValue: key("j", i%40), Score: float64(i%997) / 997})
		rt = append(rt, rankjoin.Tuple{RowKey: key("r", i), JoinValue: key("j", i%40), Score: float64((i*7)%997) / 997})
	}
	if err := l.BulkLoad(lt); err != nil {
		t.Fatal(err)
	}
	if err := r.BulkLoad(rt); err != nil {
		t.Fatal(err)
	}
	q, err := db.NewQuery("l", "r", rankjoin.Sum, 10)
	if err != nil {
		t.Fatal(err)
	}

	p, err := db.Explain(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Candidates) != 7 {
		t.Fatalf("Explain returned %d candidates, want 7", len(p.Candidates))
	}
	seen := map[string]bool{}
	for _, cand := range p.Candidates {
		seen[cand.Executor] = true
		if cand.Estimate.SimTime <= 0 || cand.Estimate.KVReads == 0 || cand.Estimate.NetworkBytes == 0 {
			t.Errorf("candidate %s has a zero cost estimate: %+v", cand.Executor, cand.Estimate)
		}
	}
	for _, name := range []string{"naive", "hive", "pig", "ijlmr", "isl", "bfhm", "drjn"} {
		if !seen[name] {
			t.Errorf("Explain is missing executor %s", name)
		}
	}
	// Ranking must be monotone in the objective.
	for i := 1; i < len(p.Candidates); i++ {
		if p.Candidates[i].Estimate.SimTime < p.Candidates[i-1].Estimate.SimTime {
			t.Errorf("candidates not ranked: %s (%v) after %s (%v)",
				p.Candidates[i].Executor, p.Candidates[i].Estimate.SimTime,
				p.Candidates[i-1].Executor, p.Candidates[i-1].Estimate.SimTime)
		}
	}

	// With no index built, auto must still run (an index-free strategy).
	res, err := db.TopK(q, rankjoin.AlgoAuto, nil)
	if err != nil {
		t.Fatalf("AlgoAuto with no indexes: %v", err)
	}
	if res.Algorithm == "" || res.Estimate == nil {
		t.Fatalf("planned result not stamped: algorithm=%q estimate=%v", res.Algorithm, res.Estimate)
	}
	ex := rankjoin.Algorithm(res.Algorithm)
	if ex == rankjoin.AlgoISL || ex == rankjoin.AlgoBFHM || ex == rankjoin.AlgoDRJN || ex == rankjoin.AlgoIJLMR {
		t.Fatalf("planner chose index-based %s with no index built", ex)
	}

	// After building indexes, Explain marks them ready and the planner
	// may now pick them.
	if err := db.EnsureIndexes(q, rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN, rankjoin.AlgoIJLMR); err != nil {
		t.Fatal(err)
	}
	p2, err := db.Explain(q, &rankjoin.ExplainOptions{Query: rankjoin.QueryOptions{Objective: rankjoin.ObjectiveDollars}})
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range p2.Candidates {
		if !cand.IndexReady {
			t.Errorf("candidate %s not index-ready after EnsureIndexes", cand.Executor)
		}
	}
	if p2.Stats.Source == "uniform" {
		t.Errorf("stats source still %q after building DRJN histograms", p2.Stats.Source)
	}
}

func key(prefix string, i int) string {
	return prefix + string(rune('a'+i/26%26)) + string(rune('a'+i%26)) + strconv.Itoa(i)
}
