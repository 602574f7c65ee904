package plan

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// Objective selects the metric candidate plans are ranked by.
type Objective string

// Ranking objectives: the paper's three evaluation metrics.
const (
	// ObjectiveTime minimizes predicted turnaround time (default).
	ObjectiveTime Objective = "time"
	// ObjectiveNetwork minimizes predicted network bytes.
	ObjectiveNetwork Objective = "network"
	// ObjectiveDollars minimizes predicted KV read units (dollar cost).
	ObjectiveDollars Objective = "dollars"
)

// Options tunes one planning pass.
type Options struct {
	// Objective ranks candidates; empty means ObjectiveTime.
	Objective Objective
	// Exec carries the query options that shape per-executor costs.
	Exec core.ExecOptions
	// Cache, when non-nil, memoizes the statistics walks per (query,
	// k) until the input tables change.
	Cache *Cache
	// Stream plans for ranked enumeration with k unknown (DB.Stream,
	// deep pagination): candidates are ranked by the predicted cost of
	// enumerating streamHorizon×k results through their cursor, which
	// charges materializing executors their doubling re-runs. The
	// bounded-k Estimate is still reported per candidate.
	Stream bool
}

// streamHorizon is the enumeration depth — in multiples of the query's
// k — that Stream-mode planning prices. Deep enough that re-run
// penalties separate materializing from incremental cursors, shallow
// enough that a stream abandoned after a few pages was still planned
// sensibly.
const streamHorizon = 5

// Candidate is one costed executor.
type Candidate struct {
	// Executor is the executor's name.
	Executor string
	// Estimate is the predicted execution cost (excluding index
	// builds; planning assumes indexes as they exist right now).
	Estimate sim.Snapshot
	// Incremental reports whether the executor's cursor enumerates
	// natively (per-result marginal work) rather than re-running
	// bounded batches at doubled depths.
	Incremental bool
	// Marginal is the predicted cost of the NEXT page of k results
	// after the first: the k→2k cost delta for incremental executors,
	// or the full 2k re-run for materializing ones. Dividing by k gives
	// the per-result marginal cost.
	Marginal sim.Snapshot
	// StreamEstimate is the predicted cost of enumerating
	// streamHorizon×k results through the executor's cursor — the
	// metric Stream-mode planning ranks by.
	StreamEstimate sim.Snapshot
	// IndexReady reports whether the executor could run immediately:
	// it is index-free, or its index is already built.
	IndexReady bool
	// IndexBytes is the stored size of the executor's built index(es).
	IndexBytes uint64
}

// Plan is a ranked set of candidates for one query instance.
type Plan struct {
	// Chosen is the executor AlgoAuto would run: the best-ranked
	// candidate whose index requirements are already met (the planner
	// never builds indexes behind a query's back — it falls back to
	// the cheapest already-built or index-free strategy).
	Chosen string
	// Best is the best-ranked candidate overall, disregarding index
	// availability — when it differs from Chosen, building its index
	// would speed this query up.
	Best string
	// Candidates lists every executor, ranked by the objective (ready
	// executors carry no penalty; ranking is purely by predicted cost).
	Candidates []Candidate
	// Objective is the metric the ranking used.
	Objective Objective
	// Stream reports whether the ranking priced deep enumeration
	// (StreamEstimate) instead of the bounded top-k.
	Stream bool
	// Stats is the statistics snapshot the estimates were built from.
	Stats core.PlanStats
	// PlannerCost meters the statistics reads planning consumed.
	PlannerCost sim.Snapshot
}

// metric projects the objective's scalar from an estimate.
func (o Objective) metric(e sim.Snapshot) float64 {
	switch o {
	case ObjectiveNetwork:
		return float64(e.NetworkBytes)
	case ObjectiveDollars:
		return float64(e.KVReads)
	default:
		return float64(e.SimTime)
	}
}

// Explain gathers statistics for the join tree and costs every executor
// that supports its shape, returning the ranked candidate plans. The
// statistics reads charge c's metric collector and are reported in
// Plan.PlannerCost.
func Explain(c *kvstore.Cluster, t *core.JoinTree, store *core.IndexStore, opts Options) (*Plan, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	obj := opts.Objective
	switch obj {
	case "":
		obj = ObjectiveTime
	case ObjectiveTime, ObjectiveNetwork, ObjectiveDollars:
	default:
		return nil, fmt.Errorf("plan: unknown objective %q (want %s, %s, or %s)",
			obj, ObjectiveTime, ObjectiveNetwork, ObjectiveDollars)
	}
	before := c.Metrics().Snapshot()
	st, err := gatherStats(c, t, store, opts.Exec.WithDefaults(), opts.Cache)
	if err != nil {
		return nil, err
	}
	plannerCost := c.Metrics().Snapshot().Sub(before)

	execs := core.Executors()
	cands := make([]Candidate, 0, len(execs))
	for _, ex := range execs {
		// Shape-incapable executors (two-way-only strategies on a tree
		// with band edges or >2 leaves) are not candidates at all.
		if !ex.Supports(t) {
			continue
		}
		ready := ex.HasIndex(t, store)
		idxBytes := ex.IndexSize(c, t, store)
		// Estimate sees the candidate's own index size.
		est := *st
		est.IndexBytes = idxBytes
		bounded := ex.Estimate(&est)
		cands = append(cands, Candidate{
			Executor:       ex.Name(),
			Estimate:       bounded,
			Incremental:    ex.Incremental(),
			Marginal:       marginalEstimate(ex, &est, bounded),
			StreamEstimate: streamEstimate(ex, &est, bounded),
			IndexReady:     ready,
			IndexBytes:     idxBytes,
		})
	}
	rankBy := func(cand Candidate) sim.Snapshot {
		if opts.Stream {
			return cand.StreamEstimate
		}
		return cand.Estimate
	}
	// Stable over core.Executors(): candidates that tie on the objective
	// keep table order (the paper's evaluation order).
	sort.SliceStable(cands, func(i, j int) bool {
		return obj.metric(rankBy(cands[i])) < obj.metric(rankBy(cands[j]))
	})

	p := &Plan{Candidates: cands, Objective: obj, Stream: opts.Stream, Stats: *st, PlannerCost: plannerCost}
	for _, cand := range cands {
		if p.Best == "" {
			p.Best = cand.Executor
		}
		if p.Chosen == "" && cand.IndexReady {
			p.Chosen = cand.Executor
		}
	}
	if p.Chosen == "" {
		return nil, fmt.Errorf("plan: no runnable executor for %s", t.ID())
	}
	return p, nil
}

// stretchStats re-targets a statistics snapshot to a different k:
// covering k2 instead of k scales the per-leaf termination depths (and
// the band walk) by sqrt(k2/k) — scaleDepths' two-leaf exponent, applied
// to every tree — capped at the relation sizes. The depths are copied,
// never written in place: the stats cache shares st's slice.
func stretchStats(st *core.PlanStats, k2 int) *core.PlanStats {
	out := *st
	if st.K > 0 && k2 != st.K {
		ratio := math.Sqrt(float64(k2) / float64(st.K))
		out.LeafDepths = make([]float64, len(st.LeafDepths))
		for i, d := range st.LeafDepths {
			out.LeafDepths[i] = math.Min(d*ratio, float64(st.Leaves[i].Rows))
		}
		if st.StatBands > 0 {
			out.StatBands = int(math.Ceil(float64(st.StatBands) * ratio))
		}
	}
	out.K = k2
	return &out
}

// subClamp returns a-b per counter, clamped at zero: estimators are
// monotone in k in principle, but integer rounding can wobble, and
// Snapshot.Sub would wrap an unsigned counter around.
func subClamp(a, b sim.Snapshot) sim.Snapshot {
	return sim.Snapshot{
		SimTime:       clampSub(a.SimTime, b.SimTime),
		NetworkBytes:  clampSub(a.NetworkBytes, b.NetworkBytes),
		KVReads:       clampSub(a.KVReads, b.KVReads),
		KVWrites:      clampSub(a.KVWrites, b.KVWrites),
		RPCCalls:      clampSub(a.RPCCalls, b.RPCCalls),
		DiskBytesRead: clampSub(a.DiskBytesRead, b.DiskBytesRead),
		TuplesShipped: clampSub(a.TuplesShipped, b.TuplesShipped),
	}
}

func clampSub[T ~int64 | ~uint64](x, y T) T {
	if x > y {
		return x - y
	}
	return 0
}

// marginalEstimate predicts the cost of the second page of k results.
// An incremental cursor resumes bounded state, so the next page costs
// the k→2k delta; a materializing cursor re-runs the whole bounded
// query at depth 2k.
func marginalEstimate(ex *core.Executor, st *core.PlanStats, bounded sim.Snapshot) sim.Snapshot {
	deeper := ex.Estimate(stretchStats(st, 2*st.K))
	if ex.Incremental() {
		return subClamp(deeper, bounded)
	}
	return deeper
}

// streamEstimate predicts the cost of enumerating streamHorizon×k
// results through the executor's cursor: one deep pass for incremental
// executors, the doubling re-run schedule for materializing ones.
func streamEstimate(ex *core.Executor, st *core.PlanStats, bounded sim.Snapshot) sim.Snapshot {
	k := st.K
	if k < 1 {
		k = 1
	}
	target := streamHorizon * k
	if ex.Incremental() {
		return ex.Estimate(stretchStats(st, target))
	}
	// The materializing wrapper runs at k, 2k, 4k, ... until the depth
	// covers the horizon; every run pays in full.
	total := bounded
	for depth := 2 * k; depth/2 < target; depth *= 2 {
		total = total.Add(ex.Estimate(stretchStats(st, depth)))
	}
	return total
}

// Choose plans the tree and returns the executor AlgoAuto should run
// plus the plan that picked it.
func Choose(c *kvstore.Cluster, t *core.JoinTree, store *core.IndexStore, opts Options) (*core.Executor, *Plan, error) {
	p, err := Explain(c, t, store, opts)
	if err != nil {
		return nil, nil, err
	}
	ex, ok := core.Lookup(p.Chosen)
	if !ok {
		return nil, nil, fmt.Errorf("plan: chosen executor %q unknown", p.Chosen)
	}
	return ex, p, nil
}

// ChosenEstimate returns the chosen candidate's estimate.
func (p *Plan) ChosenEstimate() sim.Snapshot {
	for _, cand := range p.Candidates {
		if cand.Executor == p.Chosen {
			return cand.Estimate
		}
	}
	return sim.Snapshot{}
}

// String renders the plan as a compact EXPLAIN table.
func (p *Plan) String() string {
	out := fmt.Sprintf("plan (objective=%s, stats=%s, k=%d): chosen=%s",
		p.Objective, p.Stats.Source, p.Stats.K, p.Chosen)
	if p.Best != p.Chosen {
		out += fmt.Sprintf(" (best=%s needs its index built)", p.Best)
	}
	out += "\n"
	for i, cand := range p.Candidates {
		mark := " "
		if cand.Executor == p.Chosen {
			mark = "*"
		}
		ready := "ready"
		if !cand.IndexReady {
			ready = "no-index"
		}
		out += fmt.Sprintf("%s %d. %-6s %-8s est_time=%-12v est_net=%-10d est_reads=%d\n",
			mark, i+1, cand.Executor, ready,
			cand.Estimate.SimTime.Round(time.Microsecond),
			cand.Estimate.NetworkBytes, cand.Estimate.KVReads)
	}
	return out
}
