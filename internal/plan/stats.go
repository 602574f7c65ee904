// Package plan is the cost-based query planner: given a query and the
// indexes already built, it gathers statistics — live cluster table
// stats, DRJN 2-D histograms (the paper's Section 7.1 comparator doubles
// as a cheap statistics structure), and BFHM hybrid-filter join
// estimates (Algorithm 7 reused as a statistics probe) — then asks
// every executor for a predicted cost and ranks the candidate plans.
package plan

import (
	"math"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/histogram"
	"repro/internal/kvstore"
)

// maxStatBands bounds the BFHM statistics walk: the planner point-reads
// at most this many NON-EMPTY leading bucket blobs per relation and
// extrapolates beyond them, keeping planning overhead bounded. Empty
// buckets (skewed scores often leave the top of the range vacant) cost
// one cheap miss each and do not count. The DRJN walk needs no such cap
// — it reads the whole tiny matrix with one scan.
const maxStatBands = 16

// gatherStats assembles the PlanStats for one join tree. Reads it
// issues (DRJN bands, BFHM blobs) charge c's metric collector —
// planning is real work and is metered like any other client access. A
// non-nil cache short-circuits the statistics walks while the input
// tables' mutation sequences are unchanged; any online write moves
// them, so estimates always track live data. The TableStats call that
// reads those sequences runs on every plan, cache hit or not: it is
// cluster metadata, unbilled, and walks no table, because each region
// keeps its live-cell count current on its write path.
func gatherStats(c *kvstore.Cluster, t *core.JoinTree, store *core.IndexStore, exec core.ExecOptions, cache *Cache) (*core.PlanStats, error) {
	// Relation rows carry two cells each (join value + score). LiveCells
	// counts distinct live columns — not stored versions — so row
	// estimates stay accurate on update-heavy tables, where version
	// churn between compactions used to inflate cardinalities (and could
	// flip AlgoAuto's choice).
	seqs := make([]uint64, len(t.Relations))
	leaves := make([]core.RelStats, len(t.Relations))
	for i := range t.Relations {
		ts, err := c.TableStats(t.Relations[i].Table)
		if err != nil {
			return nil, err
		}
		seqs[i] = ts.MutSeq
		leaves[i] = core.RelStats{Rows: ts.LiveCells / 2, Bytes: ts.Bytes, Regions: ts.Regions}
	}
	sources := sourceFingerprint(t, store)
	if hit, ok := cache.lookup(t, seqs, sources); ok {
		hit.Exec = exec
		return &hit, nil
	}
	st := &core.PlanStats{
		Profile:    c.Profile(),
		K:          t.K,
		Exec:       exec,
		Leaves:     leaves,
		LeafDepths: make([]float64, len(leaves)),
	}

	if len(t.Relations) == 2 && t.AllEqui() {
		// Two-way queries climb the statistics ladder: DRJN 2-D
		// histograms, then BFHM filter walks. The pairwise walks don't
		// compose across a larger tree, so other shapes go straight to
		// the uniform model.
		if idxA, ok := store.DRJN.Get(t.Relations[0].Name); ok {
			if idxB, ok := store.DRJN.Get(t.Relations[1].Name); ok && idxA.JoinParts == idxB.JoinParts {
				if drjnWalk(c, st, idxA, idxB) {
					st.Source = "drjn"
					st.DRJNJoinParts = idxA.JoinParts
				}
			}
		}
		if st.Source == "" {
			if idxA, ok := store.BFHM.Get(t.Relations[0].Name); ok {
				if idxB, ok := store.BFHM.Get(t.Relations[1].Name); ok {
					if bfhmWalk(c, st, idxA, idxB) {
						st.Source = "bfhm"
						st.BFHMBuckets = idxA.Layout.Buckets
					}
				}
			}
		}
	}
	if st.Source == "" {
		uniform(st)
		st.Source = "uniform"
	}
	if st.BFHMBuckets == 0 {
		if idx, ok := store.BFHM.Get(t.Relations[0].Name); ok {
			st.BFHMBuckets = idx.Layout.Buckets
		}
	}
	cache.put(t, seqs, sources, *st)
	return st, nil
}

// uniform is the no-statistics model over n leaves: join cardinality
// from the foreign-key shape (every leaf's join column draws from ~the
// smallest leaf's row count of distinct values, as the dimension table's
// keys do in the paper's Q1/Q2), so J ≈ Π|Rᵢ| / min|Rᵢ|^(n-1), and the
// termination depths from scaleDepths. It also serves a walk that saw
// no joinable mass, keeping the walked depths as lower bounds. An empty
// leaf empties the join: with no walk behind it the depths stay zero,
// and after a walk each depth becomes its leaf's size. Only a model
// with no walk behind it sizes StatBands.
func uniform(st *core.PlanStats) {
	walked := st.StatBands > 0
	dMin, prod := math.Inf(1), 1.0
	for _, l := range st.Leaves {
		rows := float64(l.Rows)
		prod *= rows
		dMin = min(dMin, rows)
	}
	if dMin == 0 {
		st.JoinPairs = 0
		if walked {
			for i, l := range st.Leaves {
				st.LeafDepths[i] = float64(l.Rows)
			}
		}
		return
	}
	st.JoinPairs = max(1, prod/math.Pow(dMin, float64(len(st.Leaves)-1)))
	scaleDepths(st)
	if !walked {
		// Without histogram evidence, size histogram-driven executors'
		// fetches for the default 100-band geometry.
		maxFrac := 0.0
		for i, l := range st.Leaves {
			maxFrac = max(maxFrac, st.LeafDepths[i]/float64(l.Rows))
		}
		st.StatBands = int(math.Ceil(maxFrac*100)) + 1
	}
}

// bandTotal sums one decoded band's partition counts.
func bandTotal(b *histogram.BandData) uint64 {
	if b == nil {
		return 0
	}
	var t uint64
	for _, c := range b.Cells {
		t += c
	}
	return t
}

// drjnWalk reads both DRJN matrices (one batched scan each — the whole
// index is Layout.Buckets tiny rows) and replays the alternating band
// walk of the DRJN cursor (core.OpenDRJN), in memory, until the
// pairwise dot products cover k. It fills JoinPairs, the per-side
// depths, and StatBands; false means the walk produced nothing usable.
func drjnWalk(c *kvstore.Cluster, st *core.PlanStats, idxA, idxB *core.DRJNIndex) bool {
	allA, err := core.FetchAllBands(c, idxA)
	if err != nil {
		return false
	}
	allB, err := core.FetchAllBands(c, idxB)
	if err != nil {
		return false
	}

	type side struct {
		all    []*histogram.BandData
		next   int
		bands  []*histogram.BandData
		tuples uint64
	}
	a, b := &side{all: allA}, &side{all: allB}
	var estPairs float64

	consume := func(s, other *side) {
		bd := s.all[s.next]
		s.next++
		s.bands = append(s.bands, bd)
		s.tuples += bandTotal(bd)
		if bd != nil {
			for _, ob := range other.bands {
				if ob == nil {
					continue
				}
				if n, err := histogram.DotProduct(bd, ob); err == nil {
					estPairs += float64(n)
				}
			}
		}
	}

	for estPairs < float64(st.K) {
		aOpen := a.next < len(a.all)
		bOpen := b.next < len(b.all)
		if !aOpen && !bOpen {
			break
		}
		if aOpen && (a.next <= b.next || !bOpen) {
			consume(a, b)
		} else {
			consume(b, a)
		}
	}
	if a.next == 0 && b.next == 0 {
		return false
	}

	st.LeafDepths[0] = float64(a.tuples)
	st.LeafDepths[1] = float64(b.tuples)
	st.StatBands = max(a.next, b.next)

	// Both full matrices are in memory, so the total join cardinality
	// needs no prefix extrapolation: Σ_i Σ_j dot(A_i, B_j) collapses
	// to the dot product of the per-partition column sums. That dot
	// product D counts a full cross product within each partition, so
	// it carries a hash-collision surplus on top of the true join size
	// J: under uniform hashing E[D] = J + |R|·|S|/parts regardless of
	// the distinct-value count. Subtract the surplus, clamped by the
	// walked prefix's evidence.
	d := totalDotProduct(allA, allB)
	nl, nr := float64(st.Leaves[0].Rows), float64(st.Leaves[1].Rows)
	j := d - nl*nr/float64(idxA.JoinParts)
	j = math.Max(j, estPairs)
	st.JoinPairs = math.Min(math.Max(j, 1), nl*nr)
	if estPairs < float64(st.K) && st.JoinPairs > 0 {
		scaleDepths(st)
	}
	return true
}

// totalDotProduct estimates the full join size between two complete
// DRJN matrices via per-partition column sums.
func totalDotProduct(allA, allB []*histogram.BandData) float64 {
	var colA, colB []uint64
	sum := func(cols []uint64, bands []*histogram.BandData) []uint64 {
		for _, bd := range bands {
			if bd == nil {
				continue
			}
			if cols == nil {
				cols = make([]uint64, len(bd.Cells))
			}
			if len(bd.Cells) != len(cols) {
				continue
			}
			for p, n := range bd.Cells {
				cols[p] += n
			}
		}
		return cols
	}
	colA, colB = sum(colA, allA), sum(colB, allB)
	if colA == nil || colB == nil || len(colA) != len(colB) {
		return 0
	}
	var total float64
	for p := range colA {
		total += float64(colA[p]) * float64(colB[p])
	}
	return total
}

// bfhmWalk fetches leading BFHM bucket filters of both relations and
// accumulates bloom join-cardinality estimates until they cover k.
func bfhmWalk(c *kvstore.Cluster, st *core.PlanStats, idxA, idxB *core.BFHMIndex) bool {
	var fa, fb []*bloom.Hybrid
	var tuplesA, tuplesB uint64
	var estPairs float64
	buckets := idxA.Layout.Buckets
	if idxB.Layout.Buckets < buckets {
		buckets = idxB.Layout.Buckets
	}
	steps, nonEmpty := 0, 0
	for bu := 0; bu < buckets && nonEmpty < maxStatBands && estPairs < float64(st.K); bu++ {
		ha, err := core.FetchBucketFilter(c, idxA, bu)
		if err != nil {
			return false
		}
		hb, err := core.FetchBucketFilter(c, idxB, bu)
		if err != nil {
			return false
		}
		steps = bu + 1
		if ha != nil || hb != nil {
			nonEmpty++
		}
		if ha != nil {
			tuplesA += ha.N()
		}
		if hb != nil {
			tuplesB += hb.N()
		}
		fa, fb = append(fa, ha), append(fb, hb)
		// The new bucket pair estimates against every fetched
		// counterpart bucket (the Algorithm 6 pairing order).
		for i := 0; i < len(fb); i++ {
			if ha == nil || fb[i] == nil {
				continue
			}
			if je, err := bloom.EstimateJoinFolded(ha, fb[i]); err == nil && je != nil {
				estPairs += je.Cardinality
			}
		}
		for i := 0; i < len(fa)-1; i++ {
			if hb == nil || fa[i] == nil {
				continue
			}
			if je, err := bloom.EstimateJoinFolded(fa[i], hb); err == nil && je != nil {
				estPairs += je.Cardinality
			}
		}
	}
	if steps == 0 {
		return false
	}
	st.LeafDepths[0] = float64(tuplesA)
	st.LeafDepths[1] = float64(tuplesB)
	st.StatBands = steps
	extrapolate(st, estPairs, float64(tuplesA), float64(tuplesB))
	return true
}

// extrapolate derives the full-join cardinality from a walked prefix
// (pair density per left×right tuple pair, scaled to the whole input)
// and widens the depths when the walk stopped short of covering k.
func extrapolate(st *core.PlanStats, estPairs, walkedL, walkedR float64) {
	if estPairs <= 0 {
		// The walk saw no joinable mass before hitting its band cap
		// (skewed score distributions leave the top bands empty).
		uniform(st)
		return
	}
	if walkedL > 0 && walkedR > 0 {
		density := estPairs / (walkedL * walkedR)
		st.JoinPairs = density * float64(st.Leaves[0].Rows) * float64(st.Leaves[1].Rows)
	}
	if st.JoinPairs < estPairs {
		st.JoinPairs = estPairs
	}
	if estPairs < float64(st.K) && st.JoinPairs > 0 {
		scaleDepths(st)
	}
}

// scaleDepths raises every leaf's termination depth to what covering k
// takes under the uniform/independence assumption: consuming fraction f
// of each of the n leaves yields ~JoinPairs·fⁿ results, so
// f = (k/JoinPairs)^(1/n). Depths never shrink below what a walk already
// established, nor below one tuple. JoinPairs must be positive.
func scaleDepths(st *core.PlanStats) {
	f := math.Min(1, math.Pow(float64(st.K)/st.JoinPairs, 1/float64(len(st.Leaves))))
	for i, l := range st.Leaves {
		st.LeafDepths[i] = max(f*float64(l.Rows), st.LeafDepths[i], 1)
	}
}
