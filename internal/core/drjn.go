package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/histogram"
	"repro/internal/kvstore"
	"repro/internal/mapreduce"
)

// This file implements DRJN, the comparator from Doulkeridis et al. [8]
// ("Processing of rank joins in highly distributed systems", ICDE 2012)
// as the paper adapts it to a NoSQL store (Section 7.1):
//
//   - The index is a 2-D equi-width histogram: join-value partitions on
//     the x-axis, score bands on the y-axis. All cells of one score band
//     are stored as columns of a single row, so one Get fetches a band.
//   - Query processing loops: (i) fetch band rows in decreasing score
//     order, (ii) "join" bands (dot product of partition vectors) to
//     estimate the result cardinality, (iii) once the cumulative estimate
//     reaches k, pull every tuple scoring above the last fetched bands'
//     lower bounds — a map-only job with a server-side filter writing to
//     a temp table the coordinator then reads — and join exactly,
//     (iv) stop when the k'th actual score beats the max attainable score
//     of unexamined bands, else loop.
//
// The pull step's full scans are what make DRJN's dollar cost huge (the
// paper measures up to five orders of magnitude worse than BFHM) even
// though its histogram rows are tiny.

// DRJNIndex locates one relation's DRJN histogram.
type DRJNIndex struct {
	Table     string
	Layout    histogram.Layout
	JoinParts int
}

// DRJNOptions configures index construction.
type DRJNOptions struct {
	// NumBuckets is the score-axis resolution (paper: 100-500).
	NumBuckets int
	// JoinParts is the join-value-axis resolution.
	JoinParts int
}

func (o *DRJNOptions) defaults() {
	if o.NumBuckets < 1 {
		o.NumBuckets = 100
	}
	if o.JoinParts < 1 {
		o.JoinParts = 64
	}
}

// DRJN index storage layout:
//
//	table "drjn_<relation>", family drjnFamily
//	  row BucketKey(band):
//	    "band" -> histogram.MarshalBandData: partition counts, lo/hi scores
//	    "i:<rowKey>@<ts>" / "d:<rowKey>@<ts>" -> the mutation-record log
//	      (Sec. 6) that BFHM bucket rows keep too (maintain.go)
const (
	drjnFamily   = "m"
	drjnBandQual = "band"
)

// DRJNTableName derives a relation's index table name.
func DRJNTableName(rel *Relation) string { return "drjn_" + rel.Name }

// BuildDRJN builds one relation's DRJN matrix with a MapReduce job: the
// mapper assigns tuples to score bands, each reducer assembles one band's
// partition vector and writes it as a single index row.
func BuildDRJN(c *kvstore.Cluster, rel Relation, opts DRJNOptions) (*DRJNIndex, *mapreduce.Result, error) {
	opts.defaults()
	layout, err := histogram.NewLayout(0, 1, opts.NumBuckets)
	if err != nil {
		return nil, nil, err
	}
	idx := &DRJNIndex{Table: DRJNTableName(&rel), Layout: layout, JoinParts: opts.JoinParts}
	if _, err := c.CreateTable(idx.Table, []string{drjnFamily}, nil); err != nil {
		return nil, nil, err
	}
	res, err := mapreduce.Run(&mapreduce.Job{
		Name:    "drjn-index-" + rel.Name,
		Cluster: c,
		Input:   kvstore.Scan{Table: rel.Table, Families: []string{rel.Family}},
		Mapper: mapreduce.MapperFunc(func(row *kvstore.Row, ctx mapreduce.Context) error {
			t, ok := TupleFromRow(&rel, row)
			if !ok {
				ctx.Counter("skipped", 1)
				return nil
			}
			ctx.Emit(kvstore.BucketKey(layout.BucketOf(t.Score)), EncodeTuple(t))
			return nil
		}),
		Reducer: mapreduce.ReducerFunc(func(key string, values [][]byte, ctx mapreduce.Context) error {
			cells := make([]uint64, opts.JoinParts)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range values {
				t, err := DecodeTuple(v)
				if err != nil {
					return err
				}
				cells[histogram.PartitionOf(t.JoinValue, opts.JoinParts)]++
				if t.Score < lo {
					lo = t.Score
				}
				if t.Score > hi {
					hi = t.Score
				}
			}
			ctx.WriteCell(idx.Table, kvstore.Cell{
				Row:       key,
				Family:    drjnFamily,
				Qualifier: drjnBandQual,
				Value:     histogram.MarshalBandData(cells, lo, hi, true),
			})
			return nil
		}),
		NumReducers: c.Nodes(),
	})
	if err != nil {
		return nil, nil, err
	}
	return idx, res, nil
}

// drjnBand is one fetched band row.
type drjnBand struct {
	no   int
	data *histogram.BandData
	// floor is the band's pull threshold: its observed lower bound.
	floor float64
}

// decodeBandRow decodes a band row's stored blob (if any) and replays its
// mutation-record log, which it also returns — the one read path for
// single-band fetches, the full-matrix scan, and the offline pass.
// Insertions widen the band's observed score bounds so pull floors track
// fresh data; deletions leave them conservative. A record whose partition
// is outside the blob's cells is skipped.
func decodeBandRow(idx *DRJNIndex, no int, row *kvstore.Row) (*histogram.BandData, recordLog, error) {
	var bd *histogram.BandData
	if cell := row.Cell(drjnFamily, drjnBandQual); cell != nil {
		var err error
		if bd, err = histogram.UnmarshalBand(cell.Value); err != nil {
			return nil, recordLog{}, fmt.Errorf("drjn: band %d: %w", no, err)
		}
	}
	log, err := replayRecords(drjnFamily, row.Cells, func(ins bool, t Tuple) bool {
		if bd == nil {
			bd = &histogram.BandData{Cells: make([]uint64, idx.JoinParts)}
		}
		p := histogram.PartitionOf(t.JoinValue, idx.JoinParts)
		if p >= len(bd.Cells) {
			return false
		}
		if !ins {
			if bd.Cells[p] > 0 {
				bd.Cells[p]--
			}
			return true
		}
		bd.Cells[p]++
		if !bd.NonEmpty || t.Score < bd.Lo {
			bd.Lo = t.Score
		}
		if !bd.NonEmpty || t.Score > bd.Hi {
			bd.Hi = t.Score
		}
		bd.NonEmpty = true
		return true
	})
	if err != nil {
		return nil, recordLog{}, fmt.Errorf("drjn: band %d: %w", no, err)
	}
	return bd, log, nil
}

// fetchDRJNBand fetches band b (nil data if the band row is missing),
// replaying its mutation-record log so the returned counts and floor
// describe the live relation.
func fetchDRJNBand(c *kvstore.Cluster, idx *DRJNIndex, b int) (*drjnBand, error) {
	row, err := c.Get(idx.Table, kvstore.BucketKey(b))
	if err != nil {
		return nil, err
	}
	out := &drjnBand{no: b, floor: idx.Layout.MinScore(b)}
	if row == nil {
		return out, nil
	}
	bd, _, err := decodeBandRow(idx, b, row)
	if err != nil {
		return nil, err
	}
	out.data = bd
	if bd != nil && bd.NonEmpty {
		out.floor = bd.Lo
	}
	return out, nil
}

// FetchAllBands scans the whole DRJN index table — Layout.Buckets tiny
// rows — and returns the decoded bands indexed by band number (nil for
// empty bands). One batched scan replaces per-band point reads when a
// caller (the planner's statistics walk) wants the full matrix; the
// scan is metered like any other client access.
func FetchAllBands(c *kvstore.Cluster, idx *DRJNIndex) ([]*histogram.BandData, error) {
	rows, err := c.ScanAll(kvstore.Scan{
		Table:    idx.Table,
		Families: []string{drjnFamily},
		Caching:  256,
	})
	if err != nil {
		return nil, err
	}
	out := make([]*histogram.BandData, idx.Layout.Buckets)
	for i := range rows {
		no, err := bucketFromKey(rows[i].Key)
		if err != nil || no < 0 || no >= len(out) {
			continue
		}
		bd, _, err := decodeBandRow(idx, no, &rows[i])
		if err != nil {
			return nil, err
		}
		out[no] = bd
	}
	return out, nil
}

// drjnPull runs the map-only pull job: every tuple of rel with score >=
// bound is written to tmpTable (server-side filtered scan; the scan reads
// everything, the network carries only matches).
func drjnPull(c *kvstore.Cluster, rel Relation, tmpTable string, bound float64) error {
	_, err := mapreduce.Run(&mapreduce.Job{
		Name:    "drjn-pull-" + rel.Name,
		Cluster: c,
		Input: kvstore.Scan{
			Table:    rel.Table,
			Families: []string{rel.Family},
			Filter: kvstore.FloatColumnMinFilter{
				Family:    rel.Family,
				Qualifier: rel.ScoreQual,
				Min:       bound,
			},
		},
		Mapper: mapreduce.MapperFunc(func(row *kvstore.Row, ctx mapreduce.Context) error {
			t, ok := TupleFromRow(&rel, row)
			if !ok {
				return nil
			}
			ctx.WriteCell(tmpTable, kvstore.Cell{
				Row:       t.RowKey,
				Family:    drjnFamily,
				Qualifier: "t",
				Value:     EncodeTuple(t),
			})
			return nil
		}),
	})
	return err
}

// readPulled drains a pull temp table at the coordinator.
func readPulled(c *kvstore.Cluster, tmpTable string) ([]Tuple, error) {
	rows, err := c.ScanAll(kvstore.Scan{Table: tmpTable, Caching: scanBatch})
	if err != nil {
		return nil, err
	}
	out := make([]Tuple, 0, len(rows))
	for i := range rows {
		cell := rows[i].Cell(drjnFamily, "t")
		if cell == nil {
			continue
		}
		t, err := DecodeTuple(cell.Value)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// drjnCursor streams the DRJN rank join: the same fetch-bands /
// estimate / pull / join rounds as the bounded run, but held as
// resumable state. A result is released as soon as its score reaches
// the max attainable score of the unexamined bands; when the buffered
// results run dry the cursor deepens by two bands and re-pulls with
// lower floors. Previously released results always outrank anything a
// deeper pull can add (new tuples score below the old floors), so the
// emitted stream stays in global score order across rounds.
type drjnCursor struct {
	c          *kvstore.Cluster
	t          *JoinTree
	idxA, idxB *DRJNIndex
	score      *pairScore

	bandsA, bandsB []*drjnBand
	nextA, nextB   int
	estCard        uint64
	round          int
	pulledOnce     bool

	// results is the complete join of the pulled prefix, sorted
	// descending; emitted indexes the released prefix. Each re-pull
	// rebuilds results as a superset and re-locates the last released
	// result in it, so emission resumes exactly after it.
	results     []JoinResult
	emitted     int
	lastEmitted JoinResult
	hasEmitted  bool
	closed      bool
}

// OpenDRJN starts a streaming DRJN execution over built indexes. t.K is
// only a sizing hint for the first round's band-fetch target.
func OpenDRJN(c *kvstore.Cluster, t *JoinTree, idxA, idxB *DRJNIndex) (Cursor, error) {
	if err := requireBinary("drjn", t); err != nil {
		return nil, err
	}
	if idxA.JoinParts != idxB.JoinParts {
		return nil, fmt.Errorf("drjn: partition counts differ (%d vs %d)", idxA.JoinParts, idxB.JoinParts)
	}
	return &drjnCursor{c: c, t: t, idxA: idxA, idxB: idxB, score: t.Score.pair()}, nil
}

func (cu *drjnCursor) exhausted() bool {
	return cu.nextA >= cu.idxA.Layout.Buckets && cu.nextB >= cu.idxB.Layout.Buckets
}

// maxUnpulled is the max attainable score of tuples NOT yet pulled:
// anything below the current pull floors.
func (cu *drjnCursor) maxUnpulled() float64 {
	floorA, floorB := 1.0, 1.0
	if len(cu.bandsA) > 0 {
		floorA = cu.bandsA[len(cu.bandsA)-1].floor
	}
	if len(cu.bandsB) > 0 {
		floorB = cu.bandsB[len(cu.bandsB)-1].floor
	}
	if cu.nextA >= cu.idxA.Layout.Buckets {
		floorA = 0
	}
	if cu.nextB >= cu.idxB.Layout.Buckets {
		floorB = 0
	}
	return math.Max(cu.score.of(floorA, cu.idxB.Layout.Hi), cu.score.of(cu.idxA.Layout.Hi, floorB))
}

// fetchBands fetches index bands alternately until the pairwise dot
// products estimate at least target join results (steps (i)+(ii)).
func (cu *drjnCursor) fetchBands(target uint64) error {
	for cu.estCard < target && !cu.exhausted() {
		if cu.nextA <= cu.nextB && cu.nextA < cu.idxA.Layout.Buckets || cu.nextB >= cu.idxB.Layout.Buckets {
			nb, err := fetchDRJNBand(cu.c, cu.idxA, cu.nextA)
			if err != nil {
				return err
			}
			cu.nextA++
			cu.bandsA = append(cu.bandsA, nb)
			if nb.data != nil {
				for _, ob := range cu.bandsB {
					if ob.data == nil {
						continue
					}
					n, err := histogram.DotProduct(nb.data, ob.data)
					if err != nil {
						return err
					}
					cu.estCard += n
				}
			}
		} else {
			nb, err := fetchDRJNBand(cu.c, cu.idxB, cu.nextB)
			if err != nil {
				return err
			}
			cu.nextB++
			cu.bandsB = append(cu.bandsB, nb)
			if nb.data != nil {
				for _, ob := range cu.bandsA {
					if ob.data == nil {
						continue
					}
					n, err := histogram.DotProduct(ob.data, nb.data)
					if err != nil {
						return err
					}
					cu.estCard += n
				}
			}
		}
	}
	return nil
}

// pullAndJoin pulls every tuple above the current floors and joins
// exactly (step (iii)), replacing results with the full sorted join of
// the pulled prefix.
func (cu *drjnCursor) pullAndJoin() error {
	floorA, floorB := 0.0, 0.0
	if len(cu.bandsA) > 0 {
		floorA = cu.bandsA[len(cu.bandsA)-1].floor
	}
	if len(cu.bandsB) > 0 {
		floorB = cu.bandsB[len(cu.bandsB)-1].floor
	}
	c, id := cu.c, cu.t.ID()
	tmpA := fmt.Sprintf("tmp_drjn_%s_a_%d_%d", id, cu.round, c.Now())
	tmpB := fmt.Sprintf("tmp_drjn_%s_b_%d_%d", id, cu.round, c.Now())
	if _, err := c.CreateTable(tmpA, []string{drjnFamily}, nil); err != nil {
		return err
	}
	if _, err := c.CreateTable(tmpB, []string{drjnFamily}, nil); err != nil {
		return err
	}
	if err := drjnPull(c, cu.t.Relations[0], tmpA, floorA); err != nil {
		return err
	}
	if err := drjnPull(c, cu.t.Relations[1], tmpB, floorB); err != nil {
		return err
	}
	pulledA, err := readPulled(c, tmpA)
	if err != nil {
		return err
	}
	pulledB, err := readPulled(c, tmpB)
	if err != nil {
		return err
	}
	_ = c.DropTable(tmpA)
	_ = c.DropTable(tmpB)

	byJoin := map[string][]Tuple{}
	for _, t := range pulledA {
		byJoin[t.JoinValue] = append(byJoin[t.JoinValue], t)
	}
	// Fresh slice each round: pointers returned by Next alias the old
	// backing array and must stay valid.
	var out []JoinResult
	for _, tb := range pulledB {
		for _, ta := range byJoin[tb.JoinValue] {
			out = append(out, JoinResult{Left: ta, Right: tb, Score: cu.score.of(ta.Score, tb.Score)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(&out[j]) })
	cu.results = out
	cu.pulledOnce = true
	// Resume emission strictly after the last released result (join
	// pairs are unique, so it re-forms at one position in the superset).
	cu.emitted = 0
	if cu.hasEmitted {
		cu.emitted = sort.Search(len(out), func(i int) bool {
			return cu.lastEmitted.less(&out[i])
		})
	}
	return nil
}

// Next implements Cursor.
func (cu *drjnCursor) Next() (*JoinResult, error) {
	if cu.closed {
		return nil, ErrCursorClosed
	}
	for {
		// (iv): release the next buffered result once it beats the
		// ceiling of everything not yet pulled.
		if cu.emitted < len(cu.results) &&
			(cu.exhausted() || cu.results[cu.emitted].Score >= cu.maxUnpulled()) {
			r := &cu.results[cu.emitted]
			cu.emitted++
			cu.lastEmitted = *r
			cu.hasEmitted = true
			return r, nil
		}
		if cu.pulledOnce && cu.exhausted() {
			return nil, nil // everything pulled, everything released
		}
		cu.round++
		if cu.round > cu.idxA.Layout.Buckets+cu.idxB.Layout.Buckets+4 {
			return nil, fmt.Errorf("drjn: failed to converge")
		}
		if !cu.pulledOnce {
			// First round: fetch bands until the estimate covers the
			// query's k (or one result, for a pure stream).
			target := uint64(cu.t.K)
			if target < 1 {
				target = 1
			}
			if err := cu.fetchBands(target); err != nil {
				return nil, err
			}
		} else {
			// Deepen: at least one more band per relation.
			if cu.nextA < cu.idxA.Layout.Buckets {
				nb, err := fetchDRJNBand(cu.c, cu.idxA, cu.nextA)
				if err != nil {
					return nil, err
				}
				cu.nextA++
				cu.bandsA = append(cu.bandsA, nb)
			}
			if cu.nextB < cu.idxB.Layout.Buckets {
				nb, err := fetchDRJNBand(cu.c, cu.idxB, cu.nextB)
				if err != nil {
					return nil, err
				}
				cu.nextB++
				cu.bandsB = append(cu.bandsB, nb)
			}
		}
		if err := cu.pullAndJoin(); err != nil {
			return nil, err
		}
	}
}

// Close implements Cursor.
func (cu *drjnCursor) Close() error {
	cu.closed = true
	cu.results = nil
	return nil
}
