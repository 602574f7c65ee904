package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/bloom"
	"repro/internal/histogram"
	"repro/internal/kvstore"
	"repro/internal/mapreduce"
)

// This file implements BFHM — the Bloom Filter Histogram Matrix rank join
// (Section 5). Per relation, the index is an equi-width histogram over
// the score axis whose buckets each carry (i) the observed min/max score,
// (ii) a Golomb-compressed single-hash Bloom filter over the bucket's
// join values, and (iii) compressed per-bit counters (the hybrid filter of
// Fig. 4), plus reverse-mapping rows from (bucket, bit) back to the
// tuples that set the bit (Fig. 5).
//
// Query processing is two-phase (Section 5.2): an estimation phase joins
// bucket filters pairwise (Algorithm 7) inside the Algorithm 6 loop, and
// a reverse-mapping phase fetches only the tuples behind the surviving
// estimated results and joins them exactly. The Section 5.3 repair loop
// re-opens estimation when the exact phase comes up short, which makes
// the algorithm's recall 100% regardless of Bloom false positives — a
// property the test suite checks against the naive oracle.
//
// The estimation phase reads every bucket row it needs on every query,
// but decodes a blob and intersects a bucket pair only when the row is
// not the one it decoded last time: bfhmcache.go keeps decoded buckets
// and pair estimates per index, valid while the fetched row is byte-equal
// to the row they came from. Everything a query shares that way is
// read-only; a query's own working state is in bfhmState.
//
// Where this departs from Section 6 is who persists a reconstructed blob.
// The paper writes it back eagerly (as the query fetches the bucket),
// lazily (after the query) or offline (a pass probing bucket rows for
// mutation records). Only the offline pass is implemented
// (Maintainer.WriteBackAll, shared with DRJN): a query never writes. A
// write-back adds a blob/min/max version and a tombstone per purged
// record to the row, and a read bills every cell it examines, so until a
// major compaction the rewritten row costs more to read, not less; and a
// query served by one replica must not leave its bucket table different
// from its peers'.

// BFHM index storage layout (per Fig. 5):
//
//	table "bfhm_<relation>", family bfhmFamily
//	  row BucketKey(b):
//	    "blob" -> hybrid filter encoding
//	    "min", "max" -> observed score bounds
//	    "i:<rowKey>@<ts>" / "d:<rowKey>@<ts>" -> the mutation-record log
//	      (Sec. 6) that DRJN band rows keep too (maintain.go)
//	  row ReverseMapKey(b, bit):
//	    "<tuple rowKey>" -> EncodeTuple
const (
	bfhmFamily   = "m"
	bfhmBlobQual = "blob"
	bfhmMinQual  = "min"
	bfhmMaxQual  = "max"
)

// BFHMIndex locates one relation's BFHM.
type BFHMIndex struct {
	Table  string
	Layout histogram.Layout
	// MBits is the shared single-hash Bloom filter width (every bucket
	// uses the same width so filters can be intersected).
	MBits uint64

	// cache holds the buckets this index value has decoded and their pair
	// estimates (bfhmcache.go). It is not part of the catalog: an index
	// that is rebuilt, reopened or dropped starts with none.
	cache atomic.Pointer[bfhmCache]
}

// BFHMOptions configures index construction.
type BFHMOptions struct {
	// NumBuckets is the histogram resolution (paper: 100-1000).
	NumBuckets int
	// FPP is the false-positive target used to size the filters for the
	// most heavily populated bucket (paper: 5%).
	FPP float64
	// MBits overrides the filter width directly; when zero it is
	// computed from the heaviest bucket via a counting pass.
	MBits uint64
}

func (o *BFHMOptions) defaults() {
	if o.NumBuckets < 1 {
		o.NumBuckets = 100
	}
	if o.FPP <= 0 || o.FPP >= 1 {
		o.FPP = 0.05
	}
}

// BFHMTableName derives a relation's index table name.
func BFHMTableName(rel *Relation) string { return "bfhm_" + rel.Name }

// BuildBFHM builds one relation's BFHM index with the MapReduce job of
// Algorithm 5. When opts.MBits is zero, a counting job first finds the
// heaviest bucket and sizes the filters for opts.FPP (Section 7.1: "all
// Bloom filters were configured to contain the most heavily populated of
// the buckets with a false positive probability of 5%").
func BuildBFHM(c *kvstore.Cluster, rel Relation, opts BFHMOptions) (*BFHMIndex, []*mapreduce.Result, error) {
	opts.defaults()
	layout, err := histogram.NewLayout(0, 1, opts.NumBuckets)
	if err != nil {
		return nil, nil, err
	}
	var results []*mapreduce.Result

	mbits := opts.MBits
	if mbits == 0 {
		counts, res, err := bfhmCountBuckets(c, rel, layout)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, res)
		var heaviest uint64
		for _, n := range counts {
			if n > heaviest {
				heaviest = n
			}
		}
		mbits = bloom.SingleHashBits(heaviest, opts.FPP)
	}

	idx := &BFHMIndex{Table: BFHMTableName(&rel), Layout: layout, MBits: mbits}
	splits := make([]string, 0, c.Nodes()-1)
	for i := 1; i < c.Nodes(); i++ {
		splits = append(splits, kvstore.BucketKey(opts.NumBuckets*i/c.Nodes()))
	}
	if _, err := c.CreateTable(idx.Table, []string{bfhmFamily}, splits); err != nil {
		return nil, nil, err
	}

	// Algorithm 5: map partitions tuples into buckets; each reduce call
	// handles one bucket, building its hybrid filter and emitting the
	// reverse mappings and the blob row.
	res, err := mapreduce.Run(&mapreduce.Job{
		Name:    "bfhm-index-" + rel.Name,
		Cluster: c,
		Input:   kvstore.Scan{Table: rel.Table, Families: []string{rel.Family}},
		Mapper: mapreduce.MapperFunc(func(row *kvstore.Row, ctx mapreduce.Context) error {
			t, ok := TupleFromRow(&rel, row)
			if !ok {
				ctx.Counter("skipped", 1)
				return nil
			}
			bucket := layout.BucketOf(t.Score)
			ctx.Emit(kvstore.BucketKey(bucket), EncodeTuple(t))
			return nil
		}),
		Reducer: mapreduce.ReducerFunc(func(key string, values [][]byte, ctx mapreduce.Context) error {
			bucketNo, err := bucketFromKey(key)
			if err != nil {
				return err
			}
			bits := make([]uint64, 0, len(values))
			minScore, maxScore := math.Inf(1), math.Inf(-1)
			for _, v := range values {
				t, err := DecodeTuple(v)
				if err != nil {
					return err
				}
				bitPos := bloomBitPos(mbits, t.JoinValue)
				bits = append(bits, bitPos)
				if t.Score < minScore {
					minScore = t.Score
				}
				if t.Score > maxScore {
					maxScore = t.Score
				}
				// Reverse mapping entry (Algorithm 5 line 17).
				ctx.WriteCell(idx.Table, kvstore.Cell{
					Row:       kvstore.ReverseMapKey(bucketNo, bitPos),
					Family:    bfhmFamily,
					Qualifier: t.RowKey,
					Value:     EncodeTuple(t),
				})
			}
			// One sort-and-coalesce per bucket, however populous.
			filter, err := bloom.HybridFromBits(mbits, bits)
			if err != nil {
				return err
			}
			blob, err := filter.Encode()
			if err != nil {
				return err
			}
			// Bucket blob row (Algorithm 5 line 19).
			ctx.WriteCell(idx.Table, kvstore.Cell{Row: key, Family: bfhmFamily, Qualifier: bfhmBlobQual, Value: blob})
			ctx.WriteCell(idx.Table, kvstore.Cell{Row: key, Family: bfhmFamily, Qualifier: bfhmMinQual, Value: kvstore.FloatValue(minScore)})
			ctx.WriteCell(idx.Table, kvstore.Cell{Row: key, Family: bfhmFamily, Qualifier: bfhmMaxQual, Value: kvstore.FloatValue(maxScore)})
			ctx.Counter("buckets", 1)
			return nil
		}),
		NumReducers: c.Nodes(),
	})
	if err != nil {
		return nil, nil, err
	}
	results = append(results, res)
	return idx, results, nil
}

// bfhmCountBuckets runs the counting pass sizing the filters.
func bfhmCountBuckets(c *kvstore.Cluster, rel Relation, layout histogram.Layout) (map[int]uint64, *mapreduce.Result, error) {
	res, err := mapreduce.Run(&mapreduce.Job{
		Name:    "bfhm-count-" + rel.Name,
		Cluster: c,
		Input:   kvstore.Scan{Table: rel.Table, Families: []string{rel.Family}},
		Mapper: mapreduce.MapperFunc(func(row *kvstore.Row, ctx mapreduce.Context) error {
			t, ok := TupleFromRow(&rel, row)
			if !ok {
				return nil
			}
			ctx.Emit(kvstore.BucketKey(layout.BucketOf(t.Score)), []byte{1})
			return nil
		}),
		Combiner: countReducer(),
		Reducer:  countReducer(),
	})
	if err != nil {
		return nil, nil, err
	}
	counts := map[int]uint64{}
	for _, kv := range res.Output {
		b, err := bucketFromKey(kv.Key)
		if err != nil {
			return nil, nil, err
		}
		counts[b] += decodeCount(kv.Value)
	}
	return counts, res, nil
}

func countReducer() mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(key string, values [][]byte, ctx mapreduce.Context) error {
		var n uint64
		for _, v := range values {
			n += decodeCount(v)
		}
		ctx.Emit(key, encodeCount(n))
		return nil
	})
}

// encodeCount/decodeCount serialize partial counts on the MapReduce
// shuffle path; strconv instead of fmt.Sprintf/Sscanf because they run
// once per emitted pair.
func encodeCount(n uint64) []byte {
	var buf [20]byte
	return strconv.AppendUint(buf[:0], n, 10)
}

func decodeCount(b []byte) uint64 {
	if len(b) == 1 && b[0] == 1 {
		return 1
	}
	n, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// bucketFromKey parses the leading decimal digits of a bucket row key
// (zero-padded bucket number, possibly followed by a key separator).
func bucketFromKey(key string) (int, error) {
	end := 0
	for end < len(key) && key[end] >= '0' && key[end] <= '9' {
		end++
	}
	if end == 0 {
		return 0, fmt.Errorf("bfhm: bad bucket key %q", key)
	}
	b, err := strconv.Atoi(key[:end])
	if err != nil {
		return 0, fmt.Errorf("bfhm: bad bucket key %q: %w", key, err)
	}
	return b, nil
}

// bfhmBucket is a fetched, decoded bucket. Once fetchBFHMBucket has
// returned it, it is shared with every later query that reads the same
// row and nothing writes to it, its Filter included.
type bfhmBucket struct {
	No       int
	Min, Max float64
	Filter   *bloom.Hybrid
	Empty    bool
	// id names this decoding of the bucket in pair-estimate keys (zero
	// for a bucket with no row).
	id bfhmEntryID
}

// fetchBFHMBucket reads bucket b and returns it decoded, with its
// mutation-record log replayed. The row is read every time; it is
// decoded only when it differs from the row the index's remembered
// bucket was decoded from.
func fetchBFHMBucket(c *kvstore.Cluster, idx *BFHMIndex, b int) (*bfhmBucket, error) {
	row, err := c.Get(idx.Table, kvstore.BucketKey(b))
	if err != nil {
		return nil, err
	}
	if row == nil {
		return &bfhmBucket{No: b, Empty: true}, nil
	}
	cache := idx.bucketCache()
	if bk := cache.bucket(b, row.Cells); bk != nil {
		return bk, nil
	}
	// The decoded bucket outlives this read, so it is decoded from a copy
	// of the cells that the cache can keep beside it.
	cells := detachCells(row.Cells)
	out, _, err := decodeBFHMBucket(idx, b, cells)
	if err != nil {
		return nil, err
	}
	return cache.publishBucket(out, cells), nil
}

// decodeBFHMBucket builds bucket b from the cells of its row: the blob
// decoded, then the row's mutation-record log replayed over it, which it
// also returns.
func decodeBFHMBucket(idx *BFHMIndex, b int, cells []kvstore.Cell) (*bfhmBucket, recordLog, error) {
	out := &bfhmBucket{No: b, Min: math.Inf(1), Max: math.Inf(-1)}
	var blob []byte
	for i := range cells {
		switch cell := &cells[i]; cell.Qualifier {
		case bfhmBlobQual:
			blob = cell.Value
		case bfhmMinQual:
			if v, ok := kvstore.ParseFloatValue(cell.Value); ok {
				out.Min = v
			}
		case bfhmMaxQual:
			if v, ok := kvstore.ParseFloatValue(cell.Value); ok {
				out.Max = v
			}
		}
	}
	if blob != nil {
		f, err := bloom.DecodeHybrid(blob)
		if err != nil {
			return nil, recordLog{}, fmt.Errorf("bfhm: bucket %d blob: %w", b, err)
		}
		out.Filter = f
	}
	log, err := replayRecords(bfhmFamily, cells, func(ins bool, t Tuple) bool {
		if out.Filter == nil {
			out.Filter = bloom.NewHybrid(idx.MBits) // a bucket created purely by online inserts
		}
		if !ins {
			// Min/Max stay conservative: they cannot shrink without a rebuild.
			out.Filter.Remove(t.JoinValue)
			return true
		}
		out.Filter.Insert(t.JoinValue)
		if t.Score < out.Min {
			out.Min = t.Score
		}
		if t.Score > out.Max {
			out.Max = t.Score
		}
		return true
	})
	if err != nil {
		return nil, recordLog{}, fmt.Errorf("bfhm: bucket %d: %w", b, err)
	}
	if out.Filter == nil {
		return &bfhmBucket{No: b, Empty: true}, log, nil
	}
	out.Empty = blob == nil && out.Filter.N() == 0 && out.Filter.PopCount() == 0
	return out, log, nil
}

// FetchBucketFilter reads one BFHM bucket and returns its hybrid filter
// with any pending online mutations replayed (nil when the bucket is
// empty). The query planner's statistics walk uses it; the read is
// metered like any other client access. The filter is the one the index
// remembers and hands to every query and walk that reads the same bucket
// row, concurrent ones included: callers only read it.
func FetchBucketFilter(c *kvstore.Cluster, idx *BFHMIndex, b int) (*bloom.Hybrid, error) {
	bk, err := fetchBFHMBucket(c, idx, b)
	if err != nil {
		return nil, err
	}
	if bk.Empty || bk.Filter == nil {
		return nil, nil
	}
	return bk.Filter, nil
}

// estimatedResult is one row of the Fig. 6(c) estimation table: a joined
// bucket pair.
type estimatedResult struct {
	bucketA, bucketB int
	bits             []uint64 // a remembered estimate's Bits, shared: read-only
	cardinality      float64
	minScore         float64
	maxScore         float64
}

// bfhmState carries the query's working state across the repair loop.
type bfhmState struct {
	c          *kvstore.Cluster
	k          int
	score      *pairScore // every score is computed on the query's goroutine
	idxA, idxB *BFHMIndex
	// parallelism >= 2 bills the reverse-mapping multi-get batches as a
	// fan-out over that many concurrent lanes (per-region RPCs, grouped
	// by node), instead of as strictly sequential RPCs.
	parallelism int

	bucketsA []*bfhmBucket // fetched, in fetch order (desc score)
	bucketsB []*bfhmBucket
	nextA    int // next bucket number to fetch
	nextB    int
	est      []estimatedResult // in the order the bucket pairs were joined
	estCard  float64
	// estOrder indexes est in descending (maxScore, minScore) order. It
	// covers est[:len(estOrder)]; kthEstimate merges later pairs in.
	estOrder []int

	revCache map[revKey][]Tuple
	top      *TopKList
}

// QueryBFHM runs the two-phase BFHM rank join with the 100%-recall
// repair loop of Section 5.3. It reads and never writes; parallelism is
// the reverse-mapping fan-out (see bfhmState).
func QueryBFHM(c *kvstore.Cluster, t *JoinTree, idxA, idxB *BFHMIndex, parallelism int) (*Result, error) {
	if err := requireBinary("bfhm", t); err != nil {
		return nil, err
	}
	if idxA.MBits != idxB.MBits {
		return nil, fmt.Errorf("bfhm: filter widths differ (%d vs %d); indexes must be built with matching MBits",
			idxA.MBits, idxB.MBits)
	}
	before := c.Metrics().Snapshot()
	st := &bfhmState{
		c: c, k: t.K, score: t.Score.pair(), idxA: idxA, idxB: idxB, parallelism: parallelism,
		revCache: map[revKey][]Tuple{},
		top:      NewTopKList(t.K),
	}

	target := t.K
	shortRounds := 0
	for round := 0; ; round++ {
		if round > 2*(idxA.Layout.Buckets+idxB.Layout.Buckets)+64 {
			return nil, fmt.Errorf("bfhm: repair loop failed to converge")
		}
		fetched, err := st.estimationPhase(target)
		if err != nil {
			return nil, err
		}
		if err := st.reverseMappingPhase(target); err != nil {
			return nil, err
		}
		// Section 5.3 repair checks.
		if st.top.Len() < t.K && !st.exhausted() {
			// k' < k results produced: resume the query processing
			// algorithm, now looking for the top k + (k - k'). The
			// raised target loosens BOTH the estimation termination
			// and the phase-2 purge threshold. Inflated cardinality
			// estimates can keep k' stagnant, so the increment grows
			// geometrically with consecutive short rounds.
			deficit := t.K - st.top.Len()
			if shortRounds < 24 {
				target += deficit << uint(shortRounds)
			} else {
				target *= 2
			}
			shortRounds++
			if fetched == 0 {
				// Estimation believes it is done (cardinality
				// overestimates); force real progress.
				if err := st.forceFetchNext(); err != nil {
					return nil, err
				}
			}
			continue
		}
		if st.top.Len() >= t.K {
			// k or more actual results: compare the k'th actual score
			// with the max attainable score of unfetched buckets; any
			// bucket above it must be examined too.
			kth := st.top.KthScore()
			if st.maxUnfetchedScore() > kth {
				n, err := st.fetchBeyond(kth)
				if err != nil {
					return nil, err
				}
				if n > 0 {
					continue // redo the exact phase with new buckets
				}
			}
		}
		break
	}
	return &Result{Results: st.top.Results(), Cost: c.Metrics().Snapshot().Sub(before)}, nil
}

func (st *bfhmState) exhausted() bool {
	return st.nextA >= st.idxA.Layout.Buckets && st.nextB >= st.idxB.Layout.Buckets
}

// maxUnfetchedScore bounds the best join score any unexamined bucket
// combination could produce, using bucket-boundary bounds as in the
// worked example of Section 5.2.
func (st *bfhmState) maxUnfetchedScore() float64 {
	best := math.Inf(-1)
	if st.nextA < st.idxA.Layout.Buckets {
		s := st.score.of(st.idxA.Layout.MaxScore(st.nextA), st.idxB.Layout.Hi)
		if s > best {
			best = s
		}
	}
	if st.nextB < st.idxB.Layout.Buckets {
		s := st.score.of(st.idxA.Layout.Hi, st.idxB.Layout.MaxScore(st.nextB))
		if s > best {
			best = s
		}
	}
	return best
}

// kthEstimate walks the estimated results in descending max-score order,
// accumulating cardinalities, and returns the (maxScore, minScore) of the
// result containing the k'th estimated tuple. ok is false while fewer
// than k tuples are estimated.
func (st *bfhmState) kthEstimate(k int) (maxScore, minScore float64, ok bool) {
	if st.estCard < float64(k) {
		return 0, 0, false
	}
	st.orderEstimates()
	var acc float64
	for _, i := range st.estOrder {
		acc += st.est[i].cardinality
		if acc >= float64(k) {
			return st.est[i].maxScore, st.est[i].minScore, true
		}
	}
	return 0, 0, false
}

// estBefore is the walk order of kthEstimate: descending maxScore, then
// descending minScore, then the order the pairs were joined in.
func (st *bfhmState) estBefore(i, j int) bool {
	ei, ej := &st.est[i], &st.est[j]
	if ei.maxScore != ej.maxScore {
		return ei.maxScore > ej.maxScore
	}
	if ei.minScore != ej.minScore {
		return ei.minScore > ej.minScore
	}
	return i < j
}

// orderEstimates brings estOrder up to date with est. Algorithm 6 asks
// for the k'th estimate after every bucket fetch, and a fetch appends only
// the new bucket's pairs, so they alone are sorted and then merged into
// the standing order from the back; est is never re-sorted.
func (st *bfhmState) orderEstimates() {
	old := len(st.estOrder)
	if old == len(st.est) {
		return
	}
	fresh := make([]int, len(st.est)-old)
	for i := range fresh {
		fresh[i] = old + i
	}
	sort.Slice(fresh, func(a, b int) bool { return st.estBefore(fresh[a], fresh[b]) })
	st.estOrder = append(st.estOrder, fresh...) // grow; overwritten below
	for i, j, w := old-1, len(fresh)-1, len(st.estOrder)-1; j >= 0; w-- {
		if i >= 0 && st.estBefore(fresh[j], st.estOrder[i]) {
			st.estOrder[w] = st.estOrder[i]
			i--
		} else {
			st.estOrder[w] = fresh[j]
			j--
		}
	}
}

// fetchNext fetches the next bucket of one relation and joins it against
// the other relation's fetched buckets.
func (st *bfhmState) fetchNext(isA bool) error {
	if isA {
		b, err := fetchBFHMBucket(st.c, st.idxA, st.nextA)
		if err != nil {
			return err
		}
		st.nextA++
		st.bucketsA = append(st.bucketsA, b)
		if !b.Empty {
			return st.joinBucketAgainst(b, true)
		}
		return nil
	}
	b, err := fetchBFHMBucket(st.c, st.idxB, st.nextB)
	if err != nil {
		return err
	}
	st.nextB++
	st.bucketsB = append(st.bucketsB, b)
	if !b.Empty {
		return st.joinBucketAgainst(b, false)
	}
	return nil
}

// forceFetchNext pulls one more bucket from each non-exhausted relation.
func (st *bfhmState) forceFetchNext() error {
	if st.nextA < st.idxA.Layout.Buckets {
		if err := st.fetchNext(true); err != nil {
			return err
		}
	}
	if st.nextB < st.idxB.Layout.Buckets {
		if err := st.fetchNext(false); err != nil {
			return err
		}
	}
	return nil
}

// fetchBeyond fetches every remaining bucket whose best attainable join
// score exceeds threshold, returning how many were fetched.
func (st *bfhmState) fetchBeyond(threshold float64) (int, error) {
	n := 0
	for {
		progressed := false
		if st.nextA < st.idxA.Layout.Buckets &&
			st.score.of(st.idxA.Layout.MaxScore(st.nextA), st.idxB.Layout.Hi) > threshold {
			if err := st.fetchNext(true); err != nil {
				return n, err
			}
			n++
			progressed = true
		}
		if st.nextB < st.idxB.Layout.Buckets &&
			st.score.of(st.idxA.Layout.Hi, st.idxB.Layout.MaxScore(st.nextB)) > threshold {
			if err := st.fetchNext(false); err != nil {
				return n, err
			}
			n++
			progressed = true
		}
		if !progressed {
			return n, nil
		}
	}
}

// estimationPhase implements Algorithm 6: fetch buckets alternately,
// join each new bucket against the other relation's fetched buckets, and
// stop once k tuples are estimated and no unexamined combination can
// exceed the k'th estimated tuple's score. It returns the number of
// buckets fetched in this invocation.
func (st *bfhmState) estimationPhase(k int) (int, error) {
	fetched := 0
	// Resume termination check first — the repair loop may re-enter with
	// a higher k after estimation already terminated once.
	if done := st.estimationDone(k); done {
		return fetched, nil
	}
	cur := 0
	if len(st.bucketsA) > len(st.bucketsB) {
		cur = 1
	}
	for {
		if cur == 0 && st.nextA < st.idxA.Layout.Buckets {
			if err := st.fetchNext(true); err != nil {
				return fetched, err
			}
			fetched++
		} else if cur == 1 && st.nextB < st.idxB.Layout.Buckets {
			if err := st.fetchNext(false); err != nil {
				return fetched, err
			}
			fetched++
		}
		if done := st.estimationDone(k); done {
			return fetched, nil
		}
		if st.exhausted() {
			return fetched, nil
		}
		cur = 1 - cur
	}
}

// estimationDone checks the Algorithm 6 termination condition for target
// k: at least k estimated tuples and no unexamined bucket combination
// above the k'th estimated tuple's score.
func (st *bfhmState) estimationDone(k int) bool {
	if st.exhausted() {
		return true
	}
	kthMax, _, ok := st.kthEstimate(k)
	if !ok {
		return false
	}
	return st.maxUnfetchedScore() <= kthMax
}

// joinBucketAgainst joins a newly fetched bucket with every fetched
// bucket of the other relation (Algorithm 6 lines 19-29, Algorithm 7).
func (st *bfhmState) joinBucketAgainst(nb *bfhmBucket, newIsA bool) error {
	others := st.bucketsB
	if !newIsA {
		others = st.bucketsA
	}
	pairs := st.idxA.bucketCache()
	for _, ob := range others {
		if ob.Empty {
			continue
		}
		var a, b *bfhmBucket
		if newIsA {
			a, b = nb, ob
		} else {
			a, b = ob, nb
		}
		est, err := pairs.estimate(a, b)
		if err != nil {
			return err
		}
		if est == nil {
			continue // empty bitmap intersection (Algorithm 7 line 5)
		}
		st.est = append(st.est, estimatedResult{
			bucketA:     a.No,
			bucketB:     b.No,
			bits:        est.Bits,
			cardinality: est.Cardinality,
			minScore:    st.score.of(a.Min, b.Min),
			maxScore:    st.score.of(a.Max, b.Max),
		})
		st.estCard += est.Cardinality
	}
	return nil
}

// reverseMappingPhase implements phase 2 (Section 5.2): purge estimated
// results that cannot reach the target'th estimated tuple's minimum
// score, fetch the reverse mappings behind the survivors, and join
// exactly. The purge threshold combines the estimation-side bound (which
// inflated cardinalities can push too high — hence the repair target)
// with the previous round's k'th ACTUAL score, whichever admits more.
func (st *bfhmState) reverseMappingPhase(target int) error {
	if len(st.est) == 0 {
		return nil
	}
	kthMin := math.Inf(-1)
	if _, m, ok := st.kthEstimate(target); ok {
		kthMin = m
	}
	if st.top.Full() {
		// A full top-k from the previous round bounds the final k'th
		// score from below; keeping everything above it is always
		// recall-safe and never tighter than the true final threshold.
		if ka := st.top.KthScore(); ka < kthMin {
			kthMin = ka
		}
	}
	// Collect the surviving pairs and batch-fetch their reverse-mapping
	// rows (one multi-get RPC per batch — the per-row read units are
	// unchanged, but round trips amortize, as with HBase batched Gets).
	var cands []*estimatedResult
	for i := range st.est {
		er := &st.est[i]
		if er.maxScore < kthMin {
			continue // purged (Section 5.3 keep rule)
		}
		cands = append(cands, er)
	}
	if err := st.prefetchReverse(cands); err != nil {
		return err
	}
	st.top = NewTopKList(st.k)
	for _, er := range cands {
		for _, bit := range er.bits {
			tuplesA := st.revCache[revKey{true, er.bucketA, bit}]
			tuplesB := st.revCache[revKey{false, er.bucketB, bit}]
			for _, ta := range tuplesA {
				for _, tb := range tuplesB {
					if ta.JoinValue != tb.JoinValue {
						continue // Bloom bit collision, not a join
					}
					st.top.Add(JoinResult{
						Left:  ta,
						Right: tb,
						Score: st.score.of(ta.Score, tb.Score),
					})
				}
			}
		}
	}
	return nil
}

// revKey names one reverse-mapping row in a query's cache: which side of
// the join, which bucket, which bit.
type revKey struct {
	sideA  bool
	bucket int
	bit    uint64
}

// revBatchSize rows per multi-get RPC during reverse-mapping fetch.
const revBatchSize = 128

// prefetchReverse multi-gets every not-yet-cached reverse-mapping row
// the candidate pairs need.
func (st *bfhmState) prefetchReverse(cands []*estimatedResult) error {
	type want struct {
		cacheKey revKey
		rowKey   string
	}
	var needA, needB []want
	seen := map[revKey]bool{}
	for _, er := range cands {
		for _, bit := range er.bits {
			ka := revKey{true, er.bucketA, bit}
			if _, ok := st.revCache[ka]; !ok && !seen[ka] {
				seen[ka] = true
				needA = append(needA, want{ka, kvstore.ReverseMapKey(er.bucketA, bit)})
			}
			kb := revKey{false, er.bucketB, bit}
			if _, ok := st.revCache[kb]; !ok && !seen[kb] {
				seen[kb] = true
				needB = append(needB, want{kb, kvstore.ReverseMapKey(er.bucketB, bit)})
			}
		}
	}
	fetch := func(idx *BFHMIndex, need []want) error {
		for start := 0; start < len(need); start += revBatchSize {
			end := start + revBatchSize
			if end > len(need) {
				end = len(need)
			}
			keys := make([]string, 0, end-start)
			for _, w := range need[start:end] {
				keys = append(keys, w.rowKey)
			}
			rows, err := st.c.ParallelMultiGet(idx.Table, keys, st.parallelism)
			if err != nil {
				return err
			}
			for i, row := range rows {
				var out []Tuple
				if row != nil {
					for j := range row.Cells {
						t, err := DecodeTuple(row.Cells[j].Value)
						if err != nil {
							return fmt.Errorf("bfhm: bad reverse mapping in %s: %w", row.Key, err)
						}
						out = append(out, t)
					}
				}
				st.revCache[need[start+i].cacheKey] = out
			}
		}
		return nil
	}
	if err := fetch(st.idxA, needA); err != nil {
		return err
	}
	return fetch(st.idxB, needB)
}
