package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/sim"
)

// coldIndex is a second index value naming the same table: it has
// decoded nothing, so a query through it takes the miss path everywhere.
func coldIndex(idx *BFHMIndex) *BFHMIndex {
	return &BFHMIndex{Table: idx.Table, Layout: idx.Layout, MBits: idx.MBits}
}

// bfhmCacheCounts is a consistent reading of a cache's counters.
type bfhmCacheCounts struct {
	bucketHits, bucketMisses uint64
	pairHits, pairMisses     uint64
	evictions                uint64
	bytes, budget            uint64
	buckets, pairs           int
}

func (c *bfhmCache) counts() bfhmCacheCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := bfhmCacheCounts{
		bucketHits: c.bucketHits, bucketMisses: c.bucketMisses,
		pairHits: c.pairHits, pairMisses: c.pairMisses,
		evictions: c.buckets.Evictions(), bytes: c.buckets.Size(), budget: c.buckets.Cap(),
		buckets: c.buckets.Len(),
	}
	for _, e := range c.buckets.All() {
		n.pairs += len(e.pairs)
	}
	return n
}

// residentPair names one remembered estimate: the decoding of the left
// bucket it hangs off, and the decoding of the right bucket it is for.
type residentPair struct{ left, right bfhmEntryID }

func (c *bfhmCache) residentPairs() map[residentPair]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[residentPair]bool{}
	for _, e := range c.buckets.All() {
		for slot, p := range e.pairs {
			out[residentPair{e.bucket.id, bfhmEntryID{slot.origin, p.serial}}] = true
		}
	}
	return out
}

// checkResident checks what only a BFHM cache promises: each entry is
// filed under its bucket's number and carries an id this cache issued.
// The list, map and byte-total invariants and the bound are the
// container's (FuzzLRU).
func (c *bfhmCache) checkResident(t *testing.T, label string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for no, e := range c.buckets.All() {
		if e.bucket.No != no {
			t.Fatalf("%s: bucket %d filed under %d", label, e.bucket.No, no)
		}
		if e.bucket.id.origin != c.origin {
			t.Fatalf("%s: bucket %d carries another cache's id", label, no)
		}
	}
}

// setBudget shrinks the cache to n bytes, evicting down to them.
func (c *bfhmCache) setBudget(n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buckets.SetCap(n)
}

func mustQueryBFHM(t *testing.T, c *kvstore.Cluster, q *JoinTree, a, b *BFHMIndex) *Result {
	t.Helper()
	res, err := QueryBFHM(c, q, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertWarmIsCold runs q through the indexes that remember and through
// cold values of them, on a store the first run has already warmed, and
// requires the same rows and the same bill; the rows must score like the
// naive join's.
func assertWarmIsCold(t *testing.T, label string, c *kvstore.Cluster, q *JoinTree, a, b *BFHMIndex, coldFirst bool) {
	t.Helper()
	run := func(cold bool) *Result {
		if cold {
			return mustQueryBFHM(t, c, q, coldIndex(a), coldIndex(b))
		}
		return mustQueryBFHM(t, c, q, a, b)
	}
	// The first run also settles the region row caches after a write
	// (their fill costs seek time), so the bill is compared between the
	// second and third.
	first := run(coldFirst)
	second := run(!coldFirst)
	third := run(coldFirst)
	for _, other := range []*Result{first, third} {
		if len(other.Results) != len(second.Results) {
			t.Fatalf("%s: warm and cold return %d and %d rows", label, len(other.Results), len(second.Results))
		}
		for i := range second.Results {
			if !reflect.DeepEqual(other.Results[i], second.Results[i]) {
				t.Fatalf("%s: warm and cold differ at row %d (cold first: %v): %v vs %v", label, i, coldFirst, other.Results[i], second.Results[i])
			}
		}
	}
	if second.Cost != third.Cost {
		t.Fatalf("%s: bills differ (cold first: %v)\nsecond %+v\nthird  %+v", label, coldFirst, second.Cost, third.Cost)
	}
	naive, err := NaiveTopK(c, q)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, label+" vs naive", scoresOf(second.Results), scoresOf(naive.Results))
	verifyResultsAreRealJoins(t, label, second.Results, q.Score)
}

// TestBFHMCacheNeverStale: whatever happens to the bucket rows between
// two queries — maintained inserts, updates, deletes, a delete recorded
// twice, batches, the offline write-back, a rebuild of the index table
// under the same index value — the remembering indexes answer exactly
// like index values that remember nothing, and bill the same.
func TestBFHMCacheNeverStale(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s := newMaintSetup(t, 40+seed)
		rng := rand.New(rand.NewSource(seed))
		sides := []struct {
			m      *Maintainer
			idx    *BFHMIndex
			tuples *[]Tuple
			prefix string
		}{{s.mL, s.bfhmL, &s.left, "l"}, {s.mR, s.bfhmR, &s.right, "r"}}
		fresh := func(prefix string, n int) Tuple {
			return Tuple{
				RowKey:    fmt.Sprintf("%sn%05d", prefix, n),
				JoinValue: fmt.Sprintf("j%d", rng.Intn(20)),
				Score:     float64(rng.Intn(1000)) / 1000,
			}
		}
		var lastDeleted [2]*Tuple
		for step := 0; step < 45; step++ {
			si := rng.Intn(2)
			side := sides[si]
			op := rng.Intn(9)
			label := fmt.Sprintf("seed %d step %d op %d side %s", seed, step, op, side.prefix)
			switch op {
			case 0: // insert
				tp := fresh(side.prefix, step)
				if err := side.m.Write(nil, &tp, 0); err != nil {
					t.Fatal(err)
				}
				*side.tuples = append(*side.tuples, tp)
			case 1: // update, usually across buckets
				i := rng.Intn(len(*side.tuples))
				old := (*side.tuples)[i]
				upd := Tuple{RowKey: old.RowKey, JoinValue: old.JoinValue, Score: float64(rng.Intn(1000)) / 1000}
				if err := side.m.Write(&old, &upd, 0); err != nil {
					t.Fatal(err)
				}
				(*side.tuples)[i] = upd
			case 2: // delete
				i := rng.Intn(len(*side.tuples))
				tp := (*side.tuples)[i]
				if err := side.m.Write(&tp, nil, 0); err != nil {
					t.Fatal(err)
				}
				*side.tuples = append((*side.tuples)[:i], (*side.tuples)[i+1:]...)
				lastDeleted[si] = &tp
			case 3: // the same delete recorded again
				if tp := lastDeleted[si]; tp != nil {
					if err := side.m.Write(tp, nil, 0); err != nil {
						t.Fatal(err)
					}
				}
			case 4: // batch insert
				var batch []Tuple
				for i := 0; i < 5; i++ {
					batch = append(batch, fresh(side.prefix, 1000*(i+1)+step))
				}
				if err := side.m.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
				*side.tuples = append(*side.tuples, batch...)
			case 5: // offline write-back
				if _, err := side.m.WriteBackAll(); err != nil {
					t.Fatal(err)
				}
			case 6: // a read between the writes
				mustQueryBFHM(t, s.c, s.q, s.bfhmL, s.bfhmR)
			case 7: // a read with parallel reverse-mapping fetches
				if _, err := QueryBFHM(s.c, s.q, s.bfhmL, s.bfhmR, 2); err != nil {
					t.Fatal(err)
				}
			case 8: // rebuild the table; the index value, and what it remembers, stay
				rel := s.q.Relations[si]
				if err := s.c.DropTable(side.idx.Table); err != nil {
					t.Fatal(err)
				}
				rebuilt, _, err := BuildBFHM(s.c, rel, BFHMOptions{NumBuckets: side.idx.Layout.Buckets, MBits: side.idx.MBits})
				if err != nil {
					t.Fatal(err)
				}
				if rebuilt.Table != side.idx.Table || rebuilt.Layout != side.idx.Layout {
					t.Fatalf("%s: rebuild changed the index description", label)
				}
			}
			for _, k := range []int{1, 10, 100} {
				assertWarmIsCold(t, fmt.Sprintf("%s k=%d", label, k), s.c, withK(s.q, k), s.bfhmL, s.bfhmR, step%2 == 0)
			}
			s.bfhmL.bucketCache().checkResident(t, label)
			s.bfhmR.bucketCache().checkResident(t, label)
		}
		for _, idx := range []*BFHMIndex{s.bfhmL, s.bfhmR} {
			n := idx.bucketCache().counts()
			if n.bucketHits == 0 || n.bucketMisses == 0 {
				t.Errorf("seed %d %s: %d bucket hits, %d misses — the test exercised one path only", seed, idx.Table, n.bucketHits, n.bucketMisses)
			}
		}
		n := s.bfhmL.bucketCache().counts()
		if n.pairHits == 0 || n.pairMisses == 0 {
			t.Errorf("seed %d: %d pair hits, %d misses", seed, n.pairHits, n.pairMisses)
		}
		// Estimates against replaced right-hand buckets do not pile up: a
		// left bucket keeps one per right-hand bucket number.
		if most := s.bfhmL.Layout.Buckets * s.bfhmR.Layout.Buckets; n.pairs > most {
			t.Errorf("seed %d: %d pair estimates resident, at most %d are reachable", seed, n.pairs, most)
		}
	}
}

// TestBFHMCacheDoesTheWorkOnce: a repeated query decodes no blob and
// intersects no pair; after one maintained insert the next query decodes
// exactly the bucket that took the mutation record and intersects only
// the pairs that bucket is in.
func TestBFHMCacheDoesTheWorkOnce(t *testing.T) {
	s := newMaintSetup(t, 77)
	q := withK(s.q, 10)
	cl, cr := s.bfhmL.bucketCache(), s.bfhmR.bucketCache()

	mustQueryBFHM(t, s.c, q, s.bfhmL, s.bfhmR)
	l0, r0 := cl.counts(), cr.counts()
	if l0.bucketMisses == 0 || r0.bucketMisses == 0 || l0.pairMisses == 0 {
		t.Fatalf("first query decoded %d+%d buckets and intersected %d pairs", l0.bucketMisses, r0.bucketMisses, l0.pairMisses)
	}
	if r0.pairs != 0 {
		t.Fatalf("%d pairs in the right index's cache; pairs belong to the left one", r0.pairs)
	}
	mustQueryBFHM(t, s.c, q, s.bfhmL, s.bfhmR)
	l1, r1 := cl.counts(), cr.counts()
	if l1.bucketMisses != l0.bucketMisses || r1.bucketMisses != r0.bucketMisses || l1.pairMisses != l0.pairMisses {
		t.Fatalf("repeated query decoded %d+%d buckets and intersected %d pairs, want none",
			l1.bucketMisses-l0.bucketMisses, r1.bucketMisses-r0.bucketMisses, l1.pairMisses-l0.pairMisses)
	}
	if l1.bucketHits == l0.bucketHits || r1.bucketHits == r0.bucketHits || l1.pairHits == l0.pairHits {
		t.Fatal("repeated query hit nothing")
	}

	for _, tc := range []struct {
		name            string
		insert          func(*testing.T, Tuple)
		tuple           Tuple
		changed, steady *bfhmCache
		idx             *BFHMIndex
	}{
		// Score 0.999 lands in the top bucket, which every query fetches.
		{"left", s.insertLeft, Tuple{RowKey: "lhot", JoinValue: "j3", Score: 0.999}, cl, cr, s.bfhmL},
		{"right", s.insertRight, Tuple{RowKey: "rhot", JoinValue: "j3", Score: 0.999}, cr, cl, s.bfhmR},
	} {
		known := cl.residentPairs()
		c0, s0 := tc.changed.counts(), tc.steady.counts()
		p0 := cl.counts().pairMisses
		tc.insert(t, tc.tuple)
		mustQueryBFHM(t, s.c, q, s.bfhmL, s.bfhmR)
		c1, s1 := tc.changed.counts(), tc.steady.counts()
		if c1.bucketMisses != c0.bucketMisses+1 || s1.bucketMisses != s0.bucketMisses {
			t.Fatalf("%s insert: decoded %d buckets of its index and %d of the other, want 1 and 0",
				tc.name, c1.bucketMisses-c0.bucketMisses, s1.bucketMisses-s0.bucketMisses)
		}
		// Every pair intersected since holds the re-decoded bucket.
		bucketNo := tc.idx.Layout.BucketOf(tc.tuple.Score)
		tc.changed.mu.Lock()
		id := tc.changed.buckets.Peek(bucketNo).bucket.id
		tc.changed.mu.Unlock()
		added := 0
		for p := range cl.residentPairs() {
			if known[p] {
				continue
			}
			added++
			if p.left != id && p.right != id {
				t.Errorf("%s insert: intersected a pair of two unchanged buckets", tc.name)
			}
		}
		if added == 0 {
			t.Fatalf("%s insert: no pair re-intersected", tc.name)
		}
		if got := cl.counts().pairMisses - p0; got != uint64(added) {
			t.Fatalf("%s insert: %d intersections for %d new pairs", tc.name, got, added)
		}
	}
	s.checkAll(t)
}

// TestBFHMCachePairsPerPartner: an index that is the left side of two
// joins keeps its estimates against both partners; alternating between
// the joins re-intersects nothing.
func TestBFHMCachePairsPerPartner(t *testing.T) {
	s := newMaintSetup(t, 61)
	third := synthTuples("x", 120, 20, "uniform", 661)
	relX := loadRelation(t, s.c, "X", third)
	idxX, _, err := BuildBFHM(s.c, relX, BFHMOptions{NumBuckets: 8, MBits: s.bfhmL.MBits})
	if err != nil {
		t.Fatal(err)
	}
	qx := binaryTree(s.q.Relations[0], relX, Sum, s.q.K)
	for i := 0; i < 2; i++ {
		mustQueryBFHM(t, s.c, s.q, s.bfhmL, s.bfhmR)
		mustQueryBFHM(t, s.c, qx, s.bfhmL, idxX)
	}
	before := s.bfhmL.bucketCache().counts()
	for i := 0; i < 3; i++ {
		mustQueryBFHM(t, s.c, s.q, s.bfhmL, s.bfhmR)
		got := mustQueryBFHM(t, s.c, qx, s.bfhmL, idxX)
		assertScoresEqual(t, "L join X", scoresOf(got.Results), scoresOf(oracleTopK(s.left, third, Sum, qx.K)))
	}
	after := s.bfhmL.bucketCache().counts()
	if after.pairMisses != before.pairMisses || after.pairHits == before.pairHits {
		t.Fatalf("alternating partners: %d pairs re-intersected, %d hit", after.pairMisses-before.pairMisses, after.pairHits-before.pairHits)
	}
}

// TestBFHMCacheEviction: with the budget shrunk until entries are evicted
// mid-query — down to a budget nothing fits in — queries return the same
// rows for the same bill, and the resident bytes stay within it.
func TestBFHMCacheEviction(t *testing.T) {
	s := newMaintSetup(t, 91)
	mustQueryBFHM(t, s.c, withK(s.q, 100), s.bfhmL, s.bfhmR)
	full := s.bfhmL.bucketCache().counts().bytes
	if full < 1024 {
		t.Fatalf("only %d bytes resident after a k=100 query", full)
	}
	for _, budget := range []uint64{full / 2, full / 8, 1} {
		s.bfhmL.bucketCache().setBudget(budget)
		s.bfhmR.bucketCache().setBudget(budget)
		before := s.bfhmL.bucketCache().counts().evictions
		for round := 0; round < 2; round++ {
			for _, k := range []int{1, 10, 100} {
				label := fmt.Sprintf("budget %d round %d k=%d", budget, round, k)
				assertWarmIsCold(t, label, s.c, withK(s.q, k), s.bfhmL, s.bfhmR, round == 0)
				s.bfhmL.bucketCache().checkResident(t, label)
				s.bfhmR.bucketCache().checkResident(t, label)
			}
		}
		// A one-byte budget admits nothing, so nothing resident is left
		// to evict; a larger one must have evicted mid-query.
		if n := s.bfhmL.bucketCache().counts(); budget == 1 && n.buckets != 0 {
			t.Errorf("budget 1: %d buckets resident", n.buckets)
		} else if budget > 1 && n.evictions == before {
			t.Errorf("budget %d: nothing was evicted", budget)
		}
	}
	if n := s.bfhmL.bucketCache().counts(); n.buckets+n.pairs != 0 {
		t.Errorf("%d buckets and %d pairs resident under a one-byte budget", n.buckets, n.pairs)
	}
}

// TestDetachCellsCopies: the cells an entry keeps share no value bytes
// with the fetched row, and are cell for cell equal to it.
func TestDetachCellsCopies(t *testing.T) {
	v1, v2 := []byte("one"), []byte("three")
	src := []kvstore.Cell{
		{Row: "r", Family: "m", Qualifier: "blob", Value: v1, Timestamp: 4},
		{Row: "r", Family: "m", Qualifier: "d:k@7", Timestamp: 5, Tombstone: true},
		{Row: "r", Family: "m", Qualifier: "i:k@9", Value: v2, Timestamp: 6},
	}
	want := fmt.Sprint(src)
	got := detachCells(src)
	if !sameCells(got, src) {
		t.Fatalf("detached cells differ:\ngot  %v\nwant %v", got, src)
	}
	copy(v1, "XXX")
	copy(v2, "XXXXX")
	if fmt.Sprint(got) != want {
		t.Fatalf("detached cells changed with the source:\ngot  %v\nwant %s", got, want)
	}
	if sameCells(got, src) {
		t.Fatal("sameCells does not compare value bytes")
	}
	for i, mutate := range []func(c *kvstore.Cell){
		func(c *kvstore.Cell) { c.Timestamp++ },
		func(c *kvstore.Cell) { c.Tombstone = !c.Tombstone },
		func(c *kvstore.Cell) { c.Qualifier += "x" },
		func(c *kvstore.Cell) { c.Family = "n" },
		func(c *kvstore.Cell) { c.Value = append([]byte(nil), "onf"...) },
	} {
		other := append([]kvstore.Cell(nil), got...)
		mutate(&other[0])
		if sameCells(got, other) {
			t.Errorf("sameCells misses difference %d", i)
		}
	}
	if sameCells(got, got[:2]) {
		t.Error("sameCells misses a missing cell")
	}
}

// TestBFHMCachedBucketSurvivesItsBlock: on a disk-backed store a bucket
// is decoded from views into a cached SSTable block. With that block
// evicted, the file compacted away and the region rebuilt from its WAL,
// the next query still hits the remembered bucket — the read found the
// same row — and answers as before.
func TestBFHMCachedBucketSurvivesItsBlock(t *testing.T) {
	p := sim.LC()
	p.Nodes = 2
	c, err := kvstore.OpenCluster(p, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	left := synthTuples("l", 300, 25, "uniform", 5)
	right := synthTuples("r", 300, 25, "uniform", 6)
	relL, relR := loadRelation(t, c, "L", left), loadRelation(t, c, "R", right)
	q := binaryTree(relL, relR, Sum, 20)
	idxL, _, err := BuildBFHM(c, relL, BFHMOptions{NumBuckets: 10})
	if err != nil {
		t.Fatal(err)
	}
	idxR, _, err := BuildBFHM(c, relR, BFHMOptions{NumBuckets: 10, MBits: idxL.MBits})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// No row cache: every bucket read assembles its row from a block.
	c.SetRowCacheBytes(0)
	first := mustQueryBFHM(t, c, q, idxL, idxR)
	n0 := idxL.bucketCache().counts()

	c.SetBlockCacheBytes(0)
	c.SetBlockCacheBytes(kvstore.DefaultBlockCacheBytes)
	for _, name := range []string{idxL.Table, idxR.Table} {
		regions, err := c.TableRegions(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range regions {
			if err := r.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()

	again := mustQueryBFHM(t, c, q, idxL, idxR)
	n1 := idxL.bucketCache().counts()
	if n1.bucketMisses != n0.bucketMisses || n1.bucketHits == n0.bucketHits {
		t.Fatalf("second query: %d buckets decoded, %d hit; want 0 decoded", n1.bucketMisses-n0.bucketMisses, n1.bucketHits-n0.bucketHits)
	}
	if !reflect.DeepEqual(first.Results, again.Results) {
		t.Fatalf("rows changed:\nfirst %v\nagain %v", first.Results, again.Results)
	}
	cold := mustQueryBFHM(t, c, q, coldIndex(idxL), coldIndex(idxR))
	if !reflect.DeepEqual(cold.Results, again.Results) {
		t.Fatalf("remembered buckets answer differently from decoded ones:\ncold %v\nwarm %v", cold.Results, again.Results)
	}
	assertScoresEqual(t, "vs oracle", scoresOf(again.Results), scoresOf(oracleTopK(left, right, Sum, 20)))
}

// TestBFHMSharedBucketsConcurrentOfflinePass: the offline write-back pass
// decodes buckets through the same index values the queries read, so it
// rewrites rows whose decoded buckets the readers share. Four readers
// (two with parallel reverse-mapping fetches) and the pass over both
// relations run beside a writer; under -race this fails if anything
// writes to a bucket after it was published.
func TestBFHMSharedBucketsConcurrentOfflinePass(t *testing.T) {
	s := newMaintSetup(t, 23)
	const writes = 40
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	report := func(err error) {
		if err != nil {
			select {
			case errc <- err:
			default:
			}
		}
	}
	var extraL, extraR []Tuple
	for i := 0; i < writes; i++ {
		extraL = append(extraL, Tuple{RowKey: fmt.Sprintf("lw%03d", i), JoinValue: fmt.Sprintf("j%d", i%20), Score: float64(999-i*7) / 1000})
		extraR = append(extraR, Tuple{RowKey: fmt.Sprintf("rw%03d", i), JoinValue: fmt.Sprintf("j%d", i%20), Score: float64(998-i*5) / 1000})
	}
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < writes; i++ {
			if err := s.mL.Write(nil, &extraL[i], 0); err != nil {
				report(err)
				return
			}
			if err := s.mR.Write(nil, &extraR[i], 0); err != nil {
				report(err)
				return
			}
		}
	}()
	reader := func(parallelism int) {
		defer wg.Done()
		for i := 0; ; i++ {
			res, err := QueryBFHM(s.c, s.q, s.bfhmL, s.bfhmR, parallelism)
			if err != nil {
				report(fmt.Errorf("parallelism %d: %w", parallelism, err))
				return
			}
			for _, r := range res.Results {
				if r.Left.JoinValue != r.Right.JoinValue {
					report(fmt.Errorf("parallelism %d: non-joining pair %+v", parallelism, r))
				}
			}
			select {
			case <-done:
				if i >= 3 {
					return
				}
			default:
			}
		}
	}
	for _, parallelism := range []int{0, 0, 2, 2} {
		wg.Add(1)
		go reader(parallelism)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, m := range []*Maintainer{s.mL, s.mR} {
				if _, err := m.WriteBackAll(); err != nil {
					report(err)
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	s.left = append(s.left, extraL...)
	s.right = append(s.right, extraR...)
	s.checkAll(t)
	s.writeBackAll(t)
	s.checkAll(t)
	assertWarmIsCold(t, "after the race", s.c, s.q, s.bfhmL, s.bfhmR, false)
}
