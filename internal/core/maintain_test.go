package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/histogram"
	"repro/internal/kvstore"
)

// maintSetup builds a cluster with all indexes and a Maintainer per
// relation.
type maintSetup struct {
	c      *kvstore.Cluster
	q      *JoinTree
	ijlmr  *IJLMRIndex
	lists  *IndexStore // the inverse score lists, by relation
	islL   *ISLIndex
	bfhmL  *BFHMIndex
	bfhmR  *BFHMIndex
	drjnL  *DRJNIndex
	drjnR  *DRJNIndex
	mL, mR *Maintainer
	left   []Tuple
	right  []Tuple
}

func newMaintSetup(t *testing.T, seed int64) *maintSetup {
	t.Helper()
	c := newTestCluster(t)
	left := synthTuples("l", 120, 20, "uniform", seed)
	right := synthTuples("r", 120, 20, "uniform", seed+500)
	relL := loadRelation(t, c, "L", left)
	relR := loadRelation(t, c, "R", right)
	q := binaryTree(relL, relR, Sum, 10)

	ijlmr, _, err := BuildIJLMR(c, q)
	if err != nil {
		t.Fatal(err)
	}
	lists, err := buildLists(c, q)
	if err != nil {
		t.Fatal(err)
	}
	islL, _ := lists.ISL.Get(relL.Name)
	islR, _ := lists.ISL.Get(relR.Name)
	bfhmL, _, err := BuildBFHM(c, relL, BFHMOptions{NumBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	bfhmR, _, err := BuildBFHM(c, relR, BFHMOptions{NumBuckets: 8, MBits: bfhmL.MBits})
	if err != nil {
		t.Fatal(err)
	}
	drjnL, _, err := BuildDRJN(c, relL, DRJNOptions{NumBuckets: 8, JoinParts: 16})
	if err != nil {
		t.Fatal(err)
	}
	drjnR, _, err := BuildDRJN(c, relR, DRJNOptions{NumBuckets: 8, JoinParts: 16})
	if err != nil {
		t.Fatal(err)
	}
	return &maintSetup{
		c: c, q: q, ijlmr: ijlmr, lists: lists, islL: islL, bfhmL: bfhmL, bfhmR: bfhmR,
		drjnL: drjnL, drjnR: drjnR,
		mL: &Maintainer{C: c, Rel: relL,
			IJLMR: []BoundIJLMR{{Idx: ijlmr, Family: ijlmr.Families[0]}},
			ISL:   islL,
			BFHM:  bfhmL, DRJN: drjnL},
		mR: &Maintainer{C: c, Rel: relR,
			IJLMR: []BoundIJLMR{{Idx: ijlmr, Family: ijlmr.Families[1]}},
			ISL:   islR,
			BFHM:  bfhmR, DRJN: drjnR},
		left: left, right: right,
	}
}

// checkAll verifies every index-based algorithm against the oracle for
// the current logical contents — DRJN included, with no rebuild: its
// delta records must keep the band walk converging on fresh data.
func (s *maintSetup) checkAll(t *testing.T) {
	t.Helper()
	want := scoresOf(oracleTopK(s.left, s.right, s.q.Score, s.q.K))

	ij, err := QueryIJLMR(s.c, s.q, s.ijlmr)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, "ijlmr-after-updates", scoresOf(ij.Results), want)

	isl, err := queryISL(s.c, s.q, s.lists, ExecOptions{ISLBatch: 10})
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, "isl-after-updates", scoresOf(isl.Results), want)

	bf, err := QueryBFHM(s.c, s.q, s.bfhmL, s.bfhmR, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, "bfhm-after-updates", scoresOf(bf.Results), want)

	dr, err := RunCursor(s.c, s.q.K, func() (Cursor, error) { return OpenDRJN(s.c, s.q, s.drjnL, s.drjnR) })
	if err != nil {
		t.Fatal(err)
	}
	assertScoresEqual(t, "drjn-after-updates", scoresOf(dr.Results), want)
}

func (s *maintSetup) insertLeft(t *testing.T, tp Tuple) {
	t.Helper()
	if err := s.mL.Write(nil, &tp, 0); err != nil {
		t.Fatal(err)
	}
	s.left = append(s.left, tp)
}

func (s *maintSetup) insertRight(t *testing.T, tp Tuple) {
	t.Helper()
	if err := s.mR.Write(nil, &tp, 0); err != nil {
		t.Fatal(err)
	}
	s.right = append(s.right, tp)
}

func (s *maintSetup) deleteLeft(t *testing.T, i int) {
	t.Helper()
	tp := s.left[i]
	if err := s.mL.Write(&tp, nil, 0); err != nil {
		t.Fatal(err)
	}
	s.left = append(s.left[:i], s.left[i+1:]...)
}

// writeBackAll runs the offline write-back pass over both relations.
func (s *maintSetup) writeBackAll(t *testing.T) {
	t.Helper()
	for _, m := range []*Maintainer{s.mL, s.mR} {
		if _, err := m.WriteBackAll(); err != nil {
			t.Fatal(err)
		}
	}
}

// bfhmRecordCells counts the live mutation records in idx's bucket rows.
func (s *maintSetup) bfhmRecordCells(t *testing.T, idx *BFHMIndex) int {
	t.Helper()
	n := 0
	for b := 0; b < idx.Layout.Buckets; b++ {
		row, err := s.c.Get(idx.Table, kvstore.BucketKey(b))
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			continue
		}
		for _, cell := range row.Cells {
			if strings.HasPrefix(cell.Qualifier, recordInsPfx) || strings.HasPrefix(cell.Qualifier, recordDelPfx) {
				n++
			}
		}
	}
	return n
}

// drjnRebuild is the band matrix a from-scratch DRJN build over a set of
// tuples would produce: per score band, each join partition's count.
type drjnRebuild [][]uint64

func newDRJNRebuild(idx *DRJNIndex, tuples []Tuple) drjnRebuild {
	m := make(drjnRebuild, idx.Layout.Buckets)
	for b := range m {
		m[b] = make([]uint64, idx.JoinParts)
	}
	for _, tp := range tuples {
		m[idx.Layout.BucketOf(tp.Score)][histogram.PartitionOf(tp.JoinValue, idx.JoinParts)]++
	}
	return m
}

// Band returns one score band's partition counts.
func (m drjnRebuild) Band(b int) []uint64 { return m[b] }

func TestMaintenanceInsertions(t *testing.T) {
	s := newMaintSetup(t, 1)
	// Insert tuples that land at the very top of the ranking — the
	// queries MUST see them.
	s.insertLeft(t, Tuple{RowKey: "lnew1", JoinValue: "j3", Score: 0.999})
	s.insertRight(t, Tuple{RowKey: "rnew1", JoinValue: "j3", Score: 0.998})
	s.insertLeft(t, Tuple{RowKey: "lnew2", JoinValue: "j7", Score: 0.42})
	s.checkAll(t)
}

func TestMaintenanceDeletions(t *testing.T) {
	s := newMaintSetup(t, 2)
	// Delete the tuples participating in the current top result.
	want := oracleTopK(s.left, s.right, s.q.Score, 1)
	if len(want) == 0 {
		t.Skip("no joins in workload")
	}
	for i, tp := range s.left {
		if tp.RowKey == want[0].Left.RowKey {
			s.deleteLeft(t, i)
			break
		}
	}
	s.checkAll(t)
}

func TestMaintenanceMixedWorkload(t *testing.T) {
	s := newMaintSetup(t, 3)
	for i := 0; i < 30; i++ {
		s.insertLeft(t, Tuple{
			RowKey:    fmt.Sprintf("lmix%03d", i),
			JoinValue: fmt.Sprintf("j%d", i%20),
			Score:     float64((i*37)%1000) / 1000,
		})
		if i%3 == 0 && len(s.left) > 5 {
			s.deleteLeft(t, i%len(s.left))
		}
		if i%4 == 0 {
			s.insertRight(t, Tuple{
				RowKey:    fmt.Sprintf("rmix%03d", i),
				JoinValue: fmt.Sprintf("j%d", (i*3)%20),
				Score:     float64((i*53)%1000) / 1000,
			})
		}
	}
	s.checkAll(t)
	// The same contents read from reconstructed blobs.
	s.writeBackAll(t)
	s.checkAll(t)
}

func TestBFHMWriteBackPurgesMutationRecords(t *testing.T) {
	s := newMaintSetup(t, 4)
	s.insertLeft(t, Tuple{RowKey: "lwb", JoinValue: "j1", Score: 0.95})

	records := s.bfhmRecordCells(t, s.bfhmL)
	if records == 0 {
		t.Fatal("insertion record missing before write-back")
	}
	// A query replays the records and leaves them where they are.
	s.checkAll(t)
	if n := s.bfhmRecordCells(t, s.bfhmL); n != records {
		t.Fatalf("%d mutation records after a query, %d before", n, records)
	}
	// The offline pass folds them into the blob and purges them.
	if _, err := s.mL.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if n := s.bfhmRecordCells(t, s.bfhmL); n != 0 {
		t.Fatalf("%d mutation records survive the offline write-back", n)
	}
	// Results must still be correct after the write-back.
	s.checkAll(t)
}

func TestBFHMOfflineWriteBack(t *testing.T) {
	s := newMaintSetup(t, 5)
	for i := 0; i < 10; i++ {
		s.insertLeft(t, Tuple{
			RowKey:    fmt.Sprintf("loff%02d", i),
			JoinValue: fmt.Sprintf("j%d", i%20),
			Score:     float64(i) / 10,
		})
	}
	n, err := s.mL.WriteBackAll()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("offline write-back found no dirty buckets")
	}
	if n := s.bfhmRecordCells(t, s.bfhmL); n != 0 {
		t.Fatalf("%d mutation records survive the offline write-back", n)
	}
	// Second pass: everything clean.
	n, err = s.mL.WriteBackAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("second write-back still found %d dirty buckets", n)
	}
	s.checkAll(t)
}

func TestMaintenanceTimestampsShared(t *testing.T) {
	// The base row and the index entries of one insertion must carry the
	// same timestamp (Section 6's consistency treatment).
	s := newMaintSetup(t, 6)
	tp := Tuple{RowKey: "lts", JoinValue: "j2", Score: 0.5}
	s.insertLeft(t, tp)

	baseRow, err := s.c.Get(s.q.Relations[0].Table(), tp.RowKey)
	if err != nil || baseRow == nil {
		t.Fatalf("base row: %v %v", baseRow, err)
	}
	baseTS := baseRow.Cells[0].Timestamp

	idxRow, err := s.c.Get(s.ijlmr.Table, tp.JoinValue)
	if err != nil || idxRow == nil {
		t.Fatalf("ijlmr row: %v %v", idxRow, err)
	}
	cell := idxRow.Cell(s.ijlmr.Families[0], tp.RowKey)
	if cell == nil {
		t.Fatal("ijlmr entry missing")
	}
	if cell.Timestamp != baseTS {
		t.Fatalf("ijlmr ts %d != base ts %d", cell.Timestamp, baseTS)
	}

	islRow, err := s.c.Get(s.islL.Table, kvstore.EncodeScoreDesc(tp.Score))
	if err != nil || islRow == nil {
		t.Fatalf("isl row: %v %v", islRow, err)
	}
	icell := islRow.Cell(s.q.Relations[0].Name, tp.RowKey)
	if icell == nil || icell.Timestamp != baseTS {
		t.Fatalf("isl ts mismatch: %+v vs %d", icell, baseTS)
	}
}

func TestMaintainerValidation(t *testing.T) {
	s := newMaintSetup(t, 7)
	live := Tuple{RowKey: "l1", JoinValue: "j1", Score: 0.5}
	for _, c := range []struct {
		name     string
		old, new *Tuple
	}{
		{"empty insert", nil, &Tuple{}},
		{"update without join value", &live, &Tuple{RowKey: "l1"}},
		{"update moving the row key", &live, &Tuple{RowKey: "l2", JoinValue: "j1", Score: 0.5}},
		{"no tuple at all", nil, nil},
	} {
		if err := s.mL.Write(c.old, c.new, 0); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func (s *maintSetup) updateLeft(t *testing.T, i int, joinValue string, score float64) {
	t.Helper()
	old := s.left[i]
	new := Tuple{RowKey: old.RowKey, JoinValue: joinValue, Score: score}
	if err := s.mL.Write(&old, &new, 0); err != nil {
		t.Fatal(err)
	}
	s.left[i] = new
}

func TestMaintenanceUpdates(t *testing.T) {
	s := newMaintSetup(t, 8)
	// Score-only update within the same band, a cross-band score jump,
	// a join-value change, and a change of both.
	s.updateLeft(t, 0, s.left[0].JoinValue, s.left[0].Score) // no-op overwrite
	s.updateLeft(t, 1, s.left[1].JoinValue, 0.997)           // to the very top
	s.updateLeft(t, 2, "j3", 0.001)                          // to the bottom, new join
	s.updateLeft(t, 3, "j7", s.left[3].Score)                // join only
	// Repeated mutations of ONE online-inserted key within one BFHM
	// bucket / DRJN band (8 buckets, width 0.125): the later records
	// must not shadow the earlier, not-yet-replayed ones.
	s.insertLeft(t, Tuple{RowKey: "lup9", JoinValue: "j1", Score: 0.55})
	s.updateLeft(t, len(s.left)-1, "j2", 0.56)
	s.updateLeft(t, len(s.left)-1, "j1", 0.57)
	s.checkAll(t)
	s.writeBackAll(t)
	s.checkAll(t)
}

func TestUpdatePurgesOldISLEntry(t *testing.T) {
	// A re-scored tuple must not survive at its old inverse-score-list
	// position: that stale entry is what used to produce phantom results
	// when callers re-inserted an existing row key with a new score.
	s := newMaintSetup(t, 9)
	old := s.left[0]
	s.updateLeft(t, 0, old.JoinValue, old.Score/2+0.001)

	row, err := s.c.Get(s.islL.Table, kvstore.EncodeScoreDesc(old.Score))
	if err != nil {
		t.Fatal(err)
	}
	if row != nil {
		if cell := row.Cell(s.q.Relations[0].Name, old.RowKey); cell != nil && !cell.Tombstone {
			t.Fatalf("stale ISL entry for %s survives at old score %v", old.RowKey, old.Score)
		}
	}
	s.checkAll(t)
}

func TestMaintenanceErrorNamesDivergentIndex(t *testing.T) {
	s := newMaintSetup(t, 10)
	// Inject an index-write failure AFTER the base write: retire the
	// DRJN index table out from under the maintainer.
	if err := s.c.DropTable(s.drjnL.Table); err != nil {
		t.Fatal(err)
	}
	tp := Tuple{RowKey: "ldiv", JoinValue: "j5", Score: 0.77}
	err := s.mL.Write(nil, &tp, 0)
	me, ok := err.(*MaintenanceError)
	if !ok {
		t.Fatalf("error %v (%T), want *MaintenanceError", err, err)
	}
	if me.Index != "drjn" || me.Table != s.drjnL.Table {
		t.Fatalf("diverged at %s/%s, want drjn/%s", me.Index, me.Table, s.drjnL.Table)
	}
	if me.Timestamp == 0 {
		t.Fatal("MaintenanceError carries no timestamp for re-apply")
	}
	// The divergence is real: base and the earlier indexes got the write.
	found := false
	for _, tbl := range me.Applied {
		if tbl == s.q.Relations[0].Table() {
			found = true
		}
	}
	if !found {
		t.Fatalf("applied %v does not include the base table", me.Applied)
	}

	// Heal the cause, re-apply the same logical mutation with the same
	// timestamp: idempotent for what already landed, completes the rest.
	if _, err := s.c.CreateTable(s.drjnL.Table, []string{drjnFamily}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.mL.Write(nil, &tp, me.Timestamp); err != nil {
		t.Fatalf("re-apply: %v", err)
	}
	s.left = append(s.left, tp)
	// Everything converged — every executor (DRJN queries the recreated,
	// record-only table and must still be exact) agrees with the oracle.
	s.checkAll(t)

	// The re-apply reused the timestamp: base and ISL agree on it.
	row, err := s.c.Get(s.q.Relations[0].Table(), tp.RowKey)
	if err != nil || row == nil {
		t.Fatalf("base row: %v %v", row, err)
	}
	if ts := row.Cells[0].Timestamp; ts != me.Timestamp {
		t.Errorf("base ts %d != re-applied ts %d", ts, me.Timestamp)
	}
}

func TestDRJNDeltaCountsMatchRebuild(t *testing.T) {
	s := newMaintSetup(t, 11)
	// Mixed online workload: inserts (including into empty bands),
	// deletes, and updates.
	s.insertLeft(t, Tuple{RowKey: "ld1", JoinValue: "j2", Score: 0.999})
	s.insertLeft(t, Tuple{RowKey: "ld2", JoinValue: "j4", Score: 0.0001})
	s.deleteLeft(t, 5)
	s.updateLeft(t, 7, "j9", 0.42)
	s.insertLeft(t, Tuple{RowKey: "ld3", JoinValue: "j2", Score: 0.5})
	s.deleteLeft(t, len(s.left)-1)
	// Collision scenarios: repeated mutations of one row key whose
	// records all land on the same band row (8 bands, width 0.125) —
	// a row-key-only record qualifier would let each later record
	// shadow the earlier one and corrupt the replayed counts.
	s.insertLeft(t, Tuple{RowKey: "ldc", JoinValue: "j2", Score: 0.50})
	s.updateLeft(t, len(s.left)-1, "j9", 0.52)
	s.insertLeft(t, Tuple{RowKey: "ldd", JoinValue: "j5", Score: 0.30})
	s.deleteLeft(t, len(s.left)-1)
	s.insertLeft(t, Tuple{RowKey: "ldd", JoinValue: "j6", Score: 0.31})

	// Oracle: the matrix a from-scratch build over the live tuples
	// would produce.
	want := newDRJNRebuild(s.drjnL, s.left)

	got, err := FetchAllBands(s.c, s.drjnL)
	if err != nil {
		t.Fatal(err)
	}
	for band := 0; band < s.drjnL.Layout.Buckets; band++ {
		wantCells := want.Band(band)
		for part := 0; part < s.drjnL.JoinParts; part++ {
			var g uint64
			if got[band] != nil {
				g = got[band].Cells[part]
			}
			if g != wantCells[part] {
				t.Errorf("band %d part %d: online count %d, rebuild %d", band, part, g, wantCells[part])
			}
		}
	}
}

func TestMaintenanceSingleWriteRPC(t *testing.T) {
	// The write-through pipeline ships a tuple's base + every-index
	// mutation as ONE batched write RPC; the per-cell path used to pay
	// one round trip per cell (base row + IJLMR + ISL + BFHM x2 + DRJN
	// = 6+ RPCs for this setup).
	s := newMaintSetup(t, 12)
	before := s.c.Metrics().Snapshot()
	s.insertLeft(t, Tuple{RowKey: "lrpc", JoinValue: "j1", Score: 0.5})
	d := s.c.Metrics().Snapshot().Sub(before)
	if d.RPCCalls != 1 {
		t.Errorf("maintained insert cost %d RPCs, want 1", d.RPCCalls)
	}
	if d.KVWrites < 6 {
		t.Errorf("maintained insert wrote %d cells, want >= 6 (base x2, ijlmr, isl, bfhm x2, drjn)", d.KVWrites)
	}
	s.checkAll(t)
}

func TestInsertBatchMaintainsAllIndexes(t *testing.T) {
	s := newMaintSetup(t, 13)
	var batch []Tuple
	for i := 0; i < 40; i++ {
		batch = append(batch, Tuple{
			RowKey:    fmt.Sprintf("lb%03d", i),
			JoinValue: fmt.Sprintf("j%d", i%20),
			Score:     float64((i*61)%1000) / 1000,
		})
	}
	before := s.c.Metrics().Snapshot()
	if err := s.mL.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	d := s.c.Metrics().Snapshot().Sub(before)
	// 40 tuples fit one chunk: one group write, not 40.
	if d.RPCCalls != 1 {
		t.Errorf("InsertBatch cost %d RPCs, want 1", d.RPCCalls)
	}
	s.left = append(s.left, batch...)
	s.checkAll(t)
}

func TestDRJNWriteBackConsolidatesDeltaRecords(t *testing.T) {
	s := newMaintSetup(t, 14)
	s.insertLeft(t, Tuple{RowKey: "lwc1", JoinValue: "j2", Score: 0.97})
	s.insertLeft(t, Tuple{RowKey: "lwc2", JoinValue: "j4", Score: 0.21})
	s.updateLeft(t, len(s.left)-1, "j5", 0.22)
	s.deleteLeft(t, 3)

	countRecords := func() int {
		rows, err := s.c.ScanAll(kvstore.Scan{Table: s.drjnL.Table})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for i := range rows {
			for _, cell := range rows[i].Cells {
				if len(cell.Qualifier) > 2 && (cell.Qualifier[:2] == recordInsPfx || cell.Qualifier[:2] == recordDelPfx) {
					n++
				}
			}
		}
		return n
	}
	if countRecords() == 0 {
		t.Fatal("no delta records before write-back")
	}
	n, err := s.mL.WriteBackAll()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("write-back folded nothing")
	}
	if got := countRecords(); got != 0 {
		t.Fatalf("%d delta records survive consolidation", got)
	}
	// The consolidated blobs must equal a from-scratch rebuild.
	want := newDRJNRebuild(s.drjnL, s.left)
	got, err := FetchAllBands(s.c, s.drjnL)
	if err != nil {
		t.Fatal(err)
	}
	for band := 0; band < s.drjnL.Layout.Buckets; band++ {
		for part := 0; part < s.drjnL.JoinParts; part++ {
			var g uint64
			if got[band] != nil {
				g = got[band].Cells[part]
			}
			if g != want.Band(band)[part] {
				t.Errorf("band %d part %d: consolidated %d, rebuild %d", band, part, g, want.Band(band)[part])
			}
		}
	}
	// Second pass: nothing left to fold.
	if n, err = s.mL.WriteBackAll(); err != nil || n != 0 {
		t.Fatalf("second write-back folded %d structures (%v)", n, err)
	}
	s.checkAll(t)
}

func TestRepeatedDeleteReplaysOnce(t *testing.T) {
	// Record qualifiers are timestamp-suffixed, so a retried Delete of
	// the same tuple leaves TWO delete records; replay must apply the
	// deletion once, not decrement counting-filter bits and band counts
	// a second time (they are shared with live tuples).
	s := newMaintSetup(t, 15)
	// Two live tuples share a join value; delete one of them twice.
	keep := Tuple{RowKey: "lkeep", JoinValue: "jdup", Score: 0.61}
	gone := Tuple{RowKey: "lgone", JoinValue: "jdup", Score: 0.62} // same BFHM bucket / DRJN band as keep
	s.insertLeft(t, keep)
	s.insertLeft(t, gone)
	s.insertRight(t, Tuple{RowKey: "rdup", JoinValue: "jdup", Score: 0.99})
	s.deleteLeft(t, len(s.left)-1)
	if err := s.mL.Write(&gone, nil, 0); err != nil { // the retry
		t.Fatal(err)
	}
	// keep must still join on jdup everywhere (a double-applied Remove
	// would clear its shared filter bit), and DRJN counts must match a
	// rebuild (a double decrement would corrupt the shared band cell).
	s.checkAll(t)
	want := newDRJNRebuild(s.drjnL, s.left)
	got, err := FetchAllBands(s.c, s.drjnL)
	if err != nil {
		t.Fatal(err)
	}
	band := s.drjnL.Layout.BucketOf(keep.Score)
	part := histogram.PartitionOf(keep.JoinValue, s.drjnL.JoinParts)
	if got[band] == nil || got[band].Cells[part] != want.Band(band)[part] {
		var g uint64
		if got[band] != nil {
			g = got[band].Cells[part]
		}
		t.Fatalf("band %d part %d: online count %d after repeated delete, rebuild %d", band, part, g, want.Band(band)[part])
	}
	// Same invariant after write-back consolidation.
	if _, err := s.mL.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	s.checkAll(t)
}

// TestRecordLog drives the mutation-record log directly: the order its
// records replay in, the ones it drops, what it leaves for the offline
// pass, and DRJN's use of it.
func TestRecordLog(t *testing.T) {
	layout, err := histogram.NewLayout(0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The DRJN rows below store a two-partition band under a
	// four-partition index: jIn's partition is inside the band's cells,
	// jOut's is not.
	idx := &DRJNIndex{Layout: layout, JoinParts: 4}
	var jIn, jOut string
	for i := 0; jIn == "" || jOut == ""; i++ {
		jv := fmt.Sprintf("j%d", i)
		if histogram.PartitionOf(jv, idx.JoinParts) < 2 {
			jIn = jv
		} else {
			jOut = jv
		}
	}
	rec := func(ins bool, key, jv string, ts int64) kvstore.Cell {
		return recordCell(layout, drjnFamily, ins, Tuple{RowKey: key, JoinValue: jv, Score: 0.5}, ts)
	}
	band := kvstore.Cell{Family: drjnFamily, Qualifier: drjnBandQual,
		Value: histogram.MarshalBandData([]uint64{3, 3}, 0.5, 0.5, true)}
	bandPlusIn := []uint64{3, 3}
	bandPlusIn[histogram.PartitionOf(jIn, idx.JoinParts)]++
	otherFamily := rec(true, "b", jIn, 4)
	otherFamily.Family = "x"
	malformed := rec(false, "a", jIn, 2)
	malformed.Value = []byte("not a tuple")

	cases := []struct {
		name    string
		cells   []kvstore.Cell
		want    string   // the records apply took, in replay order
		records int      // records left for the offline pass to purge
		newest  int64    // the newest record's timestamp
		band    []uint64 // when set, decodeBandRow's partition counts
		wantErr string
	}{
		{name: "timestamp order",
			cells: []kvstore.Cell{rec(true, "c", jIn, 3), rec(true, "b", jIn, 2), rec(true, "a", jIn, 1)},
			want:  "+a +b +c", records: 3, newest: 3},
		{name: "update nets to replaced",
			cells: []kvstore.Cell{rec(true, "a", jIn, 1), rec(true, "a", jOut, 5), rec(false, "a", jIn, 5)},
			want:  "+a -a +a", records: 3, newest: 5},
		{name: "retried delete applied once",
			cells: []kvstore.Cell{rec(true, "a", jIn, 1), rec(false, "a", jIn, 2), rec(false, "a", jIn, 3)},
			want:  "+a -a", records: 3, newest: 3},
		{name: "blind double insert applied once",
			cells: []kvstore.Cell{rec(true, "a", jIn, 1), rec(true, "a", jIn, 2)},
			want:  "+a", records: 2, newest: 2},
		{name: "insert delete insert",
			cells: []kvstore.Cell{rec(true, "a", jIn, 1), rec(false, "a", jIn, 2), rec(true, "a", jIn, 3)},
			want:  "+a -a +a", records: 3, newest: 3},
		{name: "drjn skips an out-of-range partition",
			cells: []kvstore.Cell{band, rec(true, "a", jOut, 1), rec(true, "a", jIn, 2)},
			want:  "+a", records: 2, newest: 2, band: bandPlusIn},
		{name: "drjn ignores another family",
			cells: []kvstore.Cell{band, otherFamily, rec(true, "a", jIn, 1)},
			want:  "+a", records: 1, newest: 1, band: bandPlusIn},
		{name: "no records",
			cells: []kvstore.Cell{band},
			band:  []uint64{3, 3}},
		{name: "malformed record",
			cells:   []kvstore.Cell{rec(true, "a", jIn, 1), malformed},
			wantErr: fmt.Sprintf("%q in family %q", malformed.Qualifier, drjnFamily)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var took []string
			log, err := replayRecords(drjnFamily, tc.cells, func(ins bool, tp Tuple) bool {
				if tp.JoinValue == jOut && tc.band != nil {
					return false // as DRJN refuses a partition outside the band
				}
				took = append(took, map[bool]string{true: "+", false: "-"}[ins]+tp.RowKey)
				return true
			})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one naming %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(took, " "); got != tc.want {
				t.Errorf("replayed %q, want %q", got, tc.want)
			}
			if len(log.quals) != tc.records || log.newest != tc.newest {
				t.Errorf("log holds %d records, newest at %d; want %d, newest at %d",
					len(log.quals), log.newest, tc.records, tc.newest)
			}
			if tc.band == nil {
				return
			}
			bd, blog, err := decodeBandRow(idx, 0, &kvstore.Row{Cells: tc.cells})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(bd.Cells) != fmt.Sprint(tc.band) {
				t.Errorf("band counts %v, want %v", bd.Cells, tc.band)
			}
			if fmt.Sprint(blog) != fmt.Sprint(log) {
				t.Errorf("decodeBandRow left %+v for the offline pass, the log %+v", blog, log)
			}
		})
	}
}

// TestMaintainedEntriesEqualBuiltEntries holds the Section 6 write path
// to the build jobs cell by cell: after inserts, updates and deletes
// through Maintainer.Write, the base rows and the IJLMR, ISL and BFHM
// reverse-mapping entries live in the store must be exactly the cells a
// fresh load and build write over the same tuples (row, family,
// qualifier and value; timestamps aside). BFHM's width is pinned so both
// sides place a tuple under the same Bloom bit; its bucket rows differ
// by design (a blob at build time, mutation records at write time) and
// are left out.
func TestMaintainedEntriesEqualBuiltEntries(t *testing.T) {
	const ijlmrTable = "ijlmr_entries"
	bfhmOpts := BFHMOptions{NumBuckets: 8, MBits: 512}
	build := func(c *kvstore.Cluster, rel Relation) *Maintainer {
		t.Helper()
		if _, err := c.CreateTable(ijlmrTable, []string{rel.Name}, hashSplits(c.Nodes())); err != nil {
			t.Fatal(err)
		}
		if _, err := BuildIJLMRRelation(c, rel, ijlmrTable, rel.Name); err != nil {
			t.Fatal(err)
		}
		isl, _, err := BuildISLRelation(c, rel)
		if err != nil {
			t.Fatal(err)
		}
		bfhm, _, err := BuildBFHM(c, rel, bfhmOpts)
		if err != nil {
			t.Fatal(err)
		}
		return &Maintainer{C: c, Rel: rel,
			IJLMR: []BoundIJLMR{{Idx: &IJLMRIndex{Table: ijlmrTable, Families: []string{rel.Name}}, Family: rel.Name}},
			ISL:   isl, BFHM: bfhm}
	}
	// entries lists a table's live cells without timestamps, sorted;
	// keep drops the cells a comparison leaves out.
	entries := func(c *kvstore.Cluster, table string, keep func(*kvstore.Cell) bool) []string {
		t.Helper()
		cells, err := c.TableCells(table)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := range cells {
			if keep(&cells[i]) {
				out = append(out, fmt.Sprintf("%s/%s:%s=%q", cells[i].Row, cells[i].Family, cells[i].Qualifier, cells[i].Value))
			}
		}
		slices.Sort(out)
		return out
	}

	initial := synthTuples("k", 150, 25, "uniform", 71)
	maintained := newTestCluster(t)
	m := build(maintained, loadRelation(t, maintained, "L", initial))
	live := map[string]Tuple{}
	for _, tp := range initial {
		live[tp.RowKey] = tp
	}
	for _, tp := range synthTuples("n", 40, 25, "squared", 72) {
		if err := m.Write(nil, &tp, 0); err != nil {
			t.Fatal(err)
		}
		live[tp.RowKey] = tp
	}
	for i, tp := range initial[:20] {
		switch {
		case i%2 == 0: // a new score and join value under the same key
			up := Tuple{RowKey: tp.RowKey, JoinValue: fmt.Sprintf("j%d", 100+i), Score: float64(i) / 40}
			if err := m.Write(&tp, &up, 0); err != nil {
				t.Fatal(err)
			}
			live[tp.RowKey] = up
		default:
			if err := m.Write(&tp, nil, 0); err != nil {
				t.Fatal(err)
			}
			delete(live, tp.RowKey)
		}
	}

	var final []Tuple
	for _, tp := range live {
		final = append(final, tp)
	}
	slices.SortFunc(final, func(a, b Tuple) int { return strings.Compare(a.RowKey, b.RowKey) })
	fresh := newTestCluster(t)
	built := build(fresh, loadRelation(t, fresh, "L", final))

	// minus lists the entries of sorted a that sorted b lacks.
	minus := func(a, b []string) (out []string) {
		for _, e := range a {
			if _, ok := slices.BinarySearch(b, e); !ok {
				out = append(out, e)
			}
		}
		return out
	}
	all := func(*kvstore.Cell) bool { return true }
	reverseMap := func(c *kvstore.Cell) bool { return strings.Contains(c.Row, kvstore.KeySep) }
	for _, tc := range []struct {
		name, table string
		keep        func(*kvstore.Cell) bool
	}{
		{"base", m.Rel.Table(), all},
		{"ijlmr", ijlmrTable, all},
		{"isl", m.ISL.Table, all},
		{"bfhm reverse mapping", m.BFHM.Table, reverseMap},
	} {
		got, want := entries(maintained, tc.table, tc.keep), entries(fresh, tc.table, tc.keep)
		if len(want) == 0 {
			t.Fatalf("%s: the fresh build wrote no entries", tc.name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d maintained entries, %d built; only maintained: %v; only built: %v",
				tc.name, len(got), len(want), minus(got, want), minus(want, got))
		}
	}
	if built.BFHM.MBits != m.BFHM.MBits || built.BFHM.Layout != m.BFHM.Layout {
		t.Fatalf("bfhm widths differ: %d/%v vs %d/%v", built.BFHM.MBits, built.BFHM.Layout, m.BFHM.MBits, m.BFHM.Layout)
	}
}
