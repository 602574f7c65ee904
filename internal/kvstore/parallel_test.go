package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// loadSplitTable creates a table pre-split across nodes and loads n rows
// spread evenly over the key space.
func loadSplitTable(t *testing.T, c *Cluster, name string, n int) []string {
	t.Helper()
	splits := []string{"r2", "r4", "r6", "r8"}
	mustCreate(t, c, name, []string{"cf"}, splits)
	var cells []Cell
	rows := make([]string, 0, n)
	for i := 0; i < n; i++ {
		row := fmt.Sprintf("r%d", i%10) + fmt.Sprintf("x%04d", i)
		rows = append(rows, row)
		cells = append(cells, Cell{Row: row, Family: "cf", Qualifier: "q", Value: []byte("v")})
	}
	if err := c.BatchPut(name, cells); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestCreateTableDedupsSplitKeys(t *testing.T) {
	c := testCluster(t)
	tab, err := c.CreateTable("t", []string{"cf"}, []string{"m", "m", "d", "m"})
	if err != nil {
		t.Fatal(err)
	}
	regions := tab.Regions()
	// Splits {d, m} -> 3 regions, not the 5 a duplicate-preserving split
	// list would produce (with two degenerate ["m","m") shards).
	if len(regions) != 3 {
		t.Fatalf("got %d regions, want 3", len(regions))
	}
	for _, r := range regions {
		if r.StartKey() != "" && r.StartKey() == r.EndKey() {
			t.Errorf("degenerate region [%q, %q)", r.StartKey(), r.EndKey())
		}
	}
	if _, err := c.CreateTable("t2", []string{"cf"}, []string{"a", ""}); err == nil {
		t.Error("empty split key accepted")
	}
}

func TestParallelMultiGetMatchesSequential(t *testing.T) {
	seq := testCluster(t)
	par := testCluster(t)
	rows := loadSplitTable(t, seq, "t", 200)
	loadSplitTable(t, par, "t", 200)
	// In disk mode, flush so gets pay measured per-block seeks, and
	// disable the shared block cache so those seeks stay per-row (the
	// premise of the seek-amortization assertions below) instead of
	// collapsing onto a handful of cold block fetches. Both are no-ops
	// in memory mode.
	for _, c := range []*Cluster{seq, par} {
		regs, _ := c.TableRegions("t")
		for _, r := range regs {
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		c.SetBlockCacheBytes(0)
	}

	seqBefore := seq.Metrics().Snapshot()
	want, err := seq.MultiGet("t", rows)
	if err != nil {
		t.Fatal(err)
	}
	seqDelta := seq.Metrics().Snapshot().Sub(seqBefore)
	seqTime := seqDelta.SimTime

	before := par.Metrics().Snapshot()
	got, err := par.ParallelMultiGet("t", rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	delta := par.Metrics().Snapshot().Sub(before)

	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		switch {
		case (want[i] == nil) != (got[i] == nil):
			t.Fatalf("row %d presence mismatch", i)
		case want[i] != nil && got[i].Key != want[i].Key:
			t.Fatalf("row %d: got key %q, want %q", i, got[i].Key, want[i].Key)
		}
	}

	// Same data read: identical read units and returned rows.
	if delta.KVReads != seqDelta.KVReads {
		t.Errorf("parallel read units %d != sequential %d", delta.KVReads, seqDelta.KVReads)
	}
	// One RPC per region touched (5 regions) instead of 1; the clock
	// advances by the slowest lane, well under the sequential total.
	if delta.RPCCalls != 5 {
		t.Errorf("got %d RPCs, want 5 (one per region)", delta.RPCCalls)
	}
	parTime := delta.SimTime
	if parTime >= seqTime {
		t.Errorf("parallel multi-get time %v not below sequential %v", parTime, seqTime)
	}
	// 200 seeks over 4 lanes should cut the seek-dominated cost roughly
	// in proportion; insist on at least a 2x improvement.
	if parTime > seqTime/2 {
		t.Errorf("parallel multi-get time %v, want <= half of sequential %v", parTime, seqTime)
	}
}

func TestParallelMultiGetMissingRowsAndFallback(t *testing.T) {
	c := testCluster(t)
	rows := loadSplitTable(t, c, "t", 20)
	keys := append([]string{"absent0"}, rows[:5]...)
	keys = append(keys, "r9zzz")
	got, err := c.ParallelMultiGet("t", keys, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != nil || got[len(got)-1] != nil {
		t.Error("missing rows should yield nil entries")
	}
	for i := 1; i < 6; i++ {
		if got[i] == nil || got[i].Key != keys[i] {
			t.Errorf("row %d missing or wrong key", i)
		}
	}
	// parallelism <= 1 must behave exactly like MultiGet (one RPC).
	before := c.Metrics().Snapshot()
	if _, err := c.ParallelMultiGet("t", rows[:10], 1); err != nil {
		t.Fatal(err)
	}
	if d := c.Metrics().Snapshot().Sub(before); d.RPCCalls != 1 {
		t.Errorf("parallelism=1 made %d RPCs, want 1", d.RPCCalls)
	}
}

func TestScannerPrefetchSameRowsLessTime(t *testing.T) {
	seq := testCluster(t)
	pre := testCluster(t)
	loadSplitTable(t, seq, "t", 300)
	loadSplitTable(t, pre, "t", 300)

	want, err := seq.ScanAll(Scan{Table: "t", Caching: 25})
	if err != nil {
		t.Fatal(err)
	}
	seqSnap := seq.Metrics().Snapshot()

	got, err := pre.ScanAll(Scan{Table: "t", Caching: 25, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	preSnap := pre.Metrics().Snapshot()

	if len(got) != len(want) {
		t.Fatalf("prefetch scan returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			t.Fatalf("row %d: got %q, want %q", i, got[i].Key, want[i].Key)
		}
	}
	// Identical resource consumption...
	if preSnap.KVReads != seqSnap.KVReads || preSnap.NetworkBytes != seqSnap.NetworkBytes {
		t.Errorf("prefetch resources differ: reads %d vs %d, net %d vs %d",
			preSnap.KVReads, seqSnap.KVReads, preSnap.NetworkBytes, seqSnap.NetworkBytes)
	}
	// ...and no extra simulated time: a lone prefetching scanner has no
	// concurrent work to hide behind, so its clock matches sequential.
	if preSnap.SimTime > seqSnap.SimTime {
		t.Errorf("prefetch scan time %v exceeds sequential %v", preSnap.SimTime, seqSnap.SimTime)
	}
}

func TestScannerPrefetchHidesBehindConcurrentWork(t *testing.T) {
	c := testCluster(t)
	loadSplitTable(t, c, "t", 100)

	// Two prefetching scanners consumed alternately against the same
	// collector: each one's fetches overlap the other's charged time, so
	// the total is below the sum of two sequential scans.
	seqC := testCluster(t)
	loadSplitTable(t, seqC, "t", 100)
	for i := 0; i < 2; i++ {
		if _, err := seqC.ScanAll(Scan{Table: "t", Caching: 10}); err != nil {
			t.Fatal(err)
		}
	}
	seqTime := seqC.Metrics().SimTime()

	open := func() *Scanner {
		sc, err := c.OpenScanner(Scan{Table: "t", Caching: 10, Prefetch: true})
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	a, b := open(), open()
	for rows := 0; ; {
		ra, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ra == nil && rb == nil {
			break
		}
		rows++
		if rows > 1000 {
			t.Fatal("runaway scan")
		}
	}
	if got := c.Metrics().SimTime(); got >= seqTime {
		t.Errorf("interleaved prefetch scans took %v, want below sequential %v", got, seqTime)
	}
}

func TestWithMetricsSharesStateChargesSeparately(t *testing.T) {
	c := testCluster(t)
	loadSplitTable(t, c, "t", 50)

	m2 := &sim.Metrics{}
	v := c.WithMetrics(m2)
	if _, err := v.Get("t", "r1x0001"); err != nil {
		t.Fatal(err)
	}
	if m2.Snapshot().RPCCalls != 1 {
		t.Errorf("view charged %d RPCs, want 1", m2.Snapshot().RPCCalls)
	}
	base := c.Metrics().Snapshot().RPCCalls
	if _, err := c.Get("t", "r1x0001"); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().Snapshot().RPCCalls != base+1 {
		t.Error("base collector not charged by base view")
	}
	if m2.Snapshot().RPCCalls != 1 {
		t.Error("view collector charged by base view's operation")
	}
	// Writes through the view are visible through the base view.
	if err := v.Put("t", Cell{Row: "r5new", Family: "cf", Qualifier: "q", Value: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	row, err := c.Get("t", "r5new")
	if err != nil || row == nil {
		t.Fatalf("row written through view not visible: %v %v", row, err)
	}
}
