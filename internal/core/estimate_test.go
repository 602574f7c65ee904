package core

import (
	"testing"

	"repro/internal/sim"
)

// TestEstimateCountsLikeMetrics: the estimators and the metrics
// collector count by one rule. A fixed sequence of charge, count and
// advance calls on an estAccum must leave the same Snapshot, field for
// field, as the matching Charge, Count and Advance(Price) calls on a
// sim.Metrics.
func TestEstimateCountsLikeMetrics(t *testing.T) {
	p := sim.EC2()
	ops := []sim.Op{
		{RPCs: 3, Seeks: 2, WireBytes: 700, Cells: 9},
		{Jobs: 1},
		{Tasks: 4, DiskBytes: 1 << 20, Cells: 5000},
		{Writes: 12, WireBytes: 4096},
		{RPCs: 1, DiskBytes: 3000, WireBytes: 3000, Cells: 100, Writes: 1},
	}
	a := estAccum{p: p}
	var m sim.Metrics
	for i := range ops {
		op := &ops[i]
		switch i % 3 {
		case 0:
			a.charge(op)
			m.Charge(&p, op)
		case 1:
			a.count(op)
			m.Count(op)
		case 2:
			a.advance(uint64(i), op)
			for range i {
				m.Advance(p.Price(op))
			}
		}
	}
	if got, want := a.s, m.Snapshot(); got != want {
		t.Fatalf("estimate %+v, collector %+v", got, want)
	}
	if a.s.RPCCalls == 0 || a.s.KVWrites == 0 || a.s.DiskBytesRead == 0 || a.s.SimTime == 0 {
		t.Fatalf("the sequence left a counter at zero: %+v", a.s)
	}
}

// TestListEstimateCountsDiskBytes: the isl estimate's clock prices each
// list batch's disk read, so its counters must carry those bytes too —
// every list cell it ships it first reads. The counted op once left
// DiskBytes out, and every isl estimate read 0 disk bytes.
func TestListEstimateCountsDiskBytes(t *testing.T) {
	st := &PlanStats{Profile: sim.EC2(), K: 10, LeafDepths: []float64{500, 300}}
	est := estimateLists(st)
	if want := uint64(800 * (estCellMeta + 10)); est.DiskBytesRead != want {
		t.Fatalf("isl estimate reads %d disk bytes, want %d: the 800 list cells it ships", est.DiskBytesRead, want)
	}
}
