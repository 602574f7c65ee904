package sim

import (
	"testing"
	"time"
)

func TestLaneForwardsCountersNotTime(t *testing.T) {
	root := &Metrics{}
	lane := NewLane(root)

	lane.Count(&Op{RPCs: 1, WireBytes: 36, Cells: 7, Writes: 3, DiskBytes: 50})
	lane.Advance(5 * time.Second)

	// Counters forward to the root as they accrue...
	if s := root.Snapshot(); s.NetworkBytes != 100 || s.KVReads != 7 || s.KVWrites != 3 ||
		s.RPCCalls != 1 || s.DiskBytesRead != 50 {
		t.Errorf("root counters not forwarded: %+v", s)
	}
	// ...but clock advances stay on the lane.
	if root.SimTime() != 0 {
		t.Errorf("root clock advanced to %v by a lane", root.SimTime())
	}
	if lane.SimTime() != 5*time.Second {
		t.Errorf("lane clock = %v, want 5s", lane.SimTime())
	}
}

func TestLaneNesting(t *testing.T) {
	root := &Metrics{}
	mid := NewLane(root)
	leaf := NewLane(mid)
	leaf.Count(&Op{Cells: 4})
	if m, r := mid.Snapshot().KVReads, root.Snapshot().KVReads; m != 4 || r != 4 {
		t.Errorf("nested forwarding broken: mid=%d root=%d", m, r)
	}
	leaf.Advance(time.Second)
	if mid.SimTime() != 0 || root.SimTime() != 0 {
		t.Error("nested lane advanced an ancestor clock")
	}
}

func TestAdvanceParallel(t *testing.T) {
	m := &Metrics{}
	m.AdvanceParallel(3*time.Second, 7*time.Second, 5*time.Second)
	if m.SimTime() != 7*time.Second {
		t.Errorf("clock = %v, want the 7s makespan", m.SimTime())
	}
	m.AdvanceParallel() // no lanes: no-op
	if m.SimTime() != 7*time.Second {
		t.Errorf("empty AdvanceParallel moved the clock to %v", m.SimTime())
	}
	m.AdvanceParallel(-time.Second, 2*time.Second)
	if m.SimTime() != 9*time.Second {
		t.Errorf("clock = %v, want 9s", m.SimTime())
	}
}

func TestLaneFanOutConvention(t *testing.T) {
	root := &Metrics{}
	lanes := make([]*Metrics, 4)
	durs := make([]time.Duration, 4)
	for i := range lanes {
		lanes[i] = NewLane(root)
		lanes[i].Count(&Op{Cells: 10})
		d := time.Duration(i+1) * time.Second
		lanes[i].Advance(d)
		durs[i] = lanes[i].SimTime()
	}
	root.AdvanceParallel(durs...)
	if r := root.Snapshot().KVReads; r != 40 {
		t.Errorf("root reads = %d, want the 40 summed over lanes", r)
	}
	if root.SimTime() != 4*time.Second {
		t.Errorf("root clock = %v, want the 4s slowest lane", root.SimTime())
	}
}
