package sim

import (
	"sync"
	"testing"
	"time"
)

func TestProfilesSane(t *testing.T) {
	for _, p := range []Profile{EC2(), LC()} {
		if p.Nodes < 1 {
			t.Errorf("%s: nodes = %d", p.Name, p.Nodes)
		}
		if p.DiskBandwidth <= 0 || p.NetBandwidth <= 0 {
			t.Errorf("%s: non-positive bandwidth", p.Name)
		}
		if p.RPCLatency <= 0 || p.MRJobStartup <= 0 {
			t.Errorf("%s: non-positive latencies", p.Name)
		}
	}
	// LC must be strictly faster than EC2 in every dimension the paper
	// relies on.
	ec2, lc := EC2(), LC()
	if lc.DiskBandwidth <= ec2.DiskBandwidth {
		t.Error("LC disk must beat EC2")
	}
	if lc.NetBandwidth <= ec2.NetBandwidth {
		t.Error("LC network must beat EC2")
	}
	if lc.RPCLatency >= ec2.RPCLatency {
		t.Error("LC RPC latency must beat EC2")
	}
}

func TestScanTransferRPC(t *testing.T) {
	p := Profile{DiskBandwidth: 1e6, NetBandwidth: 2e6, RPCLatency: time.Millisecond}
	if got := p.Price(&Op{DiskBytes: 1e6}); got != time.Second {
		t.Errorf("scan of 1MB = %v, want 1s", got)
	}
	if got := p.Price(&Op{WireBytes: 2e6}); got != time.Second {
		t.Errorf("transfer of 2MB = %v, want 1s", got)
	}
	// A round trip ships its request overhead: 64 bytes at 2 MB/s.
	if got := p.Price(&Op{RPCs: 1}); got != time.Millisecond+32*time.Microsecond {
		t.Errorf("empty RPC = %v, want 1.032ms", got)
	}
}

func TestMetricsAccumulate(t *testing.T) {
	var m Metrics
	m.Advance(time.Second)
	m.Advance(time.Second)
	m.Count(&Op{RPCs: 1, WireBytes: 36, Cells: 7, Writes: 3, DiskBytes: 50})
	if m.SimTime() != 2*time.Second {
		t.Errorf("SimTime = %v", m.SimTime())
	}
	if s := m.Snapshot(); s.NetworkBytes != 100 || s.KVReads != 7 || s.KVWrites != 3 ||
		s.RPCCalls != 1 || s.DiskBytesRead != 50 {
		t.Errorf("counter mismatch: %+v", s)
	}
	m.Advance(-time.Hour) // negative advances are ignored
	if m.SimTime() != 2*time.Second {
		t.Error("negative Advance must be a no-op")
	}
	m.Reset()
	if m.Snapshot() != (Snapshot{}) {
		t.Error("Reset did not zero counters")
	}
}

// TestMetricsConcurrent updates collectors from goroutines: one
// collector directly, then a root through nested lanes while the root
// is read. Every counter must come out as the sum of the updates, and a
// root's clock as the sum of its own advances only.
func TestMetricsConcurrent(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Count(&Op{Cells: 1, WireBytes: 2})
				m.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.KVReads != 5000 {
		t.Errorf("KVReads = %d, want 5000", s.KVReads)
	}
	if s.NetworkBytes != 10000 {
		t.Errorf("NetworkBytes = %d, want 10000", s.NetworkBytes)
	}
	if m.SimTime() != 5000*time.Microsecond {
		t.Errorf("SimTime = %v, want 5ms", m.SimTime())
	}

	// Lanes: eight goroutines each count and charge on their own lane
	// of one shared mid lane. One Count adds a read and a write to a
	// collector under one lock, so a root read mid-flight never sees
	// more writes than reads.
	var root Metrics
	mid := NewLane(&root)
	p := &Profile{RPCLatency: time.Millisecond, NetBandwidth: 1e9}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			if s := root.Snapshot(); s.KVReads < s.KVWrites || s.SimTime != 0 {
				t.Errorf("root read mid-flight: %+v", s)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := NewLane(mid)
			for j := 0; j < 100; j++ {
				lane.Count(&Op{Cells: 1, Writes: 1})
				lane.Charge(p, &Op{RPCs: 1, DiskBytes: 3})
			}
			if got := lane.SimTime(); got != 100*p.Price(&Op{RPCs: 1, DiskBytes: 3}) {
				t.Errorf("lane clock = %v", got)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	want := Snapshot{
		NetworkBytes:  800 * requestOverhead,
		KVReads:       800,
		KVWrites:      800,
		RPCCalls:      800,
		DiskBytesRead: 2400,
	}
	if got := root.Snapshot(); got != want {
		t.Errorf("root = %+v, want the lanes' sum %+v", got, want)
	}
	if got := mid.Snapshot(); got != want {
		t.Errorf("mid lane = %+v, want %+v", got, want)
	}
}

func TestDollars(t *testing.T) {
	var m Metrics
	m.Count(&Op{Cells: 1})
	if d := m.Snapshot().Dollars(); d != 0.01 {
		t.Errorf("1 read = $%g, want $0.01 (1 capacity unit-hour)", d)
	}
	m.Count(&Op{Cells: 49})
	if d := m.Snapshot().Dollars(); d != 0.01 {
		t.Errorf("50 reads = $%g, want $0.01", d)
	}
	m.Count(&Op{Cells: 1})
	if d := m.Snapshot().Dollars(); d != 0.02 {
		t.Errorf("51 reads = $%g, want $0.02", d)
	}
}

func TestSnapshotSub(t *testing.T) {
	var m Metrics
	m.Count(&Op{Cells: 10})
	before := m.Snapshot()
	m.Count(&Op{Cells: 5})
	m.Advance(time.Second)
	delta := m.Snapshot().Sub(before)
	if delta.KVReads != 5 {
		t.Errorf("delta reads = %d, want 5", delta.KVReads)
	}
	if delta.SimTime != time.Second {
		t.Errorf("delta time = %v, want 1s", delta.SimTime)
	}
	if delta.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestParallelTimerLeastLoaded(t *testing.T) {
	pt := NewParallelTimer(2)
	pt.Assign(3 * time.Second)
	pt.Assign(1 * time.Second)
	pt.Assign(1 * time.Second)
	// Worker 0: 3s; worker 1: 1+1 = 2s.
	if got := pt.Makespan(); got != 3*time.Second {
		t.Errorf("makespan = %v, want 3s", got)
	}
	pt.Assign(2 * time.Second) // goes to worker 1 (2s) -> 4s
	if got := pt.Makespan(); got != 4*time.Second {
		t.Errorf("makespan = %v, want 4s", got)
	}
}

func TestParallelTimerLocality(t *testing.T) {
	pt := NewParallelTimer(3)
	pt.AssignTo(0, time.Second)
	pt.AssignTo(3, time.Second) // wraps to worker 0
	pt.AssignTo(1, time.Second)
	if got := pt.Makespan(); got != 2*time.Second {
		t.Errorf("makespan = %v, want 2s (two tasks pinned to worker 0)", got)
	}
}

func TestParallelTimerDegenerate(t *testing.T) {
	pt := NewParallelTimer(0) // clamps to 1
	pt.Assign(time.Second)
	pt.Assign(time.Second)
	if got := pt.Makespan(); got != 2*time.Second {
		t.Errorf("single-worker makespan = %v, want 2s", got)
	}
}
