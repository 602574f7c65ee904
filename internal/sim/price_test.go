package sim

import (
	"testing"
	"time"
)

// TestPrice pins the one price list on both paper profiles: each term
// of an operation priced alone, the request overhead shipped once per
// RPC, and Charge's counters and clock agreeing with Count and Price.
func TestPrice(t *testing.T) {
	cases := []struct {
		name    string
		op      Op
		ec2, lc time.Duration
	}{
		{"nothing", Op{}, 0, 0},
		// One round trip: its latency plus its 64-byte request on the
		// wire (64 B at 60 MB/s is 1.07 µs, at 1.1 GB/s 58 ns).
		{"one rpc", Op{RPCs: 1}, 901066 * time.Nanosecond, 150058 * time.Nanosecond},
		// Two round trips ship two requests: 128 B.
		{"two rpcs", Op{RPCs: 2}, 1802133 * time.Nanosecond, 300116 * time.Nanosecond},
		{"seeks", Op{Seeks: 3}, 6 * time.Millisecond, 1500 * time.Microsecond},
		{"tasks", Op{Tasks: 2}, 800 * time.Millisecond, 300 * time.Millisecond},
		{"job", Op{Jobs: 1}, 2500 * time.Millisecond, 1200 * time.Millisecond},
		{"disk bytes", Op{DiskBytes: 7.2e9}, 90 * time.Second, 8 * time.Second},
		{"wire bytes", Op{WireBytes: 6.6e9}, 110 * time.Second, 6 * time.Second},
		{"cells", Op{Cells: 1000}, 600 * time.Microsecond, 120 * time.Microsecond},
		{"writes are not priced", Op{Writes: 5}, 0, 0},
		// Every term at once converts each term on its own and sums.
		{"all terms", Op{Seeks: 3, Tasks: 2, Jobs: 1, DiskBytes: 7.2e9, WireBytes: 6.6e9, Cells: 1000},
			6*time.Millisecond + 800*time.Millisecond + 2500*time.Millisecond + 90*time.Second + 110*time.Second + 600*time.Microsecond,
			1500*time.Microsecond + 300*time.Millisecond + 1200*time.Millisecond + 8*time.Second + 6*time.Second + 120*time.Microsecond},
	}
	for _, p := range []Profile{EC2(), LC()} {
		for _, c := range cases {
			want := c.ec2
			if p.Name == "LC" {
				want = c.lc
			}
			if got := p.Price(&c.op); got != want {
				t.Errorf("%s %s: Price = %v, want %v", p.Name, c.name, got, want)
			}
			var m Metrics
			m.Charge(&p, &c.op)
			s := m.Snapshot()
			if s.SimTime != want {
				t.Errorf("%s %s: Charge advanced %v, want the price %v", p.Name, c.name, s.SimTime, want)
			}
			if s.RPCCalls != c.op.RPCs || s.NetworkBytes != 64*c.op.RPCs+c.op.WireBytes ||
				s.KVReads != c.op.Cells || s.KVWrites != c.op.Writes || s.DiskBytesRead != c.op.DiskBytes {
				t.Errorf("%s %s: Charge counted %+v", p.Name, c.name, s)
			}
			var counted Metrics
			counted.Count(&c.op)
			untimed := s
			untimed.SimTime = 0
			if cs := counted.Snapshot(); cs != untimed {
				t.Errorf("%s %s: Count = %+v, want Charge's counters and no time %+v", p.Name, c.name, cs, untimed)
			}
		}
	}
}

// TestChargeDoesNotAllocate: every keyed read and scan batch charges
// through Charge or Count and Price, so none of them may allocate.
func TestChargeDoesNotAllocate(t *testing.T) {
	p := EC2()
	root := &Metrics{}
	lane := NewLane(root)
	op := Op{RPCs: 1, Seeks: 1, DiskBytes: 4096, WireBytes: 512, Cells: 3}
	var d time.Duration
	if n := testing.AllocsPerRun(100, func() {
		lane.Charge(&p, &op)
		lane.Count(&op)
		d += p.Price(&op)
	}); n != 0 {
		t.Errorf("Charge/Count/Price allocate %v times per call, want 0", n)
	}
}
