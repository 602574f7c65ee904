// Package sim provides the deterministic cost model used to reproduce the
// paper's three evaluation metrics (Section 7.1):
//
//   - Turnaround time: wall-clock time to compute the top-k result. We
//     model it as simulated time accumulated on a virtual clock — disk
//     scans, network transfers, RPC round trips, and MapReduce job/task
//     startup all advance the clock according to a hardware profile.
//   - Network bandwidth: bytes moved between nodes (client RPCs, shuffle
//     traffic, remote reads). Node-local reads are free.
//   - Dollar cost: the number of key-value pairs read from the store,
//     priced per DynamoDB's Read Capacity model (the paper's footnote 1:
//     every KV pair below 1 KB is one read unit, $0.01 per hour per 50
//     units of provisioned throughput).
//
// One function prices work: Profile.Price takes the counts of one
// operation — an Op of RPCs, seeks, MapReduce tasks and jobs, disk and
// wire bytes, and cells touched — and returns its simulated time, with
// each RPC's request overhead added on the wire. The store's charge
// sites, the MapReduce runner and the planner's estimators all price
// through it, as every dollar figure prices through DollarsForReads;
// Snapshot.Count is the one counting rule, which Metrics.Count applies
// to a collector and the estimators to a prediction; Metrics.Charge
// records an operation's counters and its price in one step.
//
// Two profiles mirror the paper's clusters: EC2 (1+8 m1.large instances)
// and LC (the 5-node lab cluster with 32 cores and 10 disks per node).
// Absolute times are not calibrated to the authors' testbed — only the
// relative behaviour (who wins, by what factor, where crossovers happen)
// is meaningful, which is all the reproduction claims.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// Profile describes the hardware cost parameters of a cluster.
type Profile struct {
	Name string
	// Nodes is the number of storage/compute nodes (region servers).
	Nodes int
	// DiskBandwidth is sequential read throughput per node, bytes/sec.
	DiskBandwidth float64
	// NetBandwidth is point-to-point network throughput, bytes/sec.
	NetBandwidth float64
	// RPCLatency is the fixed round-trip cost of one store RPC.
	RPCLatency time.Duration
	// SeekLatency is the fixed cost of one random (keyed) disk read.
	SeekLatency time.Duration
	// MRJobStartup is the fixed scheduling cost of one MapReduce job.
	MRJobStartup time.Duration
	// MRTaskStartup is the fixed cost of launching one map/reduce task.
	MRTaskStartup time.Duration
	// CPUPerKV is the per-key-value processing cost (compare, hash,
	// serialize) charged wherever tuples are touched.
	CPUPerKV time.Duration
}

// EC2 mirrors the paper's Amazon EC2 m1.large deployment: 2 virtual
// cores, moderate instance storage, shared gigabit network, high RPC
// latencies and heavyweight Hadoop job startup.
func EC2() Profile {
	return Profile{
		Name:          "EC2",
		Nodes:         8,
		DiskBandwidth: 80e6, // ~80 MB/s instance storage
		NetBandwidth:  60e6, // shared gigabit, effective ~60 MB/s
		RPCLatency:    900 * time.Microsecond,
		SeekLatency:   2 * time.Millisecond,
		MRJobStartup:  2500 * time.Millisecond, // Hadoop 1.x job scheduling
		MRTaskStartup: 400 * time.Millisecond,
		CPUPerKV:      600 * time.Nanosecond,
	}
}

// LC mirrors the paper's in-house lab cluster: 5 nodes, 32 cores and
// 10x1TB disks each, 10 GbE, low-latency LAN.
func LC() Profile {
	return Profile{
		Name:          "LC",
		Nodes:         5,
		DiskBandwidth: 900e6, // 10 striped disks
		NetBandwidth:  1.1e9, // 10 GbE
		RPCLatency:    150 * time.Microsecond,
		SeekLatency:   500 * time.Microsecond,
		MRJobStartup:  1200 * time.Millisecond,
		MRTaskStartup: 150 * time.Millisecond,
		CPUPerKV:      120 * time.Nanosecond,
	}
}

// requestOverhead approximates the fixed wire size of one RPC request:
// every round trip ships it beside its payload, so it is both timed and
// counted as network bytes.
const requestOverhead = 64

// Op is the counted work of one simulated operation: a client round
// trip, a MapReduce task or job, or a planner's prediction of either.
// Price turns it into time and Snapshot.Count into counters.
type Op struct {
	RPCs      uint64 // client round trips: latency and request overhead each
	Seeks     uint64 // random (keyed) disk reads
	Tasks     uint64 // MapReduce task launches
	Jobs      uint64 // MapReduce job launches
	DiskBytes uint64 // bytes read sequentially from disk
	WireBytes uint64 // payload bytes moved over the network
	Cells     uint64 // key-value pairs touched: CPU time, and read units
	Writes    uint64 // key-value pairs written: counted, never priced
}

// NetworkBytes returns the bytes op moves over the network: its payload
// plus each round trip's request overhead. Price times these bytes and
// Snapshot.Count counts them.
func (op *Op) NetworkBytes() uint64 { return op.RPCs*requestOverhead + op.WireBytes }

// Price returns the simulated time of op on this profile. It is the one
// price list of the simulator: the store's charge sites, the MapReduce
// runner and the planner's estimators all price work here, the way
// DollarsForReads prices it in dollars. Each term converts to a
// Duration on its own, so a term's digits do not depend on what else
// the operation did. Price, Count and Charge take the profile and the
// Op by pointer: the planner prices hundreds of Ops per plan, and
// copying their eight words and the profile into every call costs more
// than the arithmetic.
func (p *Profile) Price(op *Op) time.Duration {
	return time.Duration(op.RPCs)*p.RPCLatency +
		time.Duration(op.Seeks)*p.SeekLatency +
		time.Duration(op.Tasks)*p.MRTaskStartup +
		time.Duration(op.Jobs)*p.MRJobStartup +
		time.Duration(float64(op.DiskBytes)/p.DiskBandwidth*float64(time.Second)) +
		time.Duration(float64(op.NetworkBytes())/p.NetBandwidth*float64(time.Second)) +
		time.Duration(op.Cells)*p.CPUPerKV
}

// ReadUnitDollarsPerHour is DynamoDB's price for 50 units of provisioned
// read capacity (the paper's footnote 1).
const ReadUnitDollarsPerHour = 0.01

// DollarsForReads prices a read-unit count per the paper's DynamoDB
// model: the workload needs ceil(reads/50) capacity-hours at $0.01.
// Every dollar-cost reporter (live metrics, snapshots, planner
// estimates) prices through this single function.
func DollarsForReads(reads uint64) float64 {
	units := (reads + 49) / 50
	return float64(units) * ReadUnitDollarsPerHour
}

// Metrics accumulates the three paper metrics plus supporting detail. It
// is safe for concurrent use; MapReduce tasks update it from goroutines.
//
// A Metrics may be a *lane* of a parent collector (see NewLane): resource
// counters — bytes, read units, RPC counts — forward to the parent as they
// accrue, because parallel work still consumes the sum of its lanes'
// resources, while clock advances stay local, because parallel work takes
// only as long as its slowest lane. The coordinator of a fan-out folds
// lane times back into the parent clock with AdvanceParallel.
type Metrics struct {
	mu sync.Mutex

	// parent, when non-nil, receives a forwarded copy of every counter
	// update (but never clock advances).
	parent *Metrics

	s Snapshot // guarded by: mu
}

// NewLane returns a child collector for one lane of a concurrent fan-out.
// Counter updates forward to parent immediately; Advance accumulates on
// the lane only. After the fan-out joins, fold the lanes' clocks into the
// parent with parent.AdvanceParallel(laneDurations...). Lanes nest: a
// lane's counters forward transitively to the root collector.
func NewLane(parent *Metrics) *Metrics {
	return &Metrics{parent: parent}
}

// Reset zeroes all counters.
func (m *Metrics) Reset() {
	m.mu.Lock()
	m.s = Snapshot{}
	m.mu.Unlock()
}

// Advance moves the virtual clock forward by d (sequential work). On a
// lane, the advance stays local — it reaches the parent only through
// AdvanceParallel at the fan-out join point.
func (m *Metrics) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	m.mu.Lock()
	m.s.SimTime += d
	m.mu.Unlock()
}

// AdvanceParallel folds a joined fan-out into the clock: the parallel
// phase took as long as its slowest lane, so the clock advances by the
// maximum of the lane durations (the convention the MapReduce runner's
// task waves already use via ParallelTimer.Makespan).
func (m *Metrics) AdvanceParallel(lanes ...time.Duration) {
	var max time.Duration
	for _, d := range lanes {
		if d > max {
			max = d
		}
	}
	m.Advance(max)
}

// Count records op's counters (see Snapshot.Count) on m and every
// collector up its lane chain, one lock acquisition each, without
// advancing the clock. Callers that fold time themselves (parallel
// lanes, overlapped prefetches) count here and advance by Price apart.
func (m *Metrics) Count(op *Op) {
	for ; m != nil; m = m.parent {
		m.mu.Lock()
		m.s.Count(op)
		m.mu.Unlock()
	}
}

// Charge records op's counters and advances the clock by its price on p
// (sequential work): Count and Advance(p.Price(op)) in one step.
func (m *Metrics) Charge(p *Profile, op *Op) {
	d := p.Price(op)
	m.mu.Lock()
	m.s.SimTime += d
	m.mu.Unlock()
	m.Count(op)
}

// SimTime returns the accumulated virtual clock.
func (m *Metrics) SimTime() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.SimTime
}

// Snapshot returns a copy of the current counters.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s
}

// Snapshot is a cost in the paper's metrics: a Metrics' counters at a
// point in time, the delta between two such points, or a planner's
// estimate of a query, counted by the same rule (Count). The JSON tags
// are its form on the transport seam; SimTime encodes as integer
// nanoseconds.
type Snapshot struct {
	SimTime       time.Duration `json:"sim_time_nanos"`
	NetworkBytes  uint64        `json:"network_bytes"`
	KVReads       uint64        `json:"kv_reads"`
	KVWrites      uint64        `json:"kv_writes"`
	RPCCalls      uint64        `json:"rpc_calls"`
	DiskBytesRead uint64        `json:"disk_bytes_read"`
	// TuplesShipped is never set: no operation counts it. It stays
	// while reports and the binary cost body carry its slot.
	TuplesShipped uint64 `json:"tuples_shipped"`
}

// Count adds op's counters to s — RPC count, network bytes (payload
// plus each round trip's request overhead), read units, writes and disk
// bytes — without touching the clock. It is the one counting rule:
// Metrics.Count applies it under each collector's lock, and the
// planner's estimators apply it to their predictions.
func (s *Snapshot) Count(op *Op) {
	s.RPCCalls += op.RPCs
	s.NetworkBytes += op.NetworkBytes()
	s.KVReads += op.Cells
	s.KVWrites += op.Writes
	s.DiskBytesRead += op.DiskBytes
}

// Sub returns the delta from an earlier snapshot to this one.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	return Snapshot{
		SimTime:       s.SimTime - earlier.SimTime,
		NetworkBytes:  s.NetworkBytes - earlier.NetworkBytes,
		KVReads:       s.KVReads - earlier.KVReads,
		KVWrites:      s.KVWrites - earlier.KVWrites,
		RPCCalls:      s.RPCCalls - earlier.RPCCalls,
		DiskBytesRead: s.DiskBytesRead - earlier.DiskBytesRead,
		TuplesShipped: s.TuplesShipped - earlier.TuplesShipped,
	}
}

// Add returns the field-wise sum of two snapshots (Sub's inverse).
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		SimTime:       s.SimTime + o.SimTime,
		NetworkBytes:  s.NetworkBytes + o.NetworkBytes,
		KVReads:       s.KVReads + o.KVReads,
		KVWrites:      s.KVWrites + o.KVWrites,
		RPCCalls:      s.RPCCalls + o.RPCCalls,
		DiskBytesRead: s.DiskBytesRead + o.DiskBytesRead,
		TuplesShipped: s.TuplesShipped + o.TuplesShipped,
	}
}

// Dollars prices a snapshot's read units.
func (s Snapshot) Dollars() float64 {
	return DollarsForReads(s.KVReads)
}

func (s Snapshot) String() string {
	return fmt.Sprintf("time=%v net=%dB kvReads=%d kvWrites=%d rpc=%d disk=%dB shipped=%d",
		s.SimTime, s.NetworkBytes, s.KVReads, s.KVWrites, s.RPCCalls, s.DiskBytesRead, s.TuplesShipped)
}

// ParallelTimer tracks per-worker busy time for a fan-out phase (e.g. all
// mappers of a job) and reports the makespan: tasks are assigned to the
// worker with the least accumulated time, modelling wave scheduling.
type ParallelTimer struct {
	busy []time.Duration
}

// NewParallelTimer returns a timer for n parallel workers (n >= 1).
func NewParallelTimer(n int) *ParallelTimer {
	if n < 1 {
		n = 1
	}
	return &ParallelTimer{busy: make([]time.Duration, n)}
}

// Assign schedules a task of duration d on the least-loaded worker.
func (t *ParallelTimer) Assign(d time.Duration) {
	min := 0
	for i := 1; i < len(t.busy); i++ {
		if t.busy[i] < t.busy[min] {
			min = i
		}
	}
	t.busy[min] += d
}

// AssignTo schedules a task of duration d on a specific worker (modulo
// the worker count), used when task placement is dictated by data
// locality rather than free choice.
func (t *ParallelTimer) AssignTo(worker int, d time.Duration) {
	if len(t.busy) == 0 {
		return
	}
	w := worker % len(t.busy)
	if w < 0 {
		w += len(t.busy)
	}
	t.busy[w] += d
}

// Makespan returns the maximum accumulated busy time across workers —
// the wall-clock duration of the parallel phase.
func (t *ParallelTimer) Makespan() time.Duration {
	var max time.Duration
	for _, b := range t.busy {
		if b > max {
			max = b
		}
	}
	return max
}
