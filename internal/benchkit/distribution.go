package benchkit

import (
	"fmt"

	rankjoin "repro"
	"repro/internal/sim"
)

// Distributed evaluation: the same TPC-H workload served by a
// replicated multi-node topology through the transport seam. The
// distribution figure compares each executor's cost on a 3-node
// replicated cluster against the single-process baseline (replicas are
// byte-identical, so results must match exactly), then measures the
// anti-entropy repair economy: how few cells a scoped Merkle repair
// ships to re-converge a replica that missed writes, against the full
// table a blind resync would copy.

// DistEnv is one loaded distributed evaluation environment.
type DistEnv struct {
	Workload
	D *rankjoin.Distributed
}

// SetupDistributed generates TPC-H data at the scale factor, loads it
// through the router (every replica lands each relation through its
// own bulk door at one router timestamp), and builds every index family
// on every covering node — Setup on a cluster.
func SetupDistributed(profile sim.Profile, sf float64, seed int64, topo *rankjoin.Topology) (*DistEnv, error) {
	d, err := rankjoin.OpenDistributed(rankjoin.Config{Profile: &profile, Topology: topo})
	if err != nil {
		return nil, err
	}
	w, err := load(d, profile, sf, seed)
	if err != nil {
		_ = d.Close()
		return nil, err
	}
	return &DistEnv{Workload: *w, D: d}, nil
}

// Run executes one query configuration on the cluster.
func (e *DistEnv) Run(q rankjoin.Query, algo rankjoin.Algorithm, k int) (*rankjoin.Result, error) {
	return e.D.TopK(q.WithK(k), algo, &rankjoin.QueryOptions{ISLBatch: e.ISLBatch})
}

// DistPoint compares one (query, algorithm) cell between the
// single-process baseline and the replicated cluster.
type DistPoint struct {
	Query        string
	Algo         string
	K            int
	SingleTimeMS float64
	DistTimeMS   float64
	SingleReads  uint64
	DistReads    uint64
	// Identical reports whether the cluster returned byte-identical
	// results (rows, join values, scores, order) to the baseline.
	Identical bool
}

// RepairEconomy measures one scoped anti-entropy repair against the
// blind alternative.
type RepairEconomy struct {
	// MissedWrites is the number of acked upserts the stopped replica
	// never saw.
	MissedWrites int
	// ShippedCells is what the scoped Merkle repair actually moved
	// (summed over repaired tables, base and index).
	ShippedCells int
	// TableCells is what a full resync of the repaired tables would
	// have copied.
	TableCells int
	// Tables is how many tables the pass repaired.
	Tables int
	// Converged reports post-repair Merkle agreement across the group.
	Converged bool
}

// sameResults reports byte-identical result lists.
func sameResults(a, b []rankjoin.JoinResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Left != b[i].Left || a[i].Right != b[i].Right || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// DistributionReport runs the distribution figure: the same generated
// instance loaded into a single-process DB and a 3-node fully
// replicated loopback cluster, every executor run on both and checked
// for identical output, then the repair-economy experiment (stop a
// replica, keep writing, restart, scoped Merkle repair), as a printed
// report.
func DistributionReport(profile sim.Profile, sf float64, seed int64) (string, error) {
	single, err := Setup(profile, sf, seed)
	if err != nil {
		return "", fmt.Errorf("benchkit: single-node setup: %w", err)
	}
	defer single.DB.Close()
	topo := &rankjoin.Topology{
		Nodes: []rankjoin.NodeSpec{{Name: "node0"}, {Name: "node1"}, {Name: "node2"}},
	}
	dist, err := SetupDistributed(profile, sf, seed, topo)
	if err != nil {
		return "", fmt.Errorf("benchkit: distributed setup: %w", err)
	}
	defer dist.D.Close()

	p, o, l := dist.Counts()
	out := fmt.Sprintf("Distribution: 3-node replicated cluster vs single process (profile %s, SF %g: %d parts, %d orders, %d lineitems)\n",
		profile.Name, sf, p, o, l)
	out += fmt.Sprintf("%-5s %-6s %14s %14s %12s %12s  %s\n",
		"query", "algo", "single ms", "cluster ms", "single rd", "cluster rd", "identical")
	algos := append([]rankjoin.Algorithm{rankjoin.AlgoNaive}, Algorithms...)
	for _, qc := range []struct {
		name   string
		sq, dq rankjoin.Query
	}{{"q1", single.Q1, dist.Q1}, {"q2", single.Q2, dist.Q2}} {
		for _, algo := range algos {
			sres, err := single.Run(qc.sq, algo, 10)
			if err != nil {
				return "", fmt.Errorf("benchkit: single %s/%s: %w", qc.name, algo, err)
			}
			dres, err := dist.Run(qc.dq, algo, 10)
			if err != nil {
				return "", fmt.Errorf("benchkit: cluster %s/%s: %w", qc.name, algo, err)
			}
			pt := DistPoint{
				Query:        qc.name,
				Algo:         string(algo),
				K:            10,
				SingleTimeMS: float64(sres.Cost.SimTime.Microseconds()) / 1000,
				DistTimeMS:   float64(dres.Cost.SimTime.Microseconds()) / 1000,
				SingleReads:  sres.Cost.KVReads,
				DistReads:    dres.Cost.KVReads,
				Identical:    sameResults(sres.Results, dres.Results),
			}
			out += fmt.Sprintf("%-5s %-6s %14.3f %14.3f %12d %12d  %v\n",
				pt.Query, pt.Algo, pt.SingleTimeMS, pt.DistTimeMS, pt.SingleReads, pt.DistReads, pt.Identical)
		}
	}

	econ, err := repairEconomy(dist)
	if err != nil {
		return "", err
	}
	out += fmt.Sprintf("\nRepair economy: replica down for %d acked writes; scoped Merkle repair shipped %d cells across %d tables (full resync: %d cells, %.1fx more); converged=%v\n",
		econ.MissedWrites, econ.ShippedCells, econ.Tables, econ.TableCells,
		safeRatio(econ.TableCells, econ.ShippedCells), econ.Converged)
	return out, nil
}

func safeRatio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// repairEconomy stops one replica, applies writes it misses, restarts
// it, and measures what the scoped Merkle repair ships to re-converge
// it versus the full tables a blind resync would copy.
func repairEconomy(e *DistEnv) (*RepairEconomy, error) {
	const missed = 20
	orders := e.D.Relation("orders")
	if orders == nil {
		return nil, fmt.Errorf("benchkit: orders not defined on cluster")
	}
	down := e.D.Nodes()[len(e.D.Nodes())-1]
	if err := e.D.StopNode(down); err != nil {
		return nil, err
	}
	for i := 0; i < missed; i++ {
		if err := orders.Insert(fmt.Sprintf("odist%04d", i), fmt.Sprintf("8%05d", i), float64(i%101)/101); err != nil {
			return nil, fmt.Errorf("benchkit: divergence write %d: %w", i, err)
		}
	}
	if err := e.D.StartNode(down); err != nil {
		return nil, err
	}
	rep, err := e.D.Repair()
	if err != nil {
		return nil, fmt.Errorf("benchkit: repair: %w", err)
	}
	econ := &RepairEconomy{MissedWrites: missed, Converged: rep.Converged}
	repaired := map[string]bool{}
	for _, r := range rep.Repairs {
		econ.ShippedCells += r.CellsApplied
		repaired[r.Table] = true
	}
	econ.Tables = len(repaired)
	// Price the blind alternative: every cell of every repaired table.
	db := e.D.NodeDB(e.D.Nodes()[0])
	if db != nil {
		for t := range repaired {
			cells, err := db.Cluster().TableCells(t)
			if err == nil {
				econ.TableCells += len(cells)
			}
		}
	}
	return econ, nil
}
