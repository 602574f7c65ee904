package topology

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/merkle"
	"repro/internal/transport"
)

// Anti-entropy: every table is summarized per replica as a Merkle tree
// over row digests; trees are diffed root-down against the group's
// source replica (the first clean one — it holds every acked write),
// and only the divergent hash-token leaves move: the source ships their
// raw cells, the target overwrites at original timestamps and deletes
// rows the source lacks. A target that cannot even summarize its table
// (corruption: checksums failed, regions quarantined) gets a full
// resync — drop, recreate, re-ingest — since there is no trustworthy
// local state to diff against. The pass excludes writers (wmu), so
// trees and payloads see stable replicas.

// TableRepair records one target-table repair.
type TableRepair struct {
	Table  string `json:"table"`
	Source string `json:"source"`
	Target string `json:"target"`
	// Leaves lists the divergent leaf indexes repaired; empty for Full.
	Leaves []int `json:"leaves,omitempty"`
	// Full marks a whole-table resync (corruption, or a scoped repair
	// that failed to converge).
	Full         bool `json:"full,omitempty"`
	RowsDeleted  int  `json:"rows_deleted"`
	CellsApplied int  `json:"cells_applied"`
}

// RepairReport summarizes one anti-entropy pass.
type RepairReport struct {
	// TablesChecked counts (table, replica-group) tree comparisons.
	TablesChecked int `json:"tables_checked"`
	// Repairs lists every repair applied, in table order.
	Repairs []TableRepair `json:"repairs,omitempty"`
	// Failures lists nodes/tables the pass could not converge (node
	// down, source unavailable) with reasons.
	Failures []string `json:"failures,omitempty"`
	// Cleared lists previously-dirty nodes the pass fully converged and
	// re-admitted to leader/source duty.
	Cleared []string `json:"cleared,omitempty"`
	// Converged reports whether every reachable replica of every table
	// matched its source's Merkle root when the pass ended.
	Converged bool `json:"converged"`
}

// RepairAll runs one anti-entropy pass over every table the router
// placed. Writes are excluded for the duration.
func (r *Router) RepairAll() (*RepairReport, error) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	return r.repairTables(r.ownedTables())
}

// ownedTables snapshots placed table names, sorted.
func (r *Router) ownedTables() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.owners))
	for t := range r.owners {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// isCorruptionErr matches typed corruption-kind wire errors.
func isCorruptionErr(err error) bool {
	var te *transport.Error
	return errors.As(err, &te) && te.Kind == transport.KindCorruption
}

func (r *Router) repairTables(tables []string) (*RepairReport, error) {
	rep := &RepairReport{Converged: true}
	// failedNodes collects nodes with any unconverged table this pass;
	// only fully-converged dirty nodes are re-admitted at the end.
	failedNodes := map[string]bool{}
	touchedNodes := map[string]bool{}
	for _, table := range tables {
		r.mu.Lock()
		names := append([]string(nil), r.owners[table]...)
		r.mu.Unlock()
		group := r.nodesFor(names)
		if len(group) < 2 {
			continue // nothing to converge against
		}
		rep.TablesChecked++
		for _, nd := range group {
			touchedNodes[nd.name] = true
		}
		src, srcTree := r.pickSource(table, group, rep, failedNodes)
		if src == nil {
			continue
		}
		for _, nd := range group {
			if nd == src {
				continue
			}
			if err := r.repairTarget(table, src, srcTree, nd, rep); err != nil {
				rep.Converged = false
				failedNodes[nd.name] = true
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s on %s: %v", table, nd.name, err))
			}
		}
	}
	// Re-admit dirty nodes the pass fully converged.
	r.mu.Lock()
	for name := range r.dirty {
		if touchedNodes[name] && !failedNodes[name] {
			delete(r.dirty, name)
			rep.Cleared = append(rep.Cleared, name)
		}
	}
	r.mu.Unlock()
	sort.Strings(rep.Cleared)
	// Repair tombstones were stamped with node-local clocks; re-sync the
	// router's stamp source above them.
	r.syncClocks()
	return rep, nil
}

// pickSource chooses the table's repair source: the first CLEAN replica
// whose tree builds (a clean replica holds every acked write). If no
// clean replica can summarize, the first dirty one that can stands in —
// best effort beats nothing, and the report says so.
func (r *Router) pickSource(table string, group []*node, rep *RepairReport, failedNodes map[string]bool) (*node, *merkle.Tree) {
	req := transport.TreeRequest{Table: table}
	for pass := 0; pass < 2; pass++ {
		for _, nd := range group {
			if (pass == 0) == r.isDirty(nd.name) {
				continue
			}
			tree, err := nd.svc.MerkleTree(req)
			if err != nil {
				continue
			}
			if pass == 1 {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("%s: no clean source; using dirty node %s", table, nd.name))
				rep.Converged = false
			}
			return nd, tree
		}
	}
	rep.Converged = false
	for _, nd := range group {
		failedNodes[nd.name] = true
	}
	rep.Failures = append(rep.Failures, fmt.Sprintf("%s: no replica could summarize the table", table))
	return nil, nil
}

// repairTarget converges one target replica of one table against the
// source, escalating corruption (and scoped repairs that fail to
// converge) to a full resync, and verifying the Merkle roots match
// afterwards.
func (r *Router) repairTarget(table string, src *node, srcTree *merkle.Tree, target *node, rep *RepairReport) error {
	treq := transport.TreeRequest{Table: table}
	ttree, err := target.svc.MerkleTree(treq)
	full := false
	var diverged []int
	switch {
	case isCorruptionErr(err):
		full = true
	case err != nil:
		return err // unreachable node: repair next pass
	default:
		diverged, err = merkle.Diff(srcTree, ttree)
		if err != nil {
			return err
		}
		if len(diverged) == 0 {
			return nil
		}
	}
	stats, err := r.ship(table, src, target, diverged, full)
	if err != nil {
		return err
	}
	tr := TableRepair{Table: table, Source: src.name, Target: target.name,
		Leaves: diverged, Full: full, RowsDeleted: stats.RowsDeleted, CellsApplied: stats.CellsApplied}
	// Verify convergence; a scoped repair that did not converge (e.g.
	// divergence inside dead versions it cannot see) escalates once.
	if again, err := target.svc.MerkleTree(treq); err != nil || again.Root() != srcTree.Root() {
		if !full {
			stats, serr := r.ship(table, src, target, nil, true)
			if serr != nil {
				rep.Repairs = append(rep.Repairs, tr)
				return serr
			}
			tr.Full, tr.Leaves = true, nil
			tr.RowsDeleted, tr.CellsApplied = stats.RowsDeleted, tr.CellsApplied+stats.CellsApplied
			if again, err = target.svc.MerkleTree(treq); err == nil && again.Root() == srcTree.Root() {
				rep.Repairs = append(rep.Repairs, tr)
				return nil
			}
		}
		rep.Repairs = append(rep.Repairs, tr)
		if err != nil {
			return fmt.Errorf("post-repair tree: %w", err)
		}
		return fmt.Errorf("tree still diverges from source %s after repair", src.name)
	}
	rep.Repairs = append(rep.Repairs, tr)
	return nil
}

// ship moves one repair payload from source to target: the divergent
// leaves' raw cells (or the whole table when full).
func (r *Router) ship(table string, src, target *node, leaves []int, full bool) (*transport.RepairStats, error) {
	var idx []int
	if !full {
		idx = leaves
	}
	payload, err := src.svc.FetchRange(transport.RangeRequest{Table: table, Indexes: idx})
	if err != nil {
		return nil, fmt.Errorf("fetch from source %s: %w", src.name, err)
	}
	stats, err := target.svc.Repair(transport.RepairRequest{
		Table: table, Indexes: idx, Full: full, Range: *payload})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// syncClocks raises the router's timestamp source above every reachable
// node's logical clock.
func (r *Router) syncClocks() {
	for _, nd := range r.nodes {
		if h, err := nd.svc.Health(); err == nil {
			r.bumpTS(h.Clock)
		}
	}
}
