package core

import (
	"time"

	"repro/internal/sim"
)

// This file holds the per-executor cost estimators behind
// Executor.Estimate: closed-form predictions of a query's cost from the
// planner's table statistics and the DRJN/BFHM-derived join-cardinality
// and termination-depth estimates in PlanStats. An estimate is a
// sim.Snapshot, the type of a measured cost.
//
// An estimator predicts counts, not prices: each phase states the work
// it expects — RPCs, seeks, MapReduce tasks and jobs, disk and wire
// bytes, cells — as a sim.Op; the profile's Price turns it into time
// and sim.Snapshot.Count into counters, the functions the store and
// the MapReduce runner charge through. Estimates do not need to be
// exact — the planner only needs the relative ordering (and the stamped
// estimate makes the residual error measurable per query).

// Wire-size approximations (bytes). Tuples carry short row keys and
// join values; these mirror EncodeTuple/EncodeJoinResult overheads.
const (
	estTupleWire = 40 // one encoded tuple incl. length prefixes
	estPairWire  = 88 // one encoded join pair
	estCellMeta  = 30 // stored-cell key/family/qualifier overhead
)

// estAccum accumulates one candidate plan's predicted cost. It counts
// by the collector's own rule, sim.Snapshot.Count, but holds no lock: a
// plan prices hundreds of Ops on one goroutine.
type estAccum struct {
	p sim.Profile
	s sim.Snapshot
}

// count adds op's counters, as sim.Metrics.Count counts them.
func (a *estAccum) count(op *sim.Op) { a.s.Count(op) }

// charge adds op's counters and its price, as sim.Metrics.Charge does.
func (a *estAccum) charge(op *sim.Op) {
	a.s.Count(op)
	a.s.SimTime += a.p.Price(op)
}

// advance adds n back-to-back repetitions of op's price to the clock.
func (a *estAccum) advance(n uint64, op *sim.Op) { a.s.SimTime += time.Duration(n) * a.p.Price(op) }

// clientScan models a batched client-side table scan returning all
// cells: one RPC per batch of scanBatch rows, the whole table read from
// disk and shipped.
func (a *estAccum) clientScan(rows, bytes, cells uint64) {
	a.charge(&sim.Op{RPCs: rows/scanBatch + 1, DiskBytes: bytes, WireBytes: bytes, Cells: cells})
}

// gets models n keyed point reads of ~rowBytes each, fanned out over
// `lanes` concurrent lanes (1 = sequential). Each read is one cell (a
// ballpark), billed as a read unit; its price is the RPC, one seek and
// the transfer.
func (a *estAccum) gets(n, rowBytes uint64, lanes int) {
	if n == 0 {
		return
	}
	if lanes < 1 {
		lanes = 1
	}
	a.count(&sim.Op{RPCs: n, WireBytes: n * rowBytes, Cells: n})
	a.advance((n+uint64(lanes)-1)/uint64(lanes), &sim.Op{RPCs: 1, Seeks: 1, WireBytes: rowBytes})
}

// mapPhase models the map wave of one MR job: one task per region,
// scheduled round-robin over the cluster's nodes, each scanning its
// share of the table and touching its share of the cells read and the
// records emitted.
func (a *estAccum) mapPhase(bytes, cells, emitted uint64, regions int) {
	if regions < 1 {
		regions = 1
	}
	workers := a.p.Nodes
	if workers < 1 {
		workers = 1
	}
	waves := (regions + workers - 1) / workers
	a.count(&sim.Op{Cells: cells})
	a.advance(uint64(waves), &sim.Op{Tasks: 1, DiskBytes: bytes / uint64(regions), Cells: (cells + emitted) / uint64(regions)})
}

// reducePhase models numReducers reduce tasks over inputCells inputs
// writing writeBytes back to the store.
func (a *estAccum) reducePhase(inputCells, writeBytes uint64, numReducers int) {
	if numReducers < 1 {
		numReducers = 1
	}
	workers := a.p.Nodes
	if workers < 1 {
		workers = 1
	}
	if numReducers < workers {
		workers = numReducers
	}
	waves := (numReducers + workers - 1) / workers
	a.advance(uint64(waves), &sim.Op{Tasks: 1, Cells: inputCells / uint64(numReducers)})
	a.charge(&sim.Op{WireBytes: writeBytes})
}

// ---- Per-executor estimators ----

func estimateNaive(st *PlanStats) sim.Snapshot {
	a := estAccum{p: st.Profile}
	var tuples uint64
	for _, l := range st.Leaves {
		a.clientScan(l.Rows, l.Bytes, 2*l.Rows)
		tuples += l.Rows
	}
	// Coordinator hash join over everything.
	a.advance(1, &sim.Op{Cells: tuples + uint64(st.JoinPairs)})
	return a.s
}

func estimateHive(st *PlanStats) sim.Snapshot {
	a := estAccum{p: st.Profile}
	l, r := st.Leaves[0], st.Leaves[1]
	tuples := l.Rows + r.Rows
	j := uint64(st.JoinPairs)
	// Hive drags unprojected SELECT * rows (~1 KB padding) through both
	// shuffles and the materialized join (hivePadding in hive.go).
	pairBytes := uint64(estPairWire + estCellMeta + hivePadding)

	// Job 1: repartition join of both base tables.
	a.charge(&sim.Op{Jobs: 1})
	a.mapPhase(l.Bytes, 2*l.Rows, l.Rows, l.Regions)
	a.mapPhase(r.Bytes, 2*r.Rows, r.Rows, r.Regions)
	a.charge(&sim.Op{WireBytes: tuples * (estTupleWire + 10)})
	a.reducePhase(tuples+j, j*pairBytes, a.p.Nodes)

	// Job 2: score + total order (single reducer).
	a.charge(&sim.Op{Jobs: 1})
	a.mapPhase(j*pairBytes, j, j, a.p.Nodes)
	a.charge(&sim.Op{WireBytes: j * pairBytes})
	a.reducePhase(j, j*pairBytes, 1)

	// Stage 3: fetch the k best rows.
	a.gets(uint64(st.K), pairBytes, 1)
	return a.s
}

func estimatePig(st *PlanStats) sim.Snapshot {
	a := estAccum{p: st.Profile}
	l, r := st.Leaves[0], st.Leaves[1]
	tuples := l.Rows + r.Rows
	j := uint64(st.JoinPairs)
	pairBytes := uint64(estPairWire + estCellMeta) // early projection: no padding

	// Job 1: repartition join (projected).
	a.charge(&sim.Op{Jobs: 1})
	a.mapPhase(l.Bytes, 2*l.Rows, l.Rows, l.Regions)
	a.mapPhase(r.Bytes, 2*r.Rows, r.Rows, r.Regions)
	a.charge(&sim.Op{WireBytes: tuples * (estTupleWire + 10)})
	a.reducePhase(tuples+j, j*pairBytes, a.p.Nodes)

	// Job 2: ORDER BY sampling pass over the join result.
	a.charge(&sim.Op{Jobs: 1})
	a.mapPhase(j*pairBytes, j, j/100, a.p.Nodes)
	a.charge(&sim.Op{WireBytes: j / 100 * 16})
	a.reducePhase(j/100, 0, 1)

	// Job 3: top-k push-down — mappers emit local top-k lists only.
	a.charge(&sim.Op{Jobs: 1})
	localK := uint64(a.p.Nodes * st.K)
	a.mapPhase(j*pairBytes, j, localK, a.p.Nodes)
	a.charge(&sim.Op{WireBytes: localK * estPairWire})
	a.reducePhase(localK, 0, 1)
	a.count(&sim.Op{WireBytes: uint64(st.K) * estPairWire}) // final output to the client
	return a.s
}

func estimateIJLMR(st *PlanStats) sim.Snapshot {
	a := estAccum{p: st.Profile}
	tuples := st.Leaves[0].Rows + st.Leaves[1].Rows
	idxBytes := st.IndexBytes
	if idxBytes == 0 {
		idxBytes = tuples * estCellMeta // index not built yet: extrapolate
	}
	// One map-only-style job over the inverse join list: each row holds
	// one join value's tuples from both sides; mappers pay the per-row
	// cartesian product, then a single reducer merges local top-k lists.
	a.charge(&sim.Op{Jobs: 1})
	localK := uint64(a.p.Nodes * st.K)
	a.mapPhase(idxBytes, tuples+uint64(st.JoinPairs), localK, a.p.Nodes)
	a.charge(&sim.Op{WireBytes: localK * estPairWire})
	a.reducePhase(localK, 0, 1)
	a.count(&sim.Op{WireBytes: uint64(st.K) * estPairWire})
	return a.s
}

// estimateLists prices the isl executor's rank-join operator over
// inverse score lists: one batched list scan per leaf down to its
// estimated termination depth (PlanStats.LeafDepths, ~one index cell
// per tuple), plus the per-tuple probe and release CPU.
func estimateLists(st *PlanStats) sim.Snapshot {
	a := estAccum{p: st.Profile}
	batch := uint64(st.Exec.WithDefaults().ISLBatch)
	cellBytes := uint64(estCellMeta + 10)
	var total, batches, maxBatches uint64
	for _, d := range st.LeafDepths {
		du := uint64(d)
		b := du/batch + 1
		total += du
		batches += b
		if b > maxBatches {
			maxBatches = b
		}
	}
	seqBatches := batches
	if st.Exec.Parallelism >= 2 {
		// Prefetching overlaps the leaves' round trips; the slowest
		// stream dominates.
		seqBatches = maxBatches
	}
	a.advance(seqBatches, &sim.Op{RPCs: 1, DiskBytes: batch * cellBytes, WireBytes: batch * cellBytes})
	a.count(&sim.Op{RPCs: batches, DiskBytes: total * cellBytes, WireBytes: total * cellBytes, Cells: total})
	// Each consumed tuple probes its neighbor leaves' seen sets; each
	// released result builds all n of its tuples.
	a.advance(1, &sim.Op{Cells: total + uint64(st.K)*uint64(len(st.LeafDepths))})
	return a.s
}

func estimateBFHM(st *PlanStats) sim.Snapshot {
	a := estAccum{p: st.Profile}
	buckets := st.BFHMBuckets
	if buckets < 1 {
		buckets = 100
	}
	// Estimation phase: fetch leading buckets of both histograms until
	// the estimated cardinality covers k (the StatBands walk), each a
	// keyed read of one Golomb-compressed blob row.
	fetches := uint64(2 * max(2, st.StatBands))
	rowsPerBucket := (st.Leaves[0].Rows + st.Leaves[1].Rows) / 2 / uint64(buckets)
	if rowsPerBucket < 1 {
		rowsPerBucket = 1
	}
	blobBytes := rowsPerBucket*2 + 64 // ~1.5 bytes/element after GCS
	a.gets(fetches, blobBytes, 1)
	a.count(&sim.Op{Cells: 2 * fetches}) // blob rows carry blob+min+max cells
	// Filter intersections: proportional to the set bits touched.
	a.advance(1, &sim.Op{Cells: fetches * rowsPerBucket})

	// Reverse-mapping phase: ~2 keyed reads per surviving estimated
	// result (one per side), fanned out over the parallelism lanes.
	cands := uint64(2 * st.K)
	lanes := st.Exec.Parallelism
	if lanes < 1 {
		lanes = 1
	}
	a.gets(cands, estTupleWire+estCellMeta, lanes)
	a.advance(1, &sim.Op{Cells: cands + uint64(st.K)})
	return a.s
}

func estimateDRJN(st *PlanStats) sim.Snapshot {
	a := estAccum{p: st.Profile}
	parts := st.DRJNJoinParts
	if parts < 1 {
		parts = 64
	}
	bands := uint64(2 * max(2, st.StatBands))
	bandBytes := uint64(25 + 8*parts)
	a.gets(bands, bandBytes, 1)

	// Pull phase: one map-only filtered scan per relation and per
	// round — the full table is examined server-side every time
	// (DRJN's dollar-cost blowup), only tuples above the band floors
	// are materialized into a temp table the coordinator reads back.
	// The loop deepens by ~two bands per round until the k'th actual
	// score beats the unexamined bands' ceiling, so the statistics
	// walk's band count approximates the round count.
	rounds := max(1, (max(2, st.StatBands)+1)/2)
	if rounds > 16 {
		rounds = 16
	}
	l, r := st.Leaves[0], st.Leaves[1]
	pulledL, pulledR := uint64(st.LeafDepths[0]), uint64(st.LeafDepths[1])
	pulledBytes := (pulledL + pulledR) * (estTupleWire + estCellMeta)
	for range rounds {
		a.charge(&sim.Op{Jobs: 1})
		a.mapPhase(l.Bytes, 2*l.Rows, 0, l.Regions)
		a.charge(&sim.Op{Jobs: 1})
		a.mapPhase(r.Bytes, 2*r.Rows, 0, r.Regions)
		a.charge(&sim.Op{WireBytes: pulledBytes}) // temp-table writes cross the network
		// Coordinator reads the pulled tuples back and joins exactly.
		a.clientScan(pulledL+pulledR, pulledBytes, pulledL+pulledR)
	}
	a.advance(1, &sim.Op{Cells: pulledL + pulledR + uint64(st.K)})
	return a.s
}
