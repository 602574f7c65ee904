package core

import (
	"time"

	"repro/internal/sim"
)

// This file holds the per-executor cost estimators behind
// Executor.Estimate: closed-form predictions of the paper's three
// metrics (simulated time, network bytes, KV read units) built from the
// same hardware profile the simulator charges, the planner's table
// statistics, and the DRJN/BFHM-derived join-cardinality and
// termination-depth estimates in PlanStats.
//
// The formulas mirror the charging paths in internal/kvstore and
// internal/mapreduce: client scans pay per-batch RPC latency plus disk
// and transfer time, keyed reads pay a seek, MapReduce jobs pay job and
// task startup plus region-parallel scan makespans, and every examined
// cell is one KV read unit. Estimates do not need to be exact — the
// planner only needs the relative ordering (and the stamped estimate
// makes the residual error measurable per query).

// Wire-size approximations (bytes). Tuples carry short row keys and
// join values; these mirror EncodeTuple/EncodeJoinResult overheads.
const (
	estTupleWire = 40 // one encoded tuple incl. length prefixes
	estPairWire  = 88 // one encoded join pair
	estCellMeta  = 30 // stored-cell key/family/qualifier overhead
	estRPCOver   = 64 // fixed RPC request overhead (kvstore)
	estScanBatch = 1024
)

// estAccum accumulates one candidate plan's predicted cost.
type estAccum struct {
	p     sim.Profile
	t     time.Duration
	net   uint64
	reads uint64
}

func (a *estAccum) est() CostEstimate {
	return CostEstimate{SimTime: a.t, NetworkBytes: a.net, KVReads: a.reads}
}

// clientScan models a batched client-side table scan returning all
// cells: per-batch RPC latency, sequential disk read, and transfer.
func (a *estAccum) clientScan(rows, bytes, cells uint64) {
	batches := rows/estScanBatch + 1
	net := bytes + batches*estRPCOver
	a.reads += cells
	a.net += net
	a.t += time.Duration(batches)*a.p.RPCLatency +
		a.p.ScanTime(bytes) + a.p.TransferTime(net) + a.p.CPUTime(cells)
}

// gets models n keyed point reads of ~rowBytes each, fanned out over
// `lanes` concurrent lanes (1 = sequential).
func (a *estAccum) gets(n, rowBytes uint64, lanes int) {
	if n == 0 {
		return
	}
	if lanes < 1 {
		lanes = 1
	}
	per := a.p.SeekLatency + a.p.RPCLatency + a.p.TransferTime(rowBytes+estRPCOver)
	a.reads += n // ballpark: one cell per fetched row
	a.net += n * (rowBytes + estRPCOver)
	a.t += time.Duration((n + uint64(lanes) - 1) / uint64(lanes) * uint64(per))
}

// mapPhase models the map wave of one MR job: one task per region,
// scheduled round-robin over the cluster's nodes.
func (a *estAccum) mapPhase(bytes, cells, emitted uint64, regions int) {
	if regions < 1 {
		regions = 1
	}
	workers := a.p.Nodes
	if workers < 1 {
		workers = 1
	}
	waves := (regions + workers - 1) / workers
	perTask := a.p.MRTaskStartup +
		a.p.ScanTime(bytes/uint64(regions)) +
		a.p.CPUTime((cells+emitted)/uint64(regions))
	a.reads += cells
	a.t += time.Duration(waves) * perTask
}

// shuffle models moving bytes from mappers to reducers.
func (a *estAccum) shuffle(bytes uint64) {
	a.net += bytes
	a.t += a.p.TransferTime(bytes)
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
	a.t += time.Duration(waves) * (a.p.MRTaskStartup + a.p.CPUTime(inputCells/uint64(numReducers)))
	a.net += writeBytes
	a.t += a.p.TransferTime(writeBytes)
}

// jobStart charges one MR job scheduling overhead.
func (a *estAccum) jobStart() { a.t += a.p.MRJobStartup }

// ---- Per-executor estimators ----

func estimateNaive(st *PlanStats) CostEstimate {
	a := estAccum{p: st.Profile}
	var tuples uint64
	for _, l := range st.Leaves {
		a.clientScan(l.Rows, l.Bytes, 2*l.Rows)
		tuples += l.Rows
	}
	// Coordinator hash join over everything.
	a.t += a.p.CPUTime(tuples + uint64(st.JoinPairs))
	return a.est()
}

func estimateHive(st *PlanStats) CostEstimate {
	a := estAccum{p: st.Profile}
	l, r := st.Leaves[0], st.Leaves[1]
	tuples := l.Rows + r.Rows
	j := uint64(st.JoinPairs)
	// Hive drags unprojected SELECT * rows (~1 KB padding) through both
	// shuffles and the materialized join (hivePadding in hive.go).
	pairBytes := uint64(estPairWire + estCellMeta + 1024)

	// Job 1: repartition join of both base tables.
	a.jobStart()
	a.mapPhase(l.Bytes, 2*l.Rows, l.Rows, l.Regions)
	a.mapPhase(r.Bytes, 2*r.Rows, r.Rows, r.Regions)
	a.shuffle(tuples * (estTupleWire + 10))
	a.reducePhase(tuples+j, j*pairBytes, a.p.Nodes)

	// Job 2: score + total order (single reducer).
	a.jobStart()
	a.mapPhase(j*pairBytes, j, j, a.p.Nodes)
	a.shuffle(j * pairBytes)
	a.reducePhase(j, j*pairBytes, 1)

	// Stage 3: fetch the k best rows.
	a.gets(uint64(st.K), pairBytes, 1)
	return a.est()
}

func estimatePig(st *PlanStats) CostEstimate {
	a := estAccum{p: st.Profile}
	l, r := st.Leaves[0], st.Leaves[1]
	tuples := l.Rows + r.Rows
	j := uint64(st.JoinPairs)
	pairBytes := uint64(estPairWire + estCellMeta) // early projection: no padding

	// Job 1: repartition join (projected).
	a.jobStart()
	a.mapPhase(l.Bytes, 2*l.Rows, l.Rows, l.Regions)
	a.mapPhase(r.Bytes, 2*r.Rows, r.Rows, r.Regions)
	a.shuffle(tuples * (estTupleWire + 10))
	a.reducePhase(tuples+j, j*pairBytes, a.p.Nodes)

	// Job 2: ORDER BY sampling pass over the join result.
	a.jobStart()
	a.mapPhase(j*pairBytes, j, j/100, a.p.Nodes)
	a.shuffle(j / 100 * 16)
	a.reducePhase(j/100, 0, 1)

	// Job 3: top-k push-down — mappers emit local top-k lists only.
	a.jobStart()
	localK := uint64(a.p.Nodes * st.K)
	a.mapPhase(j*pairBytes, j, localK, a.p.Nodes)
	a.shuffle(localK * estPairWire)
	a.reducePhase(localK, 0, 1)
	a.net += uint64(st.K) * estPairWire // final output to the client
	return a.est()
}

func estimateIJLMR(st *PlanStats) CostEstimate {
	a := estAccum{p: st.Profile}
	tuples := st.Leaves[0].Rows + st.Leaves[1].Rows
	idxBytes := st.IndexBytes
	if idxBytes == 0 {
		idxBytes = tuples * estCellMeta // index not built yet: extrapolate
	}
	// One map-only-style job over the inverse join list: each row holds
	// one join value's tuples from both sides; mappers pay the per-row
	// cartesian product, then a single reducer merges local top-k lists.
	a.jobStart()
	localK := uint64(a.p.Nodes * st.K)
	a.mapPhase(idxBytes, tuples+uint64(st.JoinPairs), localK, a.p.Nodes)
	a.shuffle(localK * estPairWire)
	a.reducePhase(localK, 0, 1)
	a.net += uint64(st.K) * estPairWire
	return a.est()
}

// estimateLists prices the isl executor's rank-join operator over
// inverse score lists: one batched list scan per leaf down to its
// estimated termination depth (PlanStats.LeafDepths, ~one index cell
// per tuple), plus the per-tuple probe and release CPU.
func estimateLists(st *PlanStats) CostEstimate {
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
	perBatch := a.p.RPCLatency +
		a.p.ScanTime(batch*cellBytes) +
		a.p.TransferTime(batch*cellBytes+estRPCOver)
	seqBatches := batches
	if st.Exec.Parallelism >= 2 {
		// Prefetching overlaps the leaves' round trips; the slowest
		// stream dominates.
		seqBatches = maxBatches
	}
	a.t += time.Duration(seqBatches) * perBatch
	a.reads += total
	a.net += total*cellBytes + batches*estRPCOver
	// Each consumed tuple probes its neighbor leaves' seen sets; each
	// released result builds all n of its tuples.
	a.t += a.p.CPUTime(total + uint64(st.K)*uint64(len(st.LeafDepths)))
	return a.est()
}

func estimateBFHM(st *PlanStats) CostEstimate {
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
	a.reads += 2 * fetches // blob rows carry blob+min+max cells
	// Filter intersections: proportional to the set bits touched.
	a.t += a.p.CPUTime(fetches * rowsPerBucket)

	// Reverse-mapping phase: ~2 keyed reads per surviving estimated
	// result (one per side), fanned out over the parallelism lanes.
	cands := uint64(2 * st.K)
	lanes := st.Exec.Parallelism
	if lanes < 1 {
		lanes = 1
	}
	a.gets(cands, estTupleWire+estCellMeta, lanes)
	a.t += a.p.CPUTime(cands + uint64(st.K))
	return a.est()
}

func estimateDRJN(st *PlanStats) CostEstimate {
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
		a.jobStart()
		a.mapPhase(l.Bytes, 2*l.Rows, 0, l.Regions)
		a.jobStart()
		a.mapPhase(r.Bytes, 2*r.Rows, 0, r.Regions)
		a.net += pulledBytes // temp-table writes cross the network
		a.t += a.p.TransferTime(pulledBytes)
		// Coordinator reads the pulled tuples back and joins exactly.
		a.clientScan(pulledL+pulledR, pulledBytes, pulledL+pulledR)
	}
	a.t += a.p.CPUTime(pulledL + pulledR + uint64(st.K))
	return a.est()
}
