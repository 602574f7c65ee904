// Package mapreduce implements the Hadoop-style execution framework the
// paper's baselines and index builders run on: locality-aware map tasks
// (one per table region, scheduled on the region's node), an optional
// combiner, a sort-shuffle to a configurable number of reducers, and
// map-only jobs whose output is written directly into the NoSQL store
// (Section 4.1.1: "a special type of MapReduce job where there are no
// reducers and the output of mappers is written directly into the NoSQL
// store").
//
// The runner charges the cluster's sim.Metrics the way Hadoop costs
// accrue: job and task startup overheads, local disk scans at the
// mappers, network bytes for the shuffle and for store writes, and CPU
// per key-value touched. Map tasks read their region from local disk, so
// scanning is NOT network traffic — the property that makes IJLMR's
// bandwidth profile (only local top-k lists cross the network) reproduce.
package mapreduce

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bloom"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// KV is an intermediate or output key-value pair.
type KV struct {
	Key   string
	Value []byte
}

func (kv KV) size() uint64 { return uint64(len(kv.Key) + len(kv.Value) + 16) }

// Context is the interface tasks use to emit output, write to the store,
// and bump counters.
type Context interface {
	// Emit sends a KV to the shuffle (mappers) or job output (reducers).
	Emit(key string, value []byte)
	// WriteCell buffers a direct store write (map-only index builders).
	WriteCell(table string, cell kvstore.Cell)
	// Counter adds delta to a named job counter.
	Counter(name string, delta int64)
}

// Mapper transforms one input row into intermediate KVs. The task
// streams its region through LocalScan in reused blocks, so row and its
// Cells are valid only for the Map call; the cells' strings and Values
// are views that may be kept (see kvstore.Cell).
type Mapper interface {
	Map(row *kvstore.Row, ctx Context) error
}

// Finisher is an optional Mapper extension: Finish runs after the task's
// last input row, letting stateful mappers emit accumulated results (the
// IJLMR query mappers emit their local top-k lists this way, Algorithm 2:
// "mappers ... emit their final top-k list when their input data is
// exhausted").
type Finisher interface {
	Finish(ctx Context) error
}

// Reducer folds all values of one intermediate key.
type Reducer interface {
	Reduce(key string, values [][]byte, ctx Context) error
}

// MapperFunc adapts a function to Mapper.
type MapperFunc func(row *kvstore.Row, ctx Context) error

// Map implements Mapper.
func (f MapperFunc) Map(row *kvstore.Row, ctx Context) error { return f(row, ctx) }

// ReducerFunc adapts a function to Reducer.
type ReducerFunc func(key string, values [][]byte, ctx Context) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values [][]byte, ctx Context) error {
	return f(key, values, ctx)
}

// Job describes one MapReduce execution.
type Job struct {
	Name    string
	Cluster *kvstore.Cluster
	// Input selects the rows fed to the mappers. Caching is ignored —
	// mappers stream their region locally.
	Input kvstore.Scan
	// Inputs, when non-empty, replaces Input/Mapper with several
	// (table, mapper) pairs — Hadoop's MultipleInputs, needed by the
	// Hive/Pig join jobs that map two tables into one shuffle.
	Inputs []TableInput
	// Mapper is required unless Inputs is set. If the mapper keeps
	// per-task state, set MapperFactory instead.
	Mapper Mapper
	// MapperFactory, when set, creates a fresh Mapper per map task
	// (tasks for different regions run concurrently and must not share
	// mutable state).
	MapperFactory func() Mapper
	// Combiner, if set, runs on each mapper's output group-by-key
	// before the shuffle (Pig's local top-k lists use this).
	Combiner Reducer
	// Reducer, if nil, makes this a map-only job.
	Reducer Reducer
	// NumReducers defaults to 1. Intermediate keys reach reducer
	// hash(key) mod NumReducers.
	NumReducers int
}

// Result is a completed job's output.
type Result struct {
	// Output collects reducer emissions (mapper emissions for map-only
	// jobs), in reducer-then-key order.
	Output []KV
	// Counters aggregates task counters.
	Counters map[string]int64
	// MapInputRows / MapInputCells describe the scanned input.
	MapInputRows  uint64
	MapInputCells uint64
	// ShuffleBytes crossed the network between map and reduce.
	ShuffleBytes uint64
	// StoreWriteBytes were written into the NoSQL store by tasks.
	StoreWriteBytes uint64
	// PeakReducerMemory is the largest input buffered by any single
	// reduce task (the paper reports reducer memory footprints for the
	// index builders).
	PeakReducerMemory uint64
	// PeakReduceGroup is the largest single reduce group (one key's
	// values) — a streaming reducer's working set, e.g. one BFHM bucket
	// ("each reducer operates on the mapped tuples for one BFHM bucket
	// at a time", Section 5.1).
	PeakReduceGroup uint64
	// SimTime is the job's simulated wall-clock duration.
	SimTime time.Duration
}

// taskContext implements Context for one task.
type taskContext struct {
	emitted []KV
	// writes holds each table's cells in write order, in chunks of about
	// writeChunk cells cut at row boundaries, so a large task output is
	// never copied to grow and each chunk is one BulkWrite part.
	writes   map[string][][]kvstore.Cell
	counters map[string]int64
}

// writeChunk is the cell count at which a task's write chunk for a
// table is closed, at the next row boundary.
const writeChunk = 1024

func newTaskContext() *taskContext {
	return &taskContext{writes: map[string][][]kvstore.Cell{}, counters: map[string]int64{}}
}

// Emit implements Context.
func (t *taskContext) Emit(key string, value []byte) {
	v := append([]byte(nil), value...)
	t.emitted = append(t.emitted, KV{Key: key, Value: v})
}

// WriteCell implements Context. A full chunk takes the cells of the row
// it ends with; the next row starts a new chunk. BulkWrite counts the
// first cell of each part as a new row mutation, so chunks cut inside a
// row would count it twice.
func (t *taskContext) WriteCell(table string, cell kvstore.Cell) {
	chunks := t.writes[table]
	n := len(chunks)
	if n == 0 || len(chunks[n-1]) >= writeChunk && chunks[n-1][len(chunks[n-1])-1].Row != cell.Row {
		chunks = append(chunks, make([]kvstore.Cell, 0, writeChunk))
		n++
	}
	chunks[n-1] = append(chunks[n-1], cell)
	t.writes[table] = chunks
}

// Counter implements Context.
func (t *taskContext) Counter(name string, delta int64) { t.counters[name] += delta }

// TableInput pairs an input table scan with the mapper that processes it
// (Hadoop MultipleInputs).
type TableInput struct {
	Scan kvstore.Scan
	// Mapper, or MapperFactory for stateful per-task mappers.
	Mapper        Mapper
	MapperFactory func() Mapper
}

// split is one map task: a region plus the mapper that consumes it.
type split struct {
	region *kvstore.Region
	scan   kvstore.Scan
	mapper Mapper
}

// Run executes the job synchronously and returns its result.
func Run(job *Job) (*Result, error) {
	if job.Cluster == nil {
		return nil, fmt.Errorf("mapreduce: job %q needs a cluster", job.Name)
	}
	inputs := job.Inputs
	if len(inputs) == 0 {
		if job.Mapper == nil && job.MapperFactory == nil {
			return nil, fmt.Errorf("mapreduce: job %q needs a mapper", job.Name)
		}
		inputs = []TableInput{{Scan: job.Input, Mapper: job.Mapper, MapperFactory: job.MapperFactory}}
	}
	if job.NumReducers < 1 {
		job.NumReducers = 1
	}
	var splits []split
	for _, in := range inputs {
		regions, err := job.Cluster.TableRegions(in.Scan.Table)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
		}
		for _, r := range regions {
			m := in.Mapper
			if in.MapperFactory != nil {
				m = in.MapperFactory()
			}
			if m == nil {
				return nil, fmt.Errorf("mapreduce: job %q: input %q has no mapper", job.Name, in.Scan.Table)
			}
			splits = append(splits, split{region: r, scan: in.Scan, mapper: m})
		}
	}

	profile := job.Cluster.Profile()
	metrics := job.Cluster.Metrics()
	res := &Result{Counters: map[string]int64{}}
	mapTimer := sim.NewParallelTimer(profile.Nodes)

	// ---- Map phase: one task per region, on the region's node. ----
	type mapOut struct {
		ctx   *taskContext
		stats kvstore.OpStats
		rows  uint64
		node  int
		err   error
	}
	outs := make([]mapOut, len(splits))
	var wg sync.WaitGroup
	for i, sp := range splits {
		wg.Add(1)
		go func(i int, sp split) {
			defer wg.Done()
			ctx := newTaskContext()
			// Cooperative cancellation: LocalScan bypasses the metered
			// client (and so its guard), so the task checks the job
			// cluster's interrupt itself — before the scan and
			// periodically through the mapper loop.
			if err := job.Cluster.CheckInterrupt(); err != nil {
				outs[i] = mapOut{err: err}
				return
			}
			var rows uint64
			stats, err := sp.region.LocalScan(sp.scan.Families, sp.scan.Filter, func(row *kvstore.Row) error {
				if rows%1024 == 0 {
					if err := job.Cluster.CheckInterrupt(); err != nil {
						return err
					}
				}
				rows++
				return sp.mapper.Map(row, ctx)
			})
			if err != nil {
				outs[i] = mapOut{err: err}
				return
			}
			if fin, ok := sp.mapper.(Finisher); ok {
				if err := fin.Finish(ctx); err != nil {
					outs[i] = mapOut{err: err}
					return
				}
			}
			outs[i] = mapOut{ctx: ctx, stats: stats, rows: rows, node: sp.region.Node()}
		}(i, sp)
	}
	wg.Wait()

	var mapWrites []*taskContext
	var mapEmissions [][]KV
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			return nil, fmt.Errorf("mapreduce: job %q map task %d: %w", job.Name, i, o.err)
		}
		// Charge the map task to its node: startup + local scan + CPU
		// over the cells it read and the records it emitted.
		mapTimer.AssignTo(o.node, profile.Price(&sim.Op{Tasks: 1, DiskBytes: o.stats.BytesRead,
			Cells: o.stats.CellsExamined + uint64(len(o.ctx.emitted))}))
		metrics.Count(&sim.Op{DiskBytes: o.stats.BytesRead, Cells: o.stats.CellsExamined})
		res.MapInputRows += o.rows
		res.MapInputCells += o.stats.CellsExamined
		for name, v := range o.ctx.counters {
			res.Counters[name] += v
		}

		emissions := o.ctx.emitted
		if job.Combiner != nil && len(emissions) > 0 {
			combined, err := combine(job.Combiner, emissions, res.Counters)
			if err != nil {
				return nil, fmt.Errorf("mapreduce: job %q combiner: %w", job.Name, err)
			}
			emissions = combined
		}
		mapEmissions = append(mapEmissions, emissions)
		mapWrites = append(mapWrites, o.ctx)
	}

	// ---- Direct store writes (map-only jobs). ----
	bytes, err := writeOutput(job.Cluster, mapWrites)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q store write: %w", job.Name, err)
	}
	res.StoreWriteBytes += bytes
	// The job's startup, then its store writes crossing the network
	// (rows hash anywhere in the table).
	launch := sim.Op{Jobs: 1, WireBytes: res.StoreWriteBytes}
	metrics.Count(&launch)
	jobTime := profile.Price(&launch) + mapTimer.Makespan()

	// ---- Shuffle + reduce (skipped for map-only jobs). ----
	if job.Reducer != nil {
		partitions := make([]map[string][][]byte, job.NumReducers)
		order := make([][]string, job.NumReducers)
		for p := range partitions {
			partitions[p] = map[string][][]byte{}
		}
		for _, emissions := range mapEmissions {
			for _, kv := range emissions {
				p := hashPartition(kv.Key, job.NumReducers)
				if _, seen := partitions[p][kv.Key]; !seen {
					order[p] = append(order[p], kv.Key)
				}
				partitions[p][kv.Key] = append(partitions[p][kv.Key], kv.Value)
				res.ShuffleBytes += kv.size()
			}
		}
		shuffle := sim.Op{WireBytes: res.ShuffleBytes}
		metrics.Count(&shuffle)

		reduceTimer := sim.NewParallelTimer(profile.Nodes)
		type redOut struct {
			ctx       *taskContext
			taskInput uint64
			peakGroup uint64
			kvCount   uint64
			err       error
		}
		redOuts := make([]redOut, job.NumReducers)
		var rwg sync.WaitGroup
		for p := 0; p < job.NumReducers; p++ {
			rwg.Add(1)
			go func(p int) {
				defer rwg.Done()
				ctx := newTaskContext()
				keys := order[p]
				sort.Strings(keys)
				var taskInput, peakGroup uint64
				var kvCount uint64
				for ki, k := range keys {
					if ki%1024 == 0 {
						if err := job.Cluster.CheckInterrupt(); err != nil {
							redOuts[p] = redOut{err: err}
							return
						}
					}
					vals := partitions[p][k]
					var groupBytes uint64
					for _, v := range vals {
						groupBytes += uint64(len(k) + len(v) + 16)
					}
					taskInput += groupBytes
					if groupBytes > peakGroup {
						peakGroup = groupBytes
					}
					kvCount += uint64(len(vals))
					if err := job.Reducer.Reduce(k, vals, ctx); err != nil {
						redOuts[p] = redOut{err: err}
						return
					}
				}
				redOuts[p] = redOut{ctx: ctx, taskInput: taskInput, peakGroup: peakGroup, kvCount: kvCount}
			}(p)
		}
		rwg.Wait()

		redWrites := make([]*taskContext, 0, len(redOuts))
		for p := range redOuts {
			if redOuts[p].err != nil {
				return nil, fmt.Errorf("mapreduce: job %q reduce task %d: %w", job.Name, p, redOuts[p].err)
			}
			ctx := redOuts[p].ctx
			if redOuts[p].taskInput > res.PeakReducerMemory {
				res.PeakReducerMemory = redOuts[p].taskInput
			}
			if redOuts[p].peakGroup > res.PeakReduceGroup {
				res.PeakReduceGroup = redOuts[p].peakGroup
			}
			reduceTimer.AssignTo(p, profile.Price(&sim.Op{Tasks: 1,
				Cells: redOuts[p].kvCount + uint64(len(ctx.emitted))}))
			res.Output = append(res.Output, ctx.emitted...)
			for name, v := range ctx.counters {
				res.Counters[name] += v
			}
			redWrites = append(redWrites, ctx)
		}
		redWriteBytes, err := writeOutput(job.Cluster, redWrites)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %q reduce store write: %w", job.Name, err)
		}
		res.StoreWriteBytes += redWriteBytes
		redWrite := sim.Op{WireBytes: redWriteBytes}
		metrics.Count(&redWrite)
		jobTime += profile.Price(&shuffle) + reduceTimer.Makespan() + profile.Price(&redWrite)
	} else {
		// Map-only: emissions become the job output directly, shipped
		// to the client.
		for _, emissions := range mapEmissions {
			res.Output = append(res.Output, emissions...)
		}
		var outBytes uint64
		for _, kv := range res.Output {
			outBytes += kv.size()
		}
		out := sim.Op{WireBytes: outBytes}
		metrics.Count(&out)
		jobTime += profile.Price(&out)
	}

	metrics.Advance(jobTime)
	res.SimTime = jobTime
	return res, nil
}

// writeOutput lands the store writes of a phase's tasks: one BulkWrite
// per table, tables in name order, each carrying every task's cells for
// it in task order, so a job's output ends as one sorted run per region
// family and its timestamps and sequence numbers repeat run to run. It
// counts the writes and returns the payload bytes; the caller prices
// them as network traffic.
//
//lint:allow maintcheck a job writes what its tasks emit: index tables and query scratch tables, never a maintained base relation
func writeOutput(c *kvstore.Cluster, tasks []*taskContext) (uint64, error) {
	byTable := map[string][][]kvstore.Cell{}
	var tables []string
	for _, t := range tasks {
		for table, chunks := range t.writes {
			if _, ok := byTable[table]; !ok {
				tables = append(tables, table)
			}
			byTable[table] = append(byTable[table], chunks...)
		}
	}
	sort.Strings(tables)
	var total uint64
	for _, table := range tables {
		parts := byTable[table]
		bytes, err := c.BulkWrite(table, parts...)
		if err != nil {
			return total, err
		}
		total += bytes
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		c.Metrics().Count(&sim.Op{Writes: uint64(n)})
	}
	return total, nil
}

// combine groups one mapper's emissions by key and runs the combiner,
// returning its (usually much smaller) output.
func combine(c Reducer, emissions []KV, counters map[string]int64) ([]KV, error) {
	grouped := map[string][][]byte{}
	var order []string
	for _, kv := range emissions {
		if _, seen := grouped[kv.Key]; !seen {
			order = append(order, kv.Key)
		}
		grouped[kv.Key] = append(grouped[kv.Key], kv.Value)
	}
	sort.Strings(order)
	ctx := newTaskContext()
	for _, k := range order {
		if err := c.Reduce(k, grouped[k], ctx); err != nil {
			return nil, err
		}
	}
	for name, v := range ctx.counters {
		counters[name] += v
	}
	return ctx.emitted, nil
}

// hashPartition routes an intermediate key to one of n reducers.
func hashPartition(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(bloom.Hash64String(key) % uint64(n))
}
