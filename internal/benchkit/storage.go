package benchkit

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	rankjoin "repro"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// StoragePoint compares one operation's measured wall-clock across the
// two storage modes. Micros are per-operation for point workloads and
// per-run for bulk workloads; Ratio is disk over memory.
type StoragePoint struct {
	MemoryMicros float64
	DiskMicros   float64
	Ratio        float64
}

// storageRun holds one mode's measurements, keyed like the report.
type storageRun map[string]float64

// StorageOps lists the report's operations in presentation order.
var StorageOps = []string{
	"point_get", "point_get_warm", "scan_10k", "merge_drain",
	"sustained_load", "q1_topk", "q2_topk",
}

// StorageReport benchmarks the storage engine in both modes — the
// in-memory segments the simulator always had, and the PR-7 on-disk
// SSTable path — and reports real wall-clock per operation:
//
//	point_get       cold point reads (first touch of each data block)
//	point_get_warm  the same reads again (block cache hits)
//	scan_10k        full scan of a compacted 10k-row table
//	merge_drain     full scan across four overlapping un-compacted runs
//	sustained_load  10k puts with periodic flushes (WAL + SSTable writes)
//	q1_topk, q2_topk  end-to-end rank-join queries (ISL) on TPC-H
//
// The disk run lives under dir (wiped per call). sf sizes the TPC-H
// instance backing the query rows.
func StorageReport(dir string, sf float64, seed int64) (string, error) {
	mem, err := storageSuite(nil, "")
	if err != nil {
		return "", err
	}
	diskRoot := filepath.Join(dir, "kv")
	if err := os.RemoveAll(diskRoot); err != nil {
		return "", err
	}
	disk, err := storageSuite(nil, diskRoot)
	if err != nil {
		return "", err
	}
	if err := storageQueries(mem, sf, seed, ""); err != nil {
		return "", err
	}
	qdir := filepath.Join(dir, "db")
	if err := os.RemoveAll(qdir); err != nil {
		return "", err
	}
	if err := storageQueries(disk, sf, seed, qdir); err != nil {
		return "", err
	}

	points := map[string]StoragePoint{}
	for _, op := range StorageOps {
		p := StoragePoint{MemoryMicros: mem[op], DiskMicros: disk[op]}
		if p.MemoryMicros > 0 {
			p.Ratio = p.DiskMicros / p.MemoryMicros
		}
		points[op] = p
	}
	return FormatStorageTable(points), nil
}

// FormatStorageTable renders the memory-vs-disk comparison.
func FormatStorageTable(points map[string]StoragePoint) string {
	var b strings.Builder
	b.WriteString("Storage engine: in-memory vs on-disk SSTables (wall-clock)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %8s\n", "operation", "memory(us)", "disk(us)", "ratio")
	ops := make([]string, 0, len(points))
	for _, op := range StorageOps {
		if _, ok := points[op]; ok {
			ops = append(ops, op)
		}
	}
	for op := range points {
		if !slicesContains(ops, op) {
			ops = append(ops, op)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool {
		return storageOpRank(ops[i]) < storageOpRank(ops[j])
	})
	for _, op := range ops {
		p := points[op]
		fmt.Fprintf(&b, "%-16s %12.1f %12.1f %7.2fx\n",
			op, p.MemoryMicros, p.DiskMicros, p.Ratio)
	}
	return b.String()
}

func storageOpRank(op string) int {
	for i, o := range StorageOps {
		if o == op {
			return i
		}
	}
	return len(StorageOps)
}

func slicesContains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// storageSuite runs the raw-engine workloads on one cluster mode
// (dir == "" → memory) and fills run with the measurements.
func storageSuite(run storageRun, dir string) (storageRun, error) {
	if run == nil {
		run = storageRun{}
	}
	c, err := openBenchCluster(dir)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	const rows = 10000
	value := make([]byte, 64)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	rowKey := func(i int) string { return fmt.Sprintf("row%06d", i) }
	if _, err := c.CreateTable("bench", []string{"f"}, nil); err != nil {
		return nil, err
	}

	// Sustained load: 10k timestamped puts with a flush every 2500 —
	// in disk mode each flush writes a real SSTable and every put
	// appends to the WAL first.
	start := time.Now()
	for i := 0; i < rows; i++ {
		cell := kvstore.Cell{
			Row: rowKey(i), Family: "f", Qualifier: "q",
			Timestamp: int64(i + 1), Value: value,
		}
		//lint:allow maintcheck raw-engine benchmark table; no relation or index is defined over it
		if err := c.Put("bench", cell); err != nil {
			return nil, err
		}
		if (i+1)%2500 == 0 {
			if err := c.FlushAll(); err != nil {
				return nil, err
			}
		}
	}
	run["sustained_load"] = micros(start)

	// Merge drain: a full scan while the table is still four
	// overlapping runs, so every row goes through the merge iterator.
	start = time.Now()
	if n, err := countRows(c); err != nil {
		return nil, err
	} else if n != rows {
		return nil, fmt.Errorf("merge drain saw %d rows, want %d", n, rows)
	}
	run["merge_drain"] = micros(start)

	// Compact to one run per region, then measure the clean scan.
	regs, err := c.TableRegions("bench")
	if err != nil {
		return nil, err
	}
	for _, r := range regs {
		if err := r.Compact(); err != nil {
			return nil, err
		}
	}
	start = time.Now()
	if n, err := countRows(c); err != nil {
		return nil, err
	} else if n != rows {
		return nil, fmt.Errorf("scan saw %d rows, want %d", n, rows)
	}
	run["scan_10k"] = micros(start)

	// Point gets: 500 pseudo-random rows, cold then warm. The row
	// cache is disabled so the warm pass exercises the block cache
	// (disk) or the plain segment search (memory), not a row-level
	// shortcut above the engine.
	c.SetRowCacheBytes(0)
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = rowKey(rng.Intn(rows))
	}
	get := func() (float64, error) {
		start := time.Now()
		for _, k := range keys {
			row, err := c.Get("bench", k)
			if err != nil {
				return 0, err
			}
			if row == nil {
				return 0, fmt.Errorf("row %s missing", k)
			}
		}
		return micros(start) / float64(len(keys)), nil
	}
	if run["point_get"], err = get(); err != nil {
		return nil, err
	}
	if run["point_get_warm"], err = get(); err != nil {
		return nil, err
	}
	return run, nil
}

// storageQueries times end-to-end Q1/Q2 rank joins (ISL, k=10) over a
// TPC-H environment in one storage mode (dir == "" → memory).
func storageQueries(run storageRun, sf float64, seed int64, dir string) error {
	var env *Env
	var err error
	if dir == "" {
		env, err = Setup(sim.LC(), sf, seed)
	} else {
		env, _, err = SetupAt(sim.LC(), sf, seed, dir)
	}
	if err != nil {
		return err
	}
	defer env.DB.Close()
	if dir != "" {
		// Push everything to SSTables so the queries read disk, not the
		// still-warm memtables the load left behind.
		if err := env.DB.Cluster().FlushAll(); err != nil {
			return err
		}
	}
	for _, q := range []struct {
		key   string
		query rankjoin.Query
	}{{"q1_topk", env.Q1}, {"q2_topk", env.Q2}} {
		start := time.Now()
		if _, err := env.DB.TopK(q.query.WithK(10), rankjoin.AlgoISL,
			&rankjoin.QueryOptions{ISLBatch: env.ISLBatch}); err != nil {
			return err
		}
		run[q.key] = micros(start)
	}
	return nil
}

// openBenchCluster opens a raw cluster in the requested mode.
func openBenchCluster(dir string) (*kvstore.Cluster, error) {
	if dir == "" {
		return kvstore.NewCluster(sim.LC(), nil)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return kvstore.OpenCluster(sim.LC(), nil, dir)
}

// countRows drains a full table scan.
func countRows(c *kvstore.Cluster) (int, error) {
	rows, err := c.ScanAll(kvstore.Scan{Table: "bench", Caching: 512})
	if err != nil {
		return 0, err
	}
	return len(rows), nil
}

func micros(start time.Time) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e3
}
