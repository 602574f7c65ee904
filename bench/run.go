package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
)

// checkOps bounds the check round: the oracle is a full join per
// (query, state), so on write-heavy mixes checking a whole round would
// take longer than measuring it. The check round replays this prefix
// of the op list and compares every read in it.
const checkOps = 240

// refSeconds is the --seconds the workloads' roundOps are calibrated
// for (BENCHMARK.json's run_seconds).
const refSeconds = 10

// harness is one benchmark process: its scratch directory, its exit
// hooks and the knobs the command line sets.
type harness struct {
	seed    int64
	seconds int
	trace   bool
	// workDir holds everything the run writes besides its reports:
	// the disk store, the rjserve binary and log. Removed on exit.
	workDir string
	outDir  string
	rjserve string
	log     io.Writer

	mu    sync.Mutex
	hooks map[int]func() // guarded by: mu
	next  int            // guarded by: mu
}

// onExit registers fn to run when the process ends on any path the
// harness controls (normal return, failure, SIGINT/SIGTERM, watchdog)
// and returns a function that withdraws it.
func (h *harness) onExit(fn func()) (undo func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.next
	h.next++
	h.hooks[id] = fn
	return func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		delete(h.hooks, id)
	}
}

// runExitHooks runs every registered hook once, newest first.
func (h *harness) runExitHooks() {
	for {
		h.mu.Lock()
		id := -1
		for k := range h.hooks {
			if k > id {
				id = k
			}
		}
		fn := h.hooks[id]
		delete(h.hooks, id)
		h.mu.Unlock()
		if id < 0 {
			return
		}
		fn()
	}
}

func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.log, format+"\n", args...)
}

// roundStats is what one replay of the op list measured.
type roundStats struct {
	ops, reads, writes, failed int
	// busy is the sum of the ops' wall-clock durations: the time the
	// closed-loop client spent waiting for answers.
	busy time.Duration
	// lat is each op's wall-clock in ms, first each stream op's time to
	// its first row (0 for other ops), both indexed like the op list.
	lat, first []float64
	// cost sums the simulated cost the program reported for reads.
	cost      sim.Snapshot
	userBytes uint64
	cpu       time.Duration
	// yard holds the round's yardstick samples in ns (yardstick.go).
	yard []float64
}

// speed is how fast the machine ran during the round relative to
// nominal.
func (st *roundStats) speed() float64 { return speedOf(st.yard) }

// replay runs ops once against the fixture, one op at a time (closed
// loop, one client). With a checker every read is compared with the
// oracle; the first few failures of a replay are logged in full.
func (h *harness) replay(f *fixture, ops []op, c *checker, hook func(i int, o *op, res *opResult, d time.Duration)) roundStats {
	var st roundStats
	cpu0 := f.cpu()
	for i := range ops {
		o := &ops[i]
		if i%yardEvery == 0 {
			st.yard = append(st.yard, yardstick())
		}
		t0 := time.Now()
		res := f.tgt.run(o)
		d := time.Since(t0)
		st.ops++
		st.busy += d
		st.lat = append(st.lat, ms(d))
		st.first = append(st.first, ms(res.first))
		err := verify(o, &res)
		if o.isRead() {
			st.reads++
			st.cost = st.cost.Add(res.cost)
			if err == nil && c != nil {
				err = c.check(o, &res)
			}
		} else {
			st.writes++
			st.userBytes += o.userBytes()
			if err == nil && c != nil {
				err = c.wrote(o)
			}
		}
		if err != nil {
			st.failed++
			if st.failed <= 5 {
				h.logf("  FAILED op %d: %v", i, err)
			}
		}
		if hook != nil {
			hook(i, o, &res, d)
		}
	}
	st.cpu = f.cpu() - cpu0
	for _, y := range st.yard {
		st.cpu -= time.Duration(y) // the yardstick is single-threaded CPU work
	}
	return st
}

// sweepBatches deletes the tuples the replay's BatchInsert ops added.
// BatchInsert takes new keys only, so without the sweep either the keys
// could not repeat or the data would grow round over round; with it
// every round starts from the same live data. The sweep is harness
// housekeeping and is not timed.
func (h *harness) sweepBatches(f *fixture, ops []op) error {
	for i := range ops {
		if ops[i].Kind != opBatch {
			continue
		}
		for _, t := range ops[i].Batch {
			if res := f.tgt.run(&op{Kind: opDelete, Rel: ops[i].Rel, Key: t.RowKey}); res.err != nil {
				return fmt.Errorf("sweep %s: %w", t.RowKey, res.err)
			}
		}
	}
	return nil
}

// cpu is the CPU time of every process of the deployment.
func (f *fixture) cpu() time.Duration {
	cpu := selfCPU()
	if f.serve != nil {
		child, _ := f.serve.childUsage()
		cpu += child
	}
	return cpu
}

// peakRSS is the peak resident set of every process of the deployment.
func (f *fixture) peakRSS() uint64 {
	_, rss := procUsage(os.Getpid())
	if f.serve != nil {
		_, child := f.serve.childUsage()
		rss += child
	}
	return rss
}

// counters is one reading of everything the layers already count.
// Every field is cumulative; the harness takes deltas around each
// timed round, so sweeps and forced GCs between rounds stay out.
type counters struct {
	allocBytes, allocs, gcCycles uint64
	gcPause                      time.Duration
	rowHits, rowMisses           uint64
	blkHits, blkMisses           uint64
	compaction                   uint64
	sim                          sim.Snapshot // store-wide, summed over the fixture's stores
	fs                           fsCounts
	respBytes, non2xx            uint64
}

func (f *fixture) counters() counters {
	var c counters
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.allocBytes, c.allocs, c.gcCycles = m.TotalAlloc, m.Mallocs, uint64(m.NumGC)
	c.gcPause = time.Duration(m.PauseTotalNs)
	for _, db := range f.dbs {
		cl := db.Cluster()
		h, m := cl.RowCacheStats()
		c.rowHits, c.rowMisses = c.rowHits+h, c.rowMisses+m
		h, m = cl.BlockCacheStats()
		c.blkHits, c.blkMisses = c.blkHits+h, c.blkMisses+m
		c.compaction += cl.CompactionBytes()
		c.sim = c.sim.Add(db.Metrics().Snapshot())
	}
	if f.fs != nil {
		c.fs = f.fs.counts()
	}
	if f.serve != nil {
		c.respBytes, c.non2xx = f.serve.http.respBytes, f.serve.http.non2xx
	}
	return c
}

// plus returns a + (now - then), accumulating one round's delta.
func (a counters) plus(now, then counters) counters {
	a.allocBytes += now.allocBytes - then.allocBytes
	a.allocs += now.allocs - then.allocs
	a.gcCycles += now.gcCycles - then.gcCycles
	a.gcPause += now.gcPause - then.gcPause
	a.rowHits += now.rowHits - then.rowHits
	a.rowMisses += now.rowMisses - then.rowMisses
	a.blkHits += now.blkHits - then.blkHits
	a.blkMisses += now.blkMisses - then.blkMisses
	a.compaction += now.compaction - then.compaction
	a.sim = a.sim.Add(now.sim.Sub(then.sim))
	a.fs = a.fs.add(now.fs.sub(then.fs))
	a.respBytes += now.respBytes - then.respBytes
	a.non2xx += now.non2xx - then.non2xx
	return a
}

// gauges are the store sizes read once after the timed rounds.
type gauges struct {
	// walBytes is the live write-ahead log; diskBytes the files under
	// the store directory; logicalBytes what the store reports holding
	// (uncompressed cells, all versions not yet compacted away).
	walBytes, diskBytes, logicalBytes uint64
}

func (f *fixture) gauges() gauges {
	var g gauges
	for _, db := range f.dbs {
		cl := db.Cluster()
		for _, name := range cl.TableNames() {
			sz, _ := cl.TableDiskSize(name)
			g.logicalBytes += sz
			regions, _ := cl.TableRegions(name)
			for _, r := range regions {
				g.walBytes += r.WALSize()
			}
		}
	}
	if f.dir != "" {
		_ = filepath.Walk(f.dir, func(_ string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() {
				g.diskBytes += uint64(info.Size())
			}
			return nil
		})
	}
	return g
}

// runWorkload measures one workload and returns its report.
func (h *harness) runWorkload(w *workload) (*report, error) {
	n := w.roundOps * h.seconds / refSeconds
	if n < 40 {
		n = 40
	}
	ops := genOps(rand.New(rand.NewSource(h.seed)), n, w.spec, w.base())
	rep := newReport(w, h)
	h.logf("== %s: %d ops per round (seed %d), %d set-ups, 1 check round, %d timed rounds, GOMAXPROCS %d",
		w.name, len(ops), h.seed, setups, rounds, runtime.GOMAXPROCS(0))

	// Set-ups: each is generate + load + build indexes + one untimed
	// warm-up replay. The first store also hosts the check round and is
	// then discarded, so the kept (last) store enters the timed rounds
	// in exactly the state a full replay leaves behind.
	var f *fixture
	var setupS []float64
	for s := 0; s < setups; s++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", s, err)
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if f, err = w.build(h); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", s+1, err)
		}
		built := time.Since(t0)
		warm := h.replay(f, ops, nil, nil)
		if err := h.sweepBatches(f, ops); err != nil {
			_ = f.close()
			return nil, err
		}
		// The build has no op loop to interleave yardstick calls with;
		// the warm-up replay that follows it at once has, and its speed
		// stands for the whole set-up.
		setupS = append(setupS, (built+warm.busy).Seconds()*warm.speed())
		rep.count(warm)
		if s == 0 {
			st, err := h.checkRound(f, ops)
			if err != nil {
				_ = f.close()
				return nil, err
			}
			rep.count(st)
			h.logf("  check round: %d ops, %d reads compared with the oracle, %d failed", st.ops, st.reads, st.failed)
		}
	}
	defer func() { _ = f.close() }()
	h.logf("  set-up: %.3f s median of %v", median(setupS), setupS)

	var timed []roundStats
	var total counters
	var perRound []counters
	for r := 0; r < rounds; r++ {
		runtime.GC()
		c0 := f.counters()
		st := h.replay(f, ops, nil, nil)
		c1 := f.counters()
		perRound = append(perRound, counters{}.plus(c1, c0))
		total = total.plus(c1, c0)
		if err := h.sweepBatches(f, ops); err != nil {
			return nil, err
		}
		timed = append(timed, st)
		rep.count(st)
	}
	peak := f.peakRSS()
	sizes := f.gauges()

	if f.newOracle == nil {
		failed, err := h.finalCheck(f, w)
		if err != nil {
			return nil, err
		}
		rep.Attempted += failed.ops
		rep.Failed += failed.failed
	}

	rep.endToEnd(ops, setupS, timed, peak)
	rep.timedLayers(f, ops, timed, total, perRound, sizes)
	if h.trace {
		if err := h.traceWorkload(f, w, ops, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkRound replays the op list's prefix with every read compared
// against the oracle on the same state.
func (h *harness) checkRound(f *fixture, ops []op) (roundStats, error) {
	oracle, separate, err := f.oracle()
	if err != nil {
		return roundStats{}, fmt.Errorf("oracle: %w", err)
	}
	if separate {
		defer oracle.db.Close()
		// Bring the oracle to the state the target's warm-up replay
		// left: the same writes, applied once.
		for i := range ops {
			if !ops[i].isRead() {
				if res := oracle.run(&ops[i]); res.err != nil {
					return roundStats{}, fmt.Errorf("oracle warm-up: %w", res.err)
				}
			}
		}
	}
	prefix := ops
	if len(prefix) > checkOps {
		prefix = prefix[:checkOps]
	}
	st := h.replay(f, prefix, newChecker(oracle, separate, f.relsOf, ops), nil)
	return st, h.sweepBatches(f, prefix)
}

// finalCheck re-runs the oracle after the last round: every query on
// every executor of the mix at the deepest k, against the naive join
// of the final state. It catches an index that went stale under the
// rounds' writes.
func (h *harness) finalCheck(f *fixture, w *workload) (roundStats, error) {
	oracle := f.tgt.(*dbTarget)
	var st roundStats
	for _, rs := range w.spec.reads {
		if rs.kind != opTopK {
			continue
		}
		k := rs.ks[len(rs.ks)-1]
		for q := 0; q < w.spec.queries; q++ {
			want, err := oracle.oracleScores(q, k)
			if err != nil {
				return st, fmt.Errorf("final oracle: %w", err)
			}
			for _, algo := range rs.algos {
				o := op{Kind: opTopK, Query: q, Algo: string(algo), K: k}
				res := f.tgt.run(&o)
				st.ops++
				err := verify(&o, &res)
				if err == nil {
					err = compareOracle(res.rows, want)
				}
				if err != nil {
					st.failed++
					h.logf("  FAILED final check, query %d %s k=%d: %v", q, algo, k, err)
				}
			}
		}
	}
	h.logf("  final check: %d reads compared with the oracle, %d failed", st.ops, st.failed)
	return st, nil
}

// oracle returns the check round's reference store: the target itself
// when it is an in-process store, else a store of its own that the
// harness mirrors writes into.
func (f *fixture) oracle() (t *dbTarget, separate bool, err error) {
	if f.newOracle == nil {
		return f.tgt.(*dbTarget), false, nil
	}
	t, err = f.newOracle()
	return t, true, err
}
