package rankjoin

import (
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/sim"
)

// writeTarget is one deployment the transcript drives: a DB, or a
// loopback Distributed whose in-process nodes are inspected directly.
type writeTarget struct {
	label  string
	rel    func(name string) *RelationHandle
	local  func(name string) []*RelationHandle // every handle holding the relation's data
	stores func() []string                     // store names in dump order
	store  func(name string) *kvstore.Cluster
	cost   func() sim.Snapshot
}

// writeSteps is the transcript's fixed sequence. Every kind of
// maintained write appears: an insert of a new key and of an existing
// one (an upsert), updates that keep the join value, move it, change
// nothing and miss, the blind and the keyed delete, a keyed delete of
// an absent row, a batch insert and the offline write-back pass.
var writeSteps = []struct {
	name string
	run  func(w writeTarget) error
}{
	{"insert new key", func(w writeTarget) error { return w.rel("left").Insert("l90", "j1", 0.97) }},
	{"insert existing key", func(w writeTarget) error { return w.rel("left").Insert("l03", "j2", 0.41) }},
	{"update same join value", func(w writeTarget) error { return w.rel("right").Update("r02", "j2", 0.88) }},
	{"update new join value", func(w writeTarget) error { return w.rel("right").Update("r02", "j4", 0.88) }},
	{"update unchanged coordinates", func(w writeTarget) error { return w.rel("right").Update("r02", "j4", 0.88) }},
	{"update missing key", func(w writeTarget) error { return w.rel("right").Update("r99", "j1", 0.5) }},
	{"insert without join value", func(w writeTarget) error { return w.rel("left").Insert("l91", "", 0.5) }},
	{"blind delete", func(w writeTarget) error { return w.rel("left").Delete("l05", "j0", 0.61) }},
	{"delete key present", func(w writeTarget) error { return w.rel("left").DeleteKey("l90") }},
	{"delete key absent", func(w writeTarget) error { return w.rel("left").DeleteKey("l99") }},
	{"batch insert", func(w writeTarget) error {
		return w.rel("right").BatchInsert([]Tuple{
			{RowKey: "r90", JoinValue: "j1", Score: 0.99},
			{RowKey: "r91", JoinValue: "j3", Score: 0.15},
			{RowKey: "r92", JoinValue: "j1", Score: 0.64},
		})
	}},
	{"write back", func(w writeTarget) error {
		for _, name := range []string{"left", "right"} {
			for _, h := range w.local(name) {
				if _, err := h.WriteBackBFHM(); err != nil {
					return err
				}
			}
		}
		return nil
	}},
}

// writeTuples is the fixture both relations are loaded from: eight
// tuples each over four join values, scores spread across the BFHM and
// DRJN buckets.
func writeTuples(prefix string) []Tuple {
	joins := []string{"j0", "j1", "j2", "j3", "j2", "j0", "j1", "j3"}
	scores := []float64{0.12, 0.93, 0.55, 0.78, 0.30, 0.61, 0.47, 0.86}
	out := make([]Tuple, len(joins))
	for i := range joins {
		out[i] = Tuple{RowKey: fmt.Sprintf("%s%02d", prefix, i), JoinValue: joins[i], Score: scores[i]}
	}
	return out
}

// liveCellLines renders every live cell of every table of c, one line
// each: table, row, family, qualifier, timestamp and a hash of the
// value. The snapshot reads through a view with its own collector, so
// the store's metrics do not move.
func liveCellLines(t *testing.T, c *kvstore.Cluster) []string {
	t.Helper()
	view := c.WithMetrics(new(sim.Metrics))
	var lines []string
	for _, table := range c.TableNames() {
		cells, err := view.TableCells(table)
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range cells {
			h := fnv.New64a()
			h.Write(cell.Value)
			lines = append(lines, fmt.Sprintf("%s %q %s %q ts=%d v=%016x",
				table, cell.Row, cell.Family, cell.Qualifier, cell.Timestamp, h.Sum64()))
		}
	}
	slices.Sort(lines)
	return lines
}

// transcribeWrites runs writeSteps against w and appends, per step, the
// error text, the billed delta and every live cell that appeared or
// went away in each store.
func transcribeWrites(t *testing.T, b *strings.Builder, w writeTarget) {
	t.Helper()
	before := map[string][]string{}
	for _, s := range w.stores() {
		before[s] = liveCellLines(t, w.store(s))
		h := fnv.New64a()
		for _, l := range before[s] {
			h.Write([]byte(l + "\n"))
		}
		fmt.Fprintf(b, "%s setup: store %s holds %d live cells, hash %016x\n", w.label, s, len(before[s]), h.Sum64())
	}
	for _, step := range writeSteps {
		fmt.Fprintf(b, "\n== %s: %s\n", w.label, step.name)
		start := w.cost()
		err := step.run(w)
		d := w.cost().Sub(start)
		fmt.Fprintf(b, "err: %v\n", err)
		fmt.Fprintf(b, "cost: rpcs=%d kv_writes=%d net_bytes=%d read_units=%d sim_ns=%d\n",
			d.RPCCalls, d.KVWrites, d.NetworkBytes, d.KVReads, d.SimTime.Nanoseconds())
		for _, s := range w.stores() {
			after := liveCellLines(t, w.store(s))
			for _, l := range before[s] {
				if _, found := slices.BinarySearch(after, l); !found {
					fmt.Fprintf(b, "%s - %s\n", s, l)
				}
			}
			for _, l := range after {
				if _, found := slices.BinarySearch(before[s], l); !found {
					fmt.Fprintf(b, "%s + %s\n", s, l)
				}
			}
			before[s] = after
		}
	}
}

// TestWriteTranscriptGolden pins what every maintained write does to
// the store: for each step of writeSteps, on a DB and on a two-node
// loopback Distributed (so NodeService.Apply is on the path), the error
// text, the RPCs, KV writes, network bytes, read units and simulated
// time it billed, and every live cell it added or retired in every
// table of every store, with timestamps and value hashes. A refactor of
// the write path must leave the transcript byte-identical.
//
// Disk mode (KVSTORE_DISK=1) keeps its own golden: a keyed read on disk
// bills the seeks of the SSTable blocks it actually fetched, none when
// the row sits in the memtable, where memory mode bills one flat seek.
// So the read-before-write of an upsert or keyed delete bills a
// different simulated time in the two modes, though cells, timestamps
// and counts agree. To regenerate, delete the file and run the test
// twice (the first run writes it and fails), then review the diff.
func TestWriteTranscriptGolden(t *testing.T) {
	golden := "testdata/writes.golden"
	if os.Getenv("KVSTORE_DISK") == "1" {
		golden = "testdata/writes_disk.golden"
	}
	left, right := writeTuples("l"), writeTuples("r")
	var b strings.Builder

	db := mustOpen(t, Config{})
	t.Cleanup(func() { db.Close() })
	for _, rel := range []struct {
		name string
		data []Tuple
	}{{"left", left}, {"right", right}} {
		h, err := db.DefineRelation(rel.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.BulkLoad(rel.data); err != nil {
			t.Fatal(err)
		}
	}
	q, err := db.NewQuery("left", "right", Sum, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureIndexes(q, indexedAlgos...); err != nil {
		t.Fatal(err)
	}
	transcribeWrites(t, &b, writeTarget{
		label:  "db",
		rel:    db.Relation,
		local:  func(name string) []*RelationHandle { return []*RelationHandle{db.Relation(name)} },
		stores: func() []string { return []string{"db"} },
		store:  func(string) *kvstore.Cluster { return db.Cluster() },
		cost:   db.AggregateCost,
	})

	d := openLoopbackCluster(t, 2)
	loadCluster(t, d, left, right)
	b.WriteString("\n")
	transcribeWrites(t, &b, writeTarget{
		label: "dist",
		rel:   d.Relation,
		local: func(name string) []*RelationHandle {
			var hs []*RelationHandle
			for _, n := range d.Nodes() {
				hs = append(hs, d.NodeDB(n).Relation(name))
			}
			return hs
		},
		stores: d.Nodes,
		store:  func(n string) *kvstore.Cluster { return d.NodeDB(n).Cluster() },
		cost:   d.AggregateCost,
	})

	checkGolden(t, golden, b.String())
}
