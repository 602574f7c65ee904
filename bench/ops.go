package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"

	rankjoin "repro"
)

// opKind is what one operation of a workload does.
type opKind string

const (
	// Read kinds: topk is TopK(q.WithK(k)); stream opens a stream,
	// pulls k rows and closes it early; page is TopK and then Pages
	// resumes of the returned page token.
	opTopK   opKind = "topk"
	opStream opKind = "stream"
	opPage   opKind = "page"
	// Write kinds, one maintained mutation each (batch: one
	// BatchInsert of fresh tuples).
	opInsert opKind = "insert"
	opUpdate opKind = "update"
	opDelete opKind = "delete"
	opBatch  opKind = "batch"
)

// op is one operation of a workload's op list. The list is made from
// the seed alone and replayed unchanged in every round, so the program
// under test only ever sees generated inputs.
type op struct {
	Kind  opKind `json:"kind"`
	Query int    `json:"query,omitempty"` // index into the fixture's query table
	Algo  string `json:"algo,omitempty"`
	K     int    `json:"k,omitempty"`
	Pages int    `json:"pages,omitempty"` // resumes after the first page (opPage)

	Rel   string           `json:"rel,omitempty"`
	Key   string           `json:"key,omitempty"`
	Join  string           `json:"join,omitempty"`
	Score float64          `json:"score,omitempty"`
	Batch []rankjoin.Tuple `json:"batch,omitempty"`
}

// class names the kind of request a read is for latency statistics:
// one query on one algorithm.
func (o *op) class() string { return strconv.Itoa(o.Query) + "/" + o.Algo }

func (o *op) isRead() bool { return o.Kind == opTopK || o.Kind == opStream || o.Kind == opPage }

// wantRows is how many rows a read must return unless the join is
// exhausted; the workloads' data is sized so that it never is.
func (o *op) wantRows() int { return o.K * (1 + o.Pages) }

// userBytes is the payload a write hands the store: the bytes
// write-amplification figures are relative to.
func (o *op) userBytes() uint64 {
	if o.Kind == opBatch {
		var n uint64
		for _, t := range o.Batch {
			n += uint64(len(t.RowKey)+len(t.JoinValue)) + 8
		}
		return n
	}
	return uint64(len(o.Key)+len(o.Join)) + 8
}

// readSpec is one read kind of a mix with the algorithms and result
// sizes it is spread over uniformly.
type readSpec struct {
	kind   opKind
	weight int
	algos  []rankjoin.Algorithm
	ks     []int
	pages  int
}

// mixSpec describes a workload's traffic mix.
type mixSpec struct {
	// writePerMille is the share of writes, in thousandths of all ops.
	writePerMille int
	// queries is the size of the fixture's query table; reads spread
	// over it uniformly.
	queries int
	reads   []readSpec
	// insert/update/delete/batch weights among writes.
	writes [4]int
	// rels are the relations written, each getting an equal share of
	// every write kind; newKey makes the i-th fresh row key of one.
	rels   []string
	newKey func(rel string, i int) string
	// batch is the tuple count of one BatchInsert.
	batch int
}

// deal returns n category indices whose counts follow weights exactly
// (largest remainder, ties to the lower index), in seeded random order.
// The counts do not depend on the seed, so a seed changes order, keys
// and values but not how much of each kind of work a round holds.
func deal(rng *rand.Rand, n int, weights []int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	out := make([]int, 0, n)
	if total == 0 {
		return out
	}
	type rem struct{ cat, r int }
	var rems []rem
	for c, w := range weights {
		cnt := n * w / total
		for i := 0; i < cnt; i++ {
			out = append(out, c)
		}
		rems = append(rems, rem{c, n * w % total})
	}
	for len(out) < n {
		best := 0
		for i := range rems {
			if rems[i].r > rems[best].r {
				best = i
			}
		}
		out = append(out, rems[best].cat)
		rems[best].r = -1
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Written values. A seed must change the traffic without changing how
// much work the reads do, or runs with different seeds could not be
// compared. Rank-join reads only ever touch the top of the score order,
// so written tuples draw their scores from the cold band [0, coldBand),
// which no top-k of the workloads' data reaches: they cost the write
// path its full maintenance work and leave the reads' answers and costs
// alone. So that writes are still seen by reads (and a stale index by
// the oracle), the first insert and the first update of every relation
// in a list are landmarks whose values do not depend on the seed: the
// update demotes the relation's best loaded tuple to half its score and
// the insert writes a fresh key (landmarkKey) with that tuple's join
// value and old score. Together they swap the relation's top tuple for
// a new one, so the top of the score order keeps its shape (an outlier
// at the top would make every HRJN threshold looser and every read
// dearer), and a stale index shows as a phantom or a missing top row.
// Only where in the list the landmarks fall depends on the seed.
const (
	coldBand    = 0.5
	landmarkKey = 999_999
)

// genOps builds the op list of n operations for a mix. base holds the
// relations' loaded tuples: updates target them (they are never
// deleted, so an update cannot miss), and fresh tuples borrow their
// join values so that written rows join.
//
// Keys are assigned while walking the shuffled list: inserts cycle a
// ring of fresh keys about half as long as the insert count (so a ring
// key is upserted about twice per replay), and a delete removes the
// most recently inserted ring key that is still present. The state after a full replay depends on the list alone
// (last write per key wins), so every replay after the first starts
// from and returns to the same state.
func genOps(rng *rand.Rand, n int, spec mixSpec, base map[string][]rankjoin.Tuple) []op {
	nWrites := n * spec.writePerMille / 1000
	if spec.writePerMille > 0 && nWrites < 4 {
		nWrites = 4
	}
	nReads := n - nWrites

	// Reads: one cell per (read kind, query, algo, k); a kind's weight
	// is split evenly over its cells. deal's counts depend on n alone,
	// so every seed gets the same multiset of reads.
	type cell struct {
		spec, combo int
	}
	var cells []cell
	var weights []int
	scale := 1
	for _, r := range spec.reads {
		scale *= spec.queries * len(r.algos) * len(r.ks)
	}
	for si, r := range spec.reads {
		combos := spec.queries * len(r.algos) * len(r.ks)
		for c := 0; c < combos; c++ {
			cells = append(cells, cell{si, c})
			weights = append(weights, r.weight*scale/combos)
		}
	}
	ops := make([]op, 0, n)
	for _, ci := range deal(rng, nReads, weights) {
		r, c := spec.reads[cells[ci].spec], cells[ci].combo
		ops = append(ops, op{
			Kind:  r.kind,
			Query: c % spec.queries,
			Algo:  string(r.algos[c/spec.queries%len(r.algos)]),
			K:     r.ks[c/spec.queries/len(r.algos)],
			Pages: r.pages,
		})
	}
	// Writes: one cell per (write kind, relation), for the same reason.
	writeKinds := []opKind{opInsert, opUpdate, opDelete, opBatch}
	var writeWeights []int
	for _, w := range spec.writes {
		for range spec.rels {
			writeWeights = append(writeWeights, w)
		}
	}
	for _, ci := range deal(rng, nWrites, writeWeights) {
		ops = append(ops, op{Kind: writeKinds[ci/len(spec.rels)], Rel: spec.rels[ci%len(spec.rels)]})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	type ring struct {
		size    int
		next    int // insert cursor
		present []bool
		best    rankjoin.Tuple   // the relation's top loaded tuple
		cold    []rankjoin.Tuple // update targets
		upNext  int
		// landmark insert and update already placed
		hotInsert, hotUpdate bool
	}
	score := func() float64 { return math.Round(rng.Float64()*coldBand*1e6) / 1e6 }
	inserts, updates := map[string]int{}, map[string]int{}
	for i := range ops {
		switch ops[i].Kind {
		case opInsert:
			inserts[ops[i].Rel]++
		case opUpdate:
			updates[ops[i].Rel]++
		}
	}
	rings := map[string]*ring{}
	for _, rel := range spec.rels {
		r := &ring{size: inserts[rel]/2 + 1}
		rings[rel] = r
		r.present = make([]bool, r.size)
		var cold []rankjoin.Tuple
		for _, t := range base[rel] {
			if t.Score > r.best.Score || (t.Score == r.best.Score && t.RowKey < r.best.RowKey) {
				r.best = t
			}
			if t.Score < coldBand {
				cold = append(cold, t)
			}
		}
		for i := 0; i < updates[rel]/2+1; i++ {
			r.cold = append(r.cold, cold[rng.Intn(len(cold))])
		}
	}
	nb := 0
	for i := range ops {
		o := &ops[i]
		if o.isRead() {
			continue
		}
		r := rings[o.Rel]
		tuples := base[o.Rel]
		switch o.Kind {
		case opInsert:
			if !r.hotInsert {
				r.hotInsert = true
				o.Key, o.Join, o.Score = spec.newKey(o.Rel, landmarkKey), r.best.JoinValue, r.best.Score
				break
			}
			idx := r.next % r.size
			r.next++
			r.present[idx] = true
			o.Key = spec.newKey(o.Rel, idx)
			o.Join, o.Score = tuples[rng.Intn(len(tuples))].JoinValue, score()
		case opUpdate:
			if !r.hotUpdate {
				r.hotUpdate = true
				o.Key, o.Join, o.Score = r.best.RowKey, r.best.JoinValue, r.best.Score/2
				break
			}
			t := r.cold[r.upNext%len(r.cold)]
			r.upNext++
			o.Key, o.Join, o.Score = t.RowKey, t.JoinValue, score()
		case opDelete:
			// Newest ring key still present; before the first insert
			// there is none and the delete is a no-op on an absent row.
			idx := 0
			for back := 1; back <= r.size; back++ {
				c := ((r.next-back)%r.size + r.size) % r.size
				if r.present[c] {
					idx = c
					break
				}
			}
			r.present[idx] = false
			o.Key = spec.newKey(o.Rel, idx)
		case opBatch:
			// Batch keys sit above the insert ring and are removed by
			// the harness after every replay, so they are always new.
			for j := 0; j < spec.batch; j++ {
				o.Batch = append(o.Batch, rankjoin.Tuple{
					RowKey:    spec.newKey(o.Rel, 1_000_000+nb*spec.batch+j),
					JoinValue: tuples[rng.Intn(len(tuples))].JoinValue,
					Score:     score(),
				})
			}
			nb++
		}
	}
	return ops
}

// encodeOps renders an op list canonically (the determinism test
// compares two encodings byte for byte).
func encodeOps(ops []op) []byte {
	b, err := json.Marshal(ops)
	if err != nil {
		panic(err) // ops hold only strings, ints and finite floats
	}
	return b
}
