package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/kvstore"
)

// This file defines the acyclic join-tree query model. A JoinTree is
// the one query representation: relations are leaves, join predicates
// are tree edges (equality or numeric band), and one monotonic n-ary
// aggregate ranks complete assignments over all leaves. The paper's
// binary equi-join is the two-leaf tree (the shape the two-way-only
// executors accept, see isBinary) and its n-way generalization
// (Section 3) is the all-equi tree.
//
// It also holds what the two consumers that enumerate a tree in memory
// share — the rank-join operator (anyKOp in anyk.go) and the naive
// reference at the end of this file: walk orders, the per-leaf index
// (leafIndex: an arrival arena plus ordinal-only equi chains and a
// chunked sorted band list) and the assignment enumerator over those
// indexes (treeJoin).

// PredKind names a join-edge predicate family.
type PredKind string

const (
	// PredEqui joins two leaves whose join values are equal strings.
	PredEqui PredKind = "equi"
	// PredBand joins two leaves whose join values both parse as
	// numbers within Band of each other (|a-b| <= Band). Unparseable
	// values never band-match; Band 0 is exact numeric equality.
	PredBand PredKind = "band"
)

// TreeEdge is one join predicate between the leaves at indexes A and B.
type TreeEdge struct {
	A, B int
	Kind PredKind
	// Band is the half-width of a PredBand predicate; ignored for equi.
	Band float64
}

// Match evaluates the edge predicate over two join values.
func (e *TreeEdge) Match(va, vb string) bool {
	if e.Kind != PredBand {
		return va == vb
	}
	fa, errA := strconv.ParseFloat(va, 64)
	fb, errB := strconv.ParseFloat(vb, 64)
	if errA != nil || errB != nil {
		return false
	}
	d := fa - fb
	if d < 0 {
		d = -d
	}
	return d <= e.Band
}

// ShapeError reports a join-tree whose shape is malformed — cyclic,
// disconnected, self-looping, or referencing leaves that don't exist.
// Serving layers map it to a client error (HTTP 400) since retrying
// cannot help.
type ShapeError struct {
	Msg string
}

func (e *ShapeError) Error() string { return "core: bad join tree: " + e.Msg }

// NewShapeError builds a ShapeError for layers above core that
// validate tree shapes before a JoinTree exists (e.g. JSON decoding).
func NewShapeError(msg string) error { return &ShapeError{Msg: msg} }

func shapeErrf(format string, args ...any) error {
	return &ShapeError{Msg: fmt.Sprintf(format, args...)}
}

// JoinTree is a top-k rank join over an acyclic tree of relations:
// len(Relations) leaves joined pairwise by exactly len(Relations)-1
// edges forming a connected acyclic graph, ranked by the monotonic
// aggregate Score over every leaf's score, keeping K results.
type JoinTree struct {
	Relations []Relation
	Edges     []TreeEdge
	Score     ScoreFunc
	K         int
}

// Validate checks the tree is well-formed, returning a *ShapeError for
// structural problems (wrong edge count, out-of-range or duplicate
// edges, disconnection) and plain errors for parameter problems.
func (t *JoinTree) Validate() error {
	if t.K < 1 {
		return fmt.Errorf("core: k = %d, want >= 1", t.K)
	}
	if t.Score.Fn == nil {
		return fmt.Errorf("core: join tree has no score function")
	}
	n := len(t.Relations)
	if n < 2 {
		return shapeErrf("%d relations, want >= 2", n)
	}
	for i := range t.Relations {
		r := &t.Relations[i]
		if r.Name == "" || r.Table == "" || r.Family == "" || r.JoinQual == "" || r.ScoreQual == "" {
			return fmt.Errorf("core: relation %q underspecified", r.Name)
		}
	}
	if len(t.Edges) != n-1 {
		return shapeErrf("%d edges for %d relations; an acyclic connected tree needs exactly %d",
			len(t.Edges), n, n-1)
	}
	seen := map[[2]int]bool{}
	uf := newUnionFind(n)
	for i := range t.Edges {
		e := &t.Edges[i]
		if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n {
			return shapeErrf("edge %d joins leaves (%d, %d), want both in [0, %d)", i, e.A, e.B, n)
		}
		if e.A == e.B {
			return shapeErrf("edge %d is a self-loop on leaf %d", i, e.A)
		}
		switch e.Kind {
		case PredEqui, "":
		case PredBand:
			if e.Band < 0 || math.IsNaN(e.Band) || math.IsInf(e.Band, 0) {
				return shapeErrf("edge %d has band width %v, want a finite value >= 0", i, e.Band)
			}
		default:
			return shapeErrf("edge %d has unknown predicate kind %q (want %s or %s)", i, e.Kind, PredEqui, PredBand)
		}
		key := [2]int{e.A, e.B}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if seen[key] {
			return shapeErrf("duplicate edge between leaves %d and %d", key[0], key[1])
		}
		seen[key] = true
		uf.union(e.A, e.B)
	}
	for i := 1; i < n; i++ {
		if uf.find(i) != uf.find(0) {
			return shapeErrf("leaf %d (%s) is disconnected from leaf 0 — the edge set forms a cycle elsewhere",
				i, t.Relations[i].Name)
		}
	}
	return nil
}

// AllEqui reports whether every edge is an equality predicate. Since a
// tuple carries a single join value, a connected all-equi tree forces
// one shared value across every leaf — semantically a star — so tree
// shape only matters once a band edge appears.
func (t *JoinTree) AllEqui() bool {
	for i := range t.Edges {
		if t.Edges[i].Kind == PredBand {
			return false
		}
	}
	return true
}

// ID returns the tree's deterministic identifier: its leaves and
// aggregate, as <leaf>_..._<aggregate>. All-equi trees take that alone
// (every connected all-equi edge set over the same leaves is
// semantically identical); trees with band edges append a canonical
// sorted edge list, so shapes that can return different results can
// never share a planner-cache or page-token entry.
func (t *JoinTree) ID() string {
	var b strings.Builder
	for i := range t.Relations {
		b.WriteString(t.Relations[i].Name)
		b.WriteByte('_')
	}
	b.WriteString(t.Score.Name)
	if t.AllEqui() {
		return b.String()
	}
	descs := make([]string, 0, len(t.Edges))
	for i := range t.Edges {
		e := &t.Edges[i]
		a, b := e.A, e.B
		if a > b {
			a, b = b, a
		}
		if e.Kind == PredBand {
			descs = append(descs, fmt.Sprintf("b%d-%d~%s", a, b, strconv.FormatFloat(e.Band, 'g', -1, 64)))
		} else {
			descs = append(descs, fmt.Sprintf("e%d-%d", a, b))
		}
	}
	sort.Strings(descs)
	return b.String() + "@" + strings.Join(descs, ".")
}

// ---- Tree walking ----

// walkStep assigns one leaf during result assembly: leaf is matched
// through edge against the join value already bound at from.
type walkStep struct {
	leaf int
	from int
	edge *TreeEdge
}

// walkOrder computes a breadth-first expansion order rooted at the
// given leaf. Because the graph is a tree, each later leaf attaches to
// the already-assigned prefix through exactly one edge.
func (t *JoinTree) walkOrder(root int) []walkStep {
	n := len(t.Relations)
	adj := make([][]int, n)
	for ei := range t.Edges {
		e := &t.Edges[ei]
		adj[e.A] = append(adj[e.A], ei)
		adj[e.B] = append(adj[e.B], ei)
	}
	steps := make([]walkStep, 0, n-1)
	used := make([]bool, n)
	used[root] = true
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, ei := range adj[u] {
			e := &t.Edges[ei]
			v := e.A + e.B - u
			if used[v] {
				continue
			}
			used[v] = true
			steps = append(steps, walkStep{leaf: v, from: u, edge: e})
			queue = append(queue, v)
		}
	}
	return steps
}

// ---- Leaf indexes ----

// leafIndex holds the tuples one leaf has made available, indexed for
// the predicates of its incident edges. Tuples live once, in arrival
// order, in an arena; a tuple's position there is its ordinal, and
// every other structure (here and in the consumers) refers to tuples by
// ordinal only, so nothing but the arena holds pointers. Adding a tuple
// costs O(1) for the equi chains and O(log n) plus a bounded shift for
// the band list, and parses its join value once (digit strings without
// strconv); a probe costs O(log n) plus its matches and allocates
// nothing. The arena pages, band chunks and head map come from pools
// and go back to them when the list cursor closes (release), so a
// steady stream of queries reuses them instead of allocating its own.
type leafIndex struct {
	hasEqui bool
	hasBand bool

	// The arena, in pages of tuplePage ordinals: regrowing flat slices
	// would clear and recopy memory over and over as a leaf fills.
	pages []*leafPage
	n     int32

	// Equi probes: the ordinals sharing a join value form a chain from
	// the latest arrival (head) back through leafPage.prev.
	head map[string]int32

	// Band probes: the matchable join values (leafPage.vals) sorted.
	band bandList
}

// tuplePage is the arena page size in ordinals (20 KB of Tuple headers
// and 6 KB of probe fields).
const tuplePage = 512

// leafPage holds what a leaf keeps per ordinal for tuplePage
// consecutive ordinals. The tuples come first, so the collector scans
// only them.
type leafPage struct {
	tuples [tuplePage]Tuple
	// vals is each tuple's join value parsed once at add, for band
	// probes: NaN for one that can never band-match.
	vals [tuplePage]float64
	// prev links an equi chain: the ordinal before this one with the
	// same join value, or -1.
	prev [tuplePage]int32
}

// tuple returns the tuple at ordinal ord.
func (li *leafIndex) tuple(ord int32) *Tuple {
	return &li.pages[ord/tuplePage].tuples[ord%tuplePage]
}

// newLeafIndex prepares the index structures leaf needs given the
// predicates that can probe it.
func newLeafIndex(t *JoinTree, leaf int) *leafIndex {
	li := &leafIndex{}
	for i := range t.Edges {
		e := &t.Edges[i]
		if e.A != leaf && e.B != leaf {
			continue
		}
		if e.Kind == PredBand {
			li.hasBand = true
		} else {
			li.hasEqui = true
		}
	}
	if li.hasEqui {
		li.head = headMaps.Get().(map[string]int32)
	}
	return li
}

// bandValue parses a join value for band predicates. NaN stands for
// every value no band predicate can match — unparseable, NaN, or
// infinite: |a-b| <= Band is false for each of them, as in
// TreeEdge.Match — so such tuples stay out of the sorted structure and
// such probes return nothing. Plain digit strings, the usual integer
// join value, skip strconv.ParseFloat (digitsValue).
func bandValue(s string) float64 {
	if v, ok := digitsValue(s); ok {
		return v
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsInf(v, 0) {
		return math.NaN()
	}
	return v
}

// digitsValue converts a string of 1 to 15 ASCII digits, and reports
// whether s was one. Such a value is below 10^15 < 2^53, so the float64
// conversion is exact and equals strconv.ParseFloat's result; any other
// string (a sign, '.', an exponent, 16 or more digits) reports false.
func digitsValue(s string) (float64, bool) {
	if len(s) == 0 || len(s) > 15 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		v = v*10 + uint64(d)
	}
	return float64(v), true
}

// The buffers a closed list cursor hands to the next query's leaves
// (leafIndex.release): arena pages, band chunks and equi head maps,
// each emptied before it is pooled, so a pooled buffer pins no tuple
// strings.
var (
	leafPages  = sync.Pool{New: func() any { return new(leafPage) }}
	bandChunks = sync.Pool{New: func() any { return new([bandChunkCap]bandEntry) }}
	headMaps   = sync.Pool{New: func() any { return map[string]int32{} }}
)

// maxPooledHead bounds the join values of a head map worth pooling:
// clearing a map keeps its buckets, so a larger one goes to the
// collector instead of pinning its peak size.
const maxPooledHead = 4096

// newBandEntries returns an empty band chunk of capacity bandChunkCap.
func newBandEntries() []bandEntry {
	return bandChunks.Get().(*[bandChunkCap]bandEntry)[:0]
}

// release hands li's arena pages (cleared of their tuples), band
// chunks and head map to the pools and empties li. Nothing may read li's
// tuples afterwards; results already materialised hold copies.
func (li *leafIndex) release() {
	for pi, p := range li.pages {
		clear(p.tuples[:min(int(li.n)-pi*tuplePage, tuplePage)])
		leafPages.Put(p)
	}
	for _, c := range li.band.chunks {
		bandChunks.Put((*[bandChunkCap]bandEntry)(c.es[:bandChunkCap]))
	}
	if li.head != nil && len(li.head) <= maxPooledHead {
		clear(li.head)
		headMaps.Put(li.head)
	}
	*li = leafIndex{}
}

// add indexes one tuple and returns its ordinal.
func (li *leafIndex) add(t Tuple) int32 {
	ord := li.n
	li.n++
	if ord%tuplePage == 0 {
		li.pages = append(li.pages, leafPages.Get().(*leafPage))
	}
	pg, at := li.pages[ord/tuplePage], ord%tuplePage
	pg.tuples[at] = t
	if li.hasEqui {
		p, ok := li.head[t.JoinValue]
		if !ok {
			p = -1
		}
		pg.prev[at] = p
		li.head[t.JoinValue] = ord
	}
	if li.hasBand {
		v := bandValue(t.JoinValue)
		pg.vals[at] = v
		if !math.IsNaN(v) {
			li.band.insert(v, ord)
		}
	}
	return ord
}

// candidates appends to buf the ordinals of this leaf's tuples that
// match edge e against the tuple at ordinal ord of the leaf at the
// edge's other endpoint, in no particular order (both consumers rank by
// JoinResult.less, a total order).
func (li *leafIndex) candidates(e *TreeEdge, from *leafIndex, ord int32, buf []int32) []int32 {
	if e.Kind != PredBand {
		return li.equiMatches(from.tuple(ord).JoinValue, buf)
	}
	return li.band.appendMatches(from.pages[ord/tuplePage].vals[ord%tuplePage], e.Band, buf)
}

func (li *leafIndex) equiMatches(v string, buf []int32) []int32 {
	p, ok := li.head[v]
	if !ok {
		return buf
	}
	for ; p >= 0; p = li.pages[p/tuplePage].prev[p%tuplePage] {
		buf = append(buf, p)
	}
	return buf
}

// bandChunkCap bounds how many entries one insert can shift.
const bandChunkCap = 256

// bandList is a sorted multiset of (join value, ordinal) pairs kept as
// a chunked list: a directory of fixed-capacity chunks in value order,
// which concatenated are the sorted list. An insert binary-searches the
// directory and the chunk and shifts at most bandChunkCap pointer-free
// entries; a full chunk splits in two, so nothing is ever recopied as
// the list grows.
type bandList struct {
	chunks []bandChunk
}

type bandEntry struct {
	v   float64
	ord int32
}

type bandChunk struct {
	min float64     // value of the first entry
	es  []bandEntry // sorted, cap bandChunkCap
}

// The band list's binary searches, one per level and bound: the
// directory by chunk min, a chunk by entry value, each for the first
// position >= v (AtLeast) or > v (Above). Every sequence they search is
// non-decreasing.

// chunkAtLeast returns the directory position of the first chunk whose
// min is >= v.
func (b *bandList) chunkAtLeast(v float64) int {
	lo, hi := 0, len(b.chunks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.chunks[m].min < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// chunkAbove returns the directory position of the first chunk whose
// min is > v.
func (b *bandList) chunkAbove(v float64) int {
	lo, hi := 0, len(b.chunks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.chunks[m].min <= v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// entryAtLeast returns the position in the sorted es of the first entry
// whose value is >= v.
func entryAtLeast(es []bandEntry, v float64) int {
	lo, hi := 0, len(es)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if es[m].v < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// entryAbove returns the position in the sorted es of the first entry
// whose value is > v.
func entryAbove(es []bandEntry, v float64) int {
	lo, hi := 0, len(es)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if es[m].v <= v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insert adds one entry; v must not be NaN.
func (b *bandList) insert(v float64, ord int32) {
	if len(b.chunks) == 0 {
		b.chunks = []bandChunk{{min: v, es: newBandEntries()}}
	}
	// The last chunk whose min is <= v, or the first when v precedes
	// every entry.
	ci := b.chunkAbove(v) - 1
	if ci < 0 {
		ci = 0
	}
	if len(b.chunks[ci].es) == bandChunkCap {
		ci = b.split(ci, v)
	}
	c := &b.chunks[ci]
	pos := entryAbove(c.es, v)
	c.es = c.es[:len(c.es)+1]
	copy(c.es[pos+1:], c.es[pos:])
	c.es[pos] = bandEntry{v: v, ord: ord}
	if pos == 0 {
		c.min = v
	}
}

// split moves the upper half of full chunk ci into a new chunk placed
// right after it, and returns which of the two v belongs in.
func (b *bandList) split(ci int, v float64) int {
	b.chunks = append(b.chunks, bandChunk{})
	copy(b.chunks[ci+2:], b.chunks[ci+1:])
	c := &b.chunks[ci]
	up := append(newBandEntries(), c.es[bandChunkCap/2:]...)
	c.es = c.es[:bandChunkCap/2]
	b.chunks[ci+1] = bandChunk{min: up[0].v, es: up}
	if v >= up[0].v {
		return ci + 1
	}
	return ci
}

// appendMatches appends the ordinals of the entries whose value a
// satisfies |a-fv| <= band, evaluated exactly as TreeEdge.Match does.
// fv-band and fv+band round differently from a-fv, so the sorted walk
// covers a window widened by more than that rounding and each entry in
// it takes the exact test.
func (b *bandList) appendMatches(fv, band float64, buf []int32) []int32 {
	if math.IsNaN(fv) {
		return buf
	}
	slack := (math.Abs(fv) + band) * 0x1p-50
	lo, hi := fv-band-slack, fv+band+slack
	// Entries >= lo start in the chunk before the first whose min is
	// >= lo, at the earliest.
	ci := b.chunkAtLeast(lo)
	if ci > 0 {
		ci--
	}
	for ; ci < len(b.chunks); ci++ {
		c := &b.chunks[ci]
		if c.min > hi {
			break
		}
		for _, e := range c.es[entryAtLeast(c.es, lo):] {
			if e.v > hi {
				break
			}
			d := e.v - fv
			if d < 0 {
				d = -d
			}
			if d <= band {
				buf = append(buf, e.ord)
			}
		}
	}
	return buf
}

// treeJoin enumerates join-tree assignments over per-leaf indexes. An
// assignment is a combo of ordinals, one per leaf; tuples are copied out
// of the arenas only for the results a consumer keeps.
type treeJoin struct {
	tree    *JoinTree
	leaves  []*leafIndex
	combo   []int32             // the assignment being extended
	emit    func(score float64) // receives each complete combo, in place
	scratch [][]int32           // candidate buffer per expansion depth
	scores  []float64
}

func newTreeJoin(t *JoinTree, emit func(score float64)) *treeJoin {
	n := len(t.Relations)
	j := &treeJoin{
		tree:    t,
		leaves:  make([]*leafIndex, n),
		combo:   make([]int32, n),
		emit:    emit,
		scratch: make([][]int32, n-1),
		scores:  make([]float64, n),
	}
	for i := range j.leaves {
		j.leaves[i] = newLeafIndex(t, i)
	}
	return j
}

// expand binds the leaves of steps[d:] in every way the edge predicates
// allow, given the leaves already bound in combo, and emits each
// completed assignment with its aggregate score.
func (j *treeJoin) expand(steps []walkStep, d int) {
	if d == len(steps) {
		for i, ord := range j.combo {
			j.scores[i] = j.leaves[i].tuple(ord).Score
		}
		j.emit(j.tree.Score.Fn(j.scores))
		return
	}
	s := steps[d]
	cands := j.leaves[s.leaf].candidates(s.edge, j.leaves[s.from], j.combo[s.from], j.scratch[d][:0])
	j.scratch[d] = cands // keep what the buffer grew to
	for _, ord := range cands {
		j.combo[s.leaf] = ord
		j.expand(steps, d+1)
	}
}

// result materialises the assignment combo: the first two leaves fill
// Left and Right, later leaves Rest.
func (j *treeJoin) result(combo []int32, score float64) JoinResult {
	r := JoinResult{Left: *j.leaves[0].tuple(combo[0]), Right: *j.leaves[1].tuple(combo[1]), Score: score}
	if len(combo) > 2 {
		r.Rest = make([]Tuple, len(combo)-2)
		for i, ord := range combo[2:] {
			r.Rest[i] = *j.leaves[i+2].tuple(ord)
		}
	}
	return r
}

// NaiveTreeTopK is the reference executor for arbitrary join trees: it
// scans every leaf in full, indexes each for its incident predicates,
// enumerates every assignment over the tree edges, and ranks exactly.
// It is the oracle the isl executor is checked against and the base
// of the doubling-depth streaming adapter.
func NaiveTreeTopK(c *kvstore.Cluster, t *JoinTree) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	before := c.Metrics().Snapshot()
	top := NewTopKList(t.K)
	var join *treeJoin
	join = newTreeJoin(t, func(score float64) {
		if top.Full() && score < top.KthScore() {
			return
		}
		top.Add(join.result(join.combo, score))
	})
	for i, li := range join.leaves {
		tuples, err := scanRelation(c, &t.Relations[i])
		if err != nil {
			return nil, fmt.Errorf("core: tree scan of %s: %w", t.Relations[i].Name, err)
		}
		for _, tp := range tuples {
			li.add(tp)
		}
	}
	steps := t.walkOrder(0)
	for ord := int32(0); ord < join.leaves[0].n; ord++ {
		join.combo[0] = ord
		join.expand(steps, 0)
	}
	return &Result{Results: top.Results(), Cost: c.Metrics().Snapshot().Sub(before)}, nil
}

// ---- Small helpers ----

// unionFind is the connectivity check behind Validate.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}
