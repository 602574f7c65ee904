package core

import (
	"fmt"
	"hash/maphash"
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
// (leafIndex: an arrival arena plus tables of ordinal chains, keyed by
// join-value hash for equi edges and by band cell for band edges) and
// the assignment enumerator over those indexes (treeJoin).

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
// The JSON tags are its form in an HTTP tree spec and on the transport
// seam, where an empty Kind means PredEqui.
type TreeEdge struct {
	A    int      `json:"a"`
	B    int      `json:"b"`
	Kind PredKind `json:"kind,omitempty"`
	// Band is the half-width of a PredBand predicate; ignored for equi.
	Band float64 `json:"band,omitempty"`
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
// ordinal only, so nothing but the arena holds pointers. Both edge
// kinds index through the same structure, a chainTable of 64-bit cells:
// the equi table keys a tuple by the hash of its join value, a band
// grid by the band cell of its parsed value. Adding a tuple hashes its
// join value once if an equi edge is incident, parses it once (digit
// strings without strconv) if a band edge is, and costs O(1) amortised:
// one table update per table. A probe costs a few table lookups plus
// the tuples of the chains it walks, and allocates nothing. The arena
// pages and tables come from pools and go back to them when the list
// cursor closes (release), so a steady stream of queries reuses them
// instead of allocating its own.
type leafIndex struct {
	// The arena, in pages of tuplePage ordinals: regrowing flat slices
	// would clear and recopy memory over and over as a leaf fills.
	pages []*leafPage
	n     int32

	// Equi probes, if an equi edge is incident: every ordinal in the
	// cell of its join value's hash (equiCell).
	equi *chainTable

	// Band probes: one cell grid per distinct width among the incident
	// band edges. One grid at the smallest width would not do: a probe
	// through a wide edge would walk width/smallest cells.
	grids []*bandGrid
}

// tuplePage is the arena page size in ordinals (20 KB of Tuple headers
// and 4 KB of parsed values).
const tuplePage = 512

// leafPage holds what a leaf keeps per ordinal for tuplePage
// consecutive ordinals. The tuples come first, so the collector scans
// only them.
type leafPage struct {
	tuples [tuplePage]Tuple
	// vals is each tuple's join value parsed once at add, for band
	// probes: NaN for one that can never band-match.
	vals [tuplePage]float64
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
		if e.Kind != PredBand {
			if li.equi == nil {
				li.equi = equiTables.Get().(*chainTable)
			}
		} else if li.grid(e.Band) == nil {
			g := bandGrids.Get().(*bandGrid)
			g.width, g.inv = e.Band, min(1/e.Band, math.MaxFloat64)
			li.grids = append(li.grids, g)
		}
	}
	return li
}

// grid returns li's band grid of width w, or nil.
func (li *leafIndex) grid(w float64) *bandGrid {
	for _, g := range li.grids {
		if g.width == w {
			return g
		}
	}
	return nil
}

// bandValue parses a join value for band predicates. NaN stands for
// every value no band predicate can match — unparseable, NaN, or
// infinite: |a-b| <= Band is false for each of them, as in
// TreeEdge.Match — so such tuples get no band cell and such probes
// return nothing. Plain digit strings, the usual integer join value,
// skip strconv.ParseFloat (digitsValue).
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

// equiSeed keys equiCell. It is drawn at random once per process, so
// join values a client chooses cannot be made to share a cell.
var equiSeed = maphash.MakeSeed()

// equiCell returns the equi-table cell of join value v: its 64-bit
// hash. Values that share a cell share a chain, and a probe keeps only
// the ordinals whose value equals its own (equiMatches).
func equiCell(v string) int64 {
	return int64(maphash.String(equiSeed, v))
}

// The buffers a closed list cursor hands to the next query's leaves
// (leafIndex.release): arena pages, equi tables and band grids, each
// emptied before it is pooled, so a pooled buffer pins no tuple
// strings.
var (
	leafPages  = sync.Pool{New: func() any { return new(leafPage) }}
	equiTables = sync.Pool{New: func() any { return new(chainTable) }}
	bandGrids  = sync.Pool{New: func() any { return new(bandGrid) }}
)

// maxPooledGrid bounds the table slots and links of a chain table worth
// pooling: clearing keeps a table's size, so a larger one goes to the
// collector instead of pinning its peak size.
const maxPooledGrid = 1 << 12

// release hands li's arena pages (cleared of their tuples) and tables
// to the pools and empties li. Nothing may read li's tuples afterwards;
// results already materialised hold copies.
func (li *leafIndex) release() {
	for pi, p := range li.pages {
		clear(p.tuples[:min(int(li.n)-pi*tuplePage, tuplePage)])
		leafPages.Put(p)
	}
	if li.equi != nil && li.equi.reset() {
		equiTables.Put(li.equi)
	}
	for _, g := range li.grids {
		if g.reset() {
			bandGrids.Put(g)
		}
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
	if li.equi != nil {
		li.equi.link(equiCell(t.JoinValue))
	}
	if li.grids != nil {
		v := bandValue(t.JoinValue)
		pg.vals[at] = v
		for _, g := range li.grids {
			g.add(v)
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
	return li.bandMatches(li.grid(e.Band), from.pages[ord/tuplePage].vals[ord%tuplePage], buf)
}

// equiMatches appends the ordinals whose join value equals v, latest
// first: the members of v's cell chain that hold v itself.
func (li *leafIndex) equiMatches(v string, buf []int32) []int32 {
	t := li.equi
	if t.used == 0 {
		return buf
	}
	for p := t.slot(equiCell(v)).last - 1; p >= 0; p = t.prev[p] {
		if li.tuple(p).JoinValue == v {
			buf = append(buf, p)
		}
	}
	return buf
}

// chainTable groups a leaf's ordinals by a 64-bit cell. The ordinals of
// a cell form a chain from its latest arrival back through prev, and a
// pointer-free open-addressing table maps each cell to that latest
// arrival, so linking an ordinal is one table update and one append.
type chainTable struct {
	slots []gridSlot // linear probing; power-of-two length, at most 3/4 used
	used  int
	prev  []int32 // per ordinal: the ordinal before it in its cell, or -1
}

// gridSlot maps a cell to its latest ordinal plus one, so a zeroed slot
// is empty and clearing the table empties it.
type gridSlot struct {
	cell int64
	last int32
}

// minGridSlots is the size of a chain table's first slot table.
const minGridSlots = 8

// slot returns the table slot of cell c: the one holding it, or the
// empty one it would take. The table must not be empty.
func (t *chainTable) slot(c int64) *gridSlot {
	h := uint64(c)
	h = (h ^ h>>32) * 0x9e3779b97f4a7c15
	mask := uint64(len(t.slots) - 1)
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.last == 0 || s.cell == c {
			return s
		}
	}
}

// link appends the next ordinal to the chain of cell c.
func (t *chainTable) link(c int64) {
	if (t.used+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	s := t.slot(c)
	if s.last == 0 {
		s.cell = c
		t.used++
	}
	t.prev = append(t.prev, s.last-1)
	s.last = int32(len(t.prev))
}

// grow doubles the table, or makes the first one, and re-slots its
// cells.
func (t *chainTable) grow() {
	old := t.slots
	t.slots = make([]gridSlot, max(2*len(old), minGridSlots))
	for _, s := range old {
		if s.last != 0 {
			*t.slot(s.cell) = s
		}
	}
}

// reset empties t for its pool, keeping its buffers, and reports
// whether they are small enough to pool (maxPooledGrid).
func (t *chainTable) reset() bool {
	if len(t.slots) > maxPooledGrid || cap(t.prev) > maxPooledGrid {
		return false
	}
	clear(t.slots)
	t.used, t.prev = 0, t.prev[:0]
	return true
}

// bandGrid indexes a leaf's band-matchable join values for the band
// edges of one width w, as a chainTable of band cells. A value v lies
// in cell ⌊v·(1/w)+1/2⌋, clamped to ±2^62 (at w = 0, in the cell of
// its bits: one per value). The cell is monotone in v, so a probe's
// partners lie in the cells spanning its band window: three, normally.
// Only monotonicity makes probes exact, so the cell multiplies by a
// rounded 1/w rather than divide by w, and where 1/w overflows
// MaxFloat64 stands in (wider cells, still monotone). Cells are centred
// on the multiples of w because integer join values at an integer width
// would otherwise sit on cell edges, where the window's widening (see
// window) reaches a fourth cell.
type bandGrid struct {
	width float64
	inv   float64 // 1/width, at most MaxFloat64
	chainTable
	win []int64 // probe scratch: the cells one probe visits
}

// maxCellWalk bounds the cells a probe walks one by one; see window.
const maxCellWalk = 16

// cell returns the cell of v, which must not be NaN.
func (g *bandGrid) cell(v float64) int64 {
	if g.width == 0 {
		return int64(math.Float64bits(v + 0)) // v+0 turns -0 into +0
	}
	x := v*g.inv + 0.5
	if x >= 0x1p62 {
		return 1 << 62
	}
	if x <= -0x1p62 {
		return -1 << 62
	}
	c := int64(x) // rounds toward zero: one less below zero makes it ⌊x⌋
	if float64(c) > x {
		c--
	}
	return c
}

// add links the next ordinal, whose parsed join value is v, into its
// cell; a NaN value gets no cell.
func (g *bandGrid) add(v float64) {
	if math.IsNaN(v) {
		g.prev = append(g.prev, -1)
		return
	}
	g.link(g.cell(v))
}

// window returns the cells a probe at fv (not NaN) visits: every cell
// that can hold a value a with |a-fv| <= width, evaluated exactly as
// TreeEdge.Match does. fv-width and fv+width round differently from
// a-fv, so the window is widened by more than that rounding. Where
// |fv|/width exceeds about 2^52 the cells are finer than the spacing of
// the floats there, and the widening alone spans up to 2^13 of them;
// such a window is walked float by float instead, visiting the cell of
// each of its floats: about twenty at most.
func (g *bandGrid) window(fv float64) []int64 {
	g.win = g.win[:0]
	if g.width == 0 {
		return append(g.win, g.cell(fv))
	}
	slack := (math.Abs(fv) + g.width) * 0x1p-50
	lo, hi := fv-g.width-slack, fv+g.width+slack
	if lo < -math.MaxFloat64 {
		lo = -math.MaxFloat64
	}
	if hi > math.MaxFloat64 {
		hi = math.MaxFloat64
	}
	c0, c1 := g.cell(lo), g.cell(hi)
	if c1-c0 < maxCellWalk {
		for c := c0; c <= c1; c++ {
			g.win = append(g.win, c)
		}
		return g.win
	}
	for a := lo; a <= hi; a = math.Nextafter(a, math.Inf(1)) {
		if c := g.cell(a); len(g.win) == 0 || c != g.win[len(g.win)-1] {
			g.win = append(g.win, c)
		}
	}
	return g.win
}

// bandMatches appends the ordinals in grid g whose value a satisfies
// |a-fv| <= g.width, testing each ordinal in the window's cells exactly.
func (li *leafIndex) bandMatches(g *bandGrid, fv float64, buf []int32) []int32 {
	if math.IsNaN(fv) || g.used == 0 {
		return buf
	}
	for _, c := range g.window(fv) {
		for p := g.slot(c).last - 1; p >= 0; p = g.prev[p] {
			d := li.pages[p/tuplePage].vals[p%tuplePage] - fv
			if d < 0 {
				d = -d
			}
			if d <= g.width {
				buf = append(buf, p)
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
