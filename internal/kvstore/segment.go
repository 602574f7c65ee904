package kvstore

import "repro/internal/bloom"

// segmentBloomFPP is the false-positive target of the per-segment row
// bloom filter. 1% keeps the filter at ~10 bits per row while pruning
// nearly every segment that does not hold the requested row — the same
// role HBase's per-HFile ROW bloom filters play.
const segmentBloomFPP = 0.01

// segment is an immutable sorted run of cell versions, the in-memory
// analogue of an HBase HFile: produced by flushing a memtable or by
// compaction, searched by binary search, scanned sequentially. Its cells
// are a sortedRun (arena.go) — the same bytes-plus-references layout a
// decoded SSTable block has. Each segment carries its row-key range and a
// bloom filter over row keys so point gets can skip segments that cannot
// contain the row.
type segment struct {
	sortedRun
	size   uint64
	minRow string
	maxRow string
	filter *bloom.Filter
}

// newSegment wraps a finished run with its size, row range and filter.
func newSegment(cells sortedRun) *segment {
	s := &segment{sortedRun: cells}
	n := s.len()
	if n == 0 {
		return s
	}
	// n over-counts distinct rows (versions share a row), which only
	// makes the filter larger and the FPP lower.
	m, k := bloom.OptimalParams(uint64(n), segmentBloomFPP)
	s.filter = bloom.NewFilter(m, k)
	lastRow := ""
	for i := range s.refs {
		ref := &s.refs[i]
		s.size += ref.storedSize()
		if row := s.arena.key(ref)[:ref.rowLen]; i == 0 || row != lastRow {
			s.filter.AddString(row)
			lastRow = row
		}
	}
	s.minRow = s.key(0)[:s.refs[0].rowLen]
	s.maxRow = lastRow
	return s
}

// run is a read source in a region's LSM pipeline below the memtable:
// either an in-memory *segment or an on-disk *diskSegment. iterAt
// accumulates measured block I/O into io (nil for uncharged admin and
// introspection walks); in-memory runs perform no I/O and ignore it.
// dataSize is the LOGICAL byte size (summed Cell.StoredSize), identical
// for the same cells in either representation, so compaction tiering and
// planner statistics are storage-mode-independent.
type run interface {
	mayContainRow(row string) bool
	iterAt(start string, io *OpStats) cellIter
	numCells() int
	dataSize() uint64
	close() error
}

// mayContainRow reports whether a point get for row needs to search this
// segment: the row must fall inside the segment's key range and pass the
// bloom filter. No false negatives.
func (s *segment) mayContainRow(row string) bool {
	if s.len() == 0 || row < s.minRow || row > s.maxRow {
		return false
	}
	return s.filter.ContainsString(row)
}

func (s *segment) iterAt(start string, io *OpStats) cellIter { return s.iterator(start) }
func (s *segment) numCells() int                             { return s.len() }
func (s *segment) dataSize() uint64                          { return s.size }
func (s *segment) close() error                              { return nil }

// iterator walks entries in ascending key order from >= start.
func (s *segment) iterator(start string) *runIter {
	idx := 0
	if start != "" {
		idx = s.seek(start)
	}
	return &runIter{run: &s.sortedRun, idx: idx}
}

// cellIter is the common interface of memtable, segment, and disk
// segment iterators. In-memory iterators cannot fail; a disk iterator
// that hits an I/O or corruption error becomes invalid and reports the
// error through fail(), which callers must check once iteration stops.
//
// cell() returns a VIEW into the source's arena, owned by the iterator:
// it is valid until the next call of next() on this iterator (calling
// cell() again without next() returns the same cell). Callers copy the
// Cell by value to keep it; the copy's strings and Value still point
// into the arena, which is safe — arena bytes never change — and keeps
// that arena alive for as long as the copy is held.
type cellIter interface {
	valid() bool
	key() string
	cell() *Cell
	next()
	fail() error
}

// mergedIter merges several sorted iterators into one ascending stream
// using a binary min-heap over the sources' current keys (a tournament
// merge): key()/cell() read the winner in O(1) and next() restores the
// heap in O(log k), replacing the old linear scan of every source for
// every one of the three per-element accessor calls. On equal keys the
// source added FIRST wins (callers order sources newest-first), though
// equal internal keys cannot occur across sources because sequence
// numbers are globally unique per region.
type mergedIter struct {
	its  []cellIter // heap, ordered by keys (ties: ord)
	keys []string   // cached current key of each heap entry
	ord  []int      // insertion order, the tie-break priority
	err  error      // first source failure; stops iteration
}

func newMergedIter(sources ...cellIter) *mergedIter {
	m := &mergedIter{
		its:  make([]cellIter, 0, len(sources)),
		keys: make([]string, 0, len(sources)),
		ord:  make([]int, 0, len(sources)),
	}
	for i, s := range sources {
		if s.valid() {
			m.its = append(m.its, s)
			m.keys = append(m.keys, s.key())
			m.ord = append(m.ord, i)
		} else if err := s.fail(); err != nil && m.err == nil {
			m.err = err
		}
	}
	for i := len(m.its)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

func (m *mergedIter) less(i, j int) bool {
	if m.keys[i] != m.keys[j] {
		return m.keys[i] < m.keys[j]
	}
	return m.ord[i] < m.ord[j]
}

func (m *mergedIter) swap(i, j int) {
	m.its[i], m.its[j] = m.its[j], m.its[i]
	m.keys[i], m.keys[j] = m.keys[j], m.keys[i]
	m.ord[i], m.ord[j] = m.ord[j], m.ord[i]
}

// down restores the heap property from index i.
func (m *mergedIter) down(i int) {
	n := len(m.its)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && m.less(r, l) {
			least = r
		}
		if !m.less(least, i) {
			return
		}
		m.swap(i, least)
		i = least
	}
}

func (m *mergedIter) valid() bool { return m.err == nil && len(m.its) > 0 }
func (m *mergedIter) key() string { return m.keys[0] }
func (m *mergedIter) cell() *Cell { return m.its[0].cell() }
func (m *mergedIter) fail() error { return m.err }

func (m *mergedIter) next() {
	it := m.its[0]
	it.next()
	if it.valid() {
		m.keys[0] = it.key()
	} else {
		if err := it.fail(); err != nil && m.err == nil {
			m.err = err
		}
		n := len(m.its) - 1
		m.swap(0, n)
		m.its = m.its[:n]
		m.keys = m.keys[:n]
		m.ord = m.ord[:n]
	}
	m.down(0)
}
