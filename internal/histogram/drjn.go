package histogram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bloom"
)

// DRJNMatrix is the 2-D equi-width histogram of Doulkeridis et al. [8] as
// adapted in Section 7.1: join values are hashed into JoinParts partitions
// (the x-axis) and scores into the Layout's buckets (the y-axis). Each
// cell counts tuples whose join value hashes to that partition and whose
// score falls in that band. The paper stores all cells of one score band
// as columns of a single row so the coordinator fetches a full band with
// one Get.
type DRJNMatrix struct {
	Layout    Layout
	JoinParts int
	cells     [][]uint64 // [scoreBand][joinPartition] -> count
	mins      []float64  // observed min score per band
	maxs      []float64  // observed max score per band
	nonEmpty  []bool
}

// NewDRJNMatrix returns an empty matrix.
func NewDRJNMatrix(l Layout, joinParts int) (*DRJNMatrix, error) {
	if joinParts < 1 {
		return nil, fmt.Errorf("histogram: join partitions %d < 1", joinParts)
	}
	m := &DRJNMatrix{
		Layout:    l,
		JoinParts: joinParts,
		cells:     make([][]uint64, l.Buckets),
		mins:      make([]float64, l.Buckets),
		maxs:      make([]float64, l.Buckets),
		nonEmpty:  make([]bool, l.Buckets),
	}
	for i := range m.cells {
		m.cells[i] = make([]uint64, joinParts)
	}
	return m, nil
}

// Partition maps a join value to its x-axis partition.
func (m *DRJNMatrix) Partition(joinValue string) int {
	return int(bloom.Hash64String(joinValue) % uint64(m.JoinParts))
}

// Add records a tuple.
func (m *DRJNMatrix) Add(joinValue string, score float64) {
	band := m.Layout.BucketOf(score)
	part := m.Partition(joinValue)
	m.cells[band][part]++
	if !m.nonEmpty[band] {
		m.mins[band], m.maxs[band] = score, score
		m.nonEmpty[band] = true
	} else {
		if score < m.mins[band] {
			m.mins[band] = score
		}
		if score > m.maxs[band] {
			m.maxs[band] = score
		}
	}
}

// Remove decrements the cell for a tuple previously added. Observed
// min/max are left untouched (they stay conservative bounds).
func (m *DRJNMatrix) Remove(joinValue string, score float64) {
	band := m.Layout.BucketOf(score)
	part := m.Partition(joinValue)
	if m.cells[band][part] > 0 {
		m.cells[band][part]--
	}
}

// Band returns the counts of one score band (shared slice; do not mutate).
func (m *DRJNMatrix) Band(band int) []uint64 { return m.cells[band] }

// BandBounds returns the observed [min,max] scores of a band; ok=false if
// the band is empty (bounds then fall back to bucket boundaries).
func (m *DRJNMatrix) BandBounds(band int) (lo, hi float64, ok bool) {
	if !m.nonEmpty[band] {
		lo, hi = m.Layout.Range(band)
		return lo, hi, false
	}
	return m.mins[band], m.maxs[band], true
}

// MarshalBand encodes one band's cells plus bounds for storage as an
// index row value.
func (m *DRJNMatrix) MarshalBand(band int) []byte {
	lo, hi, ok := m.BandBounds(band)
	return MarshalBandData(m.cells[band], lo, hi, ok)
}

// MarshalBandData encodes a raw band (the DRJN index builder's reducers
// assemble bands without a full matrix).
func MarshalBandData(cells []uint64, lo, hi float64, nonEmpty bool) []byte {
	buf := make([]byte, 0, 25+8*len(cells))
	var f [8]byte
	binary.BigEndian.PutUint64(f[:], uint64(len(cells)))
	buf = append(buf, f[:]...)
	binary.BigEndian.PutUint64(f[:], math.Float64bits(lo))
	buf = append(buf, f[:]...)
	binary.BigEndian.PutUint64(f[:], math.Float64bits(hi))
	buf = append(buf, f[:]...)
	if nonEmpty {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, c := range cells {
		binary.BigEndian.PutUint64(f[:], c)
		buf = append(buf, f[:]...)
	}
	return buf
}

// PartitionOf maps a join value to its x-axis partition for a given
// partition count (standalone version of DRJNMatrix.Partition).
func PartitionOf(joinValue string, parts int) int {
	return int(bloom.Hash64String(joinValue) % uint64(parts))
}

// BandData is a decoded DRJN band row.
type BandData struct {
	Cells    []uint64
	Lo, Hi   float64
	NonEmpty bool
}

// UnmarshalBand decodes a band row written by MarshalBand.
func UnmarshalBand(data []byte) (*BandData, error) {
	if len(data) < 25 {
		return nil, errors.New("histogram: truncated DRJN band")
	}
	parts := int(binary.BigEndian.Uint64(data[0:8]))
	lo := math.Float64frombits(binary.BigEndian.Uint64(data[8:16]))
	hi := math.Float64frombits(binary.BigEndian.Uint64(data[16:24]))
	ok := data[24] == 1
	if len(data) < 25+8*parts {
		return nil, errors.New("histogram: truncated DRJN band cells")
	}
	cells := make([]uint64, parts)
	for i := 0; i < parts; i++ {
		cells[i] = binary.BigEndian.Uint64(data[25+8*i : 33+8*i])
	}
	return &BandData{Cells: cells, Lo: lo, Hi: hi, NonEmpty: ok}, nil
}

// DotProduct estimates the join size between two decoded bands.
func DotProduct(a, b *BandData) (uint64, error) {
	if len(a.Cells) != len(b.Cells) {
		return 0, errors.New("histogram: band partition mismatch")
	}
	var est uint64
	for i := range a.Cells {
		est += a.Cells[i] * b.Cells[i]
	}
	return est, nil
}
