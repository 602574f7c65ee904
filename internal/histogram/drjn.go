package histogram

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/bloom"
)

// A DRJN band is one score band of the 2-D equi-width histogram of
// Doulkeridis et al. [8] as adapted in Section 7.1: join values are hashed
// into partitions (the x-axis) and scores into a Layout's buckets (the
// y-axis), and each cell counts the tuples whose join value hashes to that
// partition and whose score falls in that band. The paper stores all
// cells of one score band as columns of a single row so the coordinator
// fetches a full band with one Get; this file is that row's codec.

// MarshalBandData encodes a band's cells and observed score bounds for
// storage as an index row value.
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
// partition count.
func PartitionOf(joinValue string, parts int) int {
	return int(bloom.Hash64String(joinValue) % uint64(parts))
}

// BandData is a decoded DRJN band row.
type BandData struct {
	Cells    []uint64
	Lo, Hi   float64
	NonEmpty bool
}

// UnmarshalBand decodes a band row written by MarshalBandData.
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
