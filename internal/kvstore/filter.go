package kvstore

import (
	"encoding/binary"
	"math"
)

// Filter is a server-side row predicate, the store's analogue of HBase
// filters. Filters run inside the region server, so rejected rows are
// still read from disk (and still cost read units) but are never shipped
// across the network — exactly the trade-off the paper's DRJN adaptation
// exploits ("we further augmented HBase with custom server-side filters",
// Section 7.1).
type Filter interface {
	// FilterRow reports whether the row should be returned.
	FilterRow(r *Row) bool
}

// FloatColumnMinFilter keeps rows whose Family:Qualifier column decodes
// (as a big-endian float64) to a value >= Min. Rows missing the column
// are dropped. This is the DRJN "score above threshold" pull filter.
type FloatColumnMinFilter struct {
	Family    string
	Qualifier string
	Min       float64
}

// FilterRow implements Filter.
func (f FloatColumnMinFilter) FilterRow(r *Row) bool {
	c := r.Cell(f.Family, f.Qualifier)
	if c == nil || len(c.Value) != 8 {
		return false
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(c.Value))
	return v >= f.Min
}

// FloatValue encodes a float64 column value (big-endian bits).
func FloatValue(f float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(f))
	return b[:]
}

// ParseFloatValue decodes a value written by FloatValue.
func ParseFloatValue(b []byte) (float64, bool) {
	if len(b) != 8 {
		return 0, false
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), true
}
