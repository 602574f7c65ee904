package kvstore

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Cell is one key-value pair: the paper's quadruplet {key, column name,
// column value, timestamp}. Column names are split into family and
// qualifier as in BigTable/HBase.
//
// A Cell handed to a write is copied: the caller may reuse its Value
// buffer as soon as the write returns. A Cell returned by a read points
// into the store's memory — its strings and its Value stay valid for as
// long as they are held, but Value is read-only: append to it freely
// (it is clipped to its length, so append reallocates), never write
// through it.
//
// The JSON tags are a cell's form on the transport seam (repair
// payloads).
type Cell struct {
	Row       string `json:"row"`
	Family    string `json:"family"`
	Qualifier string `json:"qualifier"`
	// Value is the column value. A zero-length value is stored as no
	// bytes at all and reads back as nil on every path — memtable,
	// segment, SSTable, WAL replay — never as an empty non-nil slice.
	Value     []byte `json:"value,omitempty"`
	Timestamp int64  `json:"ts"`
	// Tombstone marks a deletion of the column as of Timestamp.
	Tombstone bool `json:"tombstone,omitempty"`
}

// cellOverhead approximates per-cell storage overhead (key lengths,
// timestamp, flags) used for size accounting, mirroring HBase's KeyValue
// framing.
const cellOverhead = 24

// StoredSize returns the bytes this cell occupies on disk / on the wire.
func (c *Cell) StoredSize() uint64 {
	return uint64(len(c.Row) + len(c.Family) + len(c.Qualifier) + len(c.Value) + cellOverhead)
}

// Column returns the printable column name "family:qualifier".
func (c *Cell) Column() string { return c.Family + ":" + c.Qualifier }

func (c *Cell) String() string {
	if c.Tombstone {
		return fmt.Sprintf("%s/%s:%s@%d <tombstone>", c.Row, c.Family, c.Qualifier, c.Timestamp)
	}
	return fmt.Sprintf("%s/%s:%s@%d=%q", c.Row, c.Family, c.Qualifier, c.Timestamp, c.Value)
}

// Row is a materialized row: all live cells sharing a row key, sorted by
// (family, qualifier).
type Row struct {
	Key   string
	Cells []Cell
}

// Size returns the stored size of all cells in the row.
func (r *Row) Size() uint64 {
	var s uint64
	for i := range r.Cells {
		s += r.Cells[i].StoredSize()
	}
	return s
}

// Cell returns the cell for family:qualifier, or nil.
func (r *Row) Cell(family, qualifier string) *Cell {
	for i := range r.Cells {
		if r.Cells[i].Family == family && r.Cells[i].Qualifier == qualifier {
			return &r.Cells[i]
		}
	}
	return nil
}

// FamilyCells returns the cells of one column family, preserving order.
func (r *Row) FamilyCells(family string) []Cell {
	var out []Cell
	for i := range r.Cells {
		if r.Cells[i].Family == family {
			out = append(out, r.Cells[i])
		}
	}
	return out
}

// rowBlock is one batch of scanned rows in two arrays reused from batch
// to batch: the rows, and one cell slab their Cells sub-slice. Once the
// arrays have grown to a batch's size, filling the block again
// allocates nothing. The block owns only the arrays; the cells'
// strings and Values are views into the store (see Cell).
type rowBlock struct {
	rows  []Row
	cells []Cell
}

// reset empties b for the next batch, keeping its arrays.
func (b *rowBlock) reset() { b.rows, b.cells = b.rows[:0], b.cells[:0] }

// closeRow ends the row being assembled at the end of b, whose cells
// start at first in the slab: a row left without cells or rejected by f
// is dropped, a kept one is billed as returned.
func (b *rowBlock) closeRow(first int, f Filter, stats *OpStats) {
	row := &b.rows[len(b.rows)-1]
	row.Cells = b.cells[first:len(b.cells):len(b.cells)]
	if len(row.Cells) == 0 || (f != nil && !f.FilterRow(row)) {
		b.rows, b.cells = b.rows[:len(b.rows)-1], b.cells[:first]
		return
	}
	stats.CellsReturned += uint64(len(row.Cells))
	stats.BytesReturned += row.Size()
}

// seal points every row's Cells at its run of the slab. Until then a
// row's Cells has the right length but may point into an array the
// slab has since outgrown. Each run is capacity-clipped, so appending
// to one row's Cells never overwrites the next row's.
func (b *rowBlock) seal() {
	off := 0
	for i := range b.rows {
		n := len(b.rows[i].Cells)
		b.rows[i].Cells = b.cells[off : off+n : off+n]
		off += n
	}
}

// cellKeySuffixLen is the length of a cell key's version suffix; what
// precedes it is the column's key prefix.
const cellKeySuffixLen = 16

// cellKey builds the internal sort key for a cell version. Layout:
//
//	row \x00 family \x00 qualifier \x00 ^timestamp ^seq
//
// Timestamps and sequence numbers are bit-inverted big-endian so newer
// versions sort FIRST within a column, making "latest version" the first
// cell encountered during an ascending scan.
func cellKey(row, family, qualifier string, ts int64, seq uint64) string {
	var sb strings.Builder
	sb.Grow(len(row) + len(family) + len(qualifier) + 3 + cellKeySuffixLen)
	sb.WriteString(row)
	sb.WriteByte(0)
	sb.WriteString(family)
	sb.WriteByte(0)
	sb.WriteString(qualifier)
	sb.WriteByte(0)
	var n [cellKeySuffixLen]byte
	binary.BigEndian.PutUint64(n[0:8], ^uint64(ts))
	binary.BigEndian.PutUint64(n[8:16], ^seq)
	sb.Write(n[:])
	return sb.String()
}

// internalKeyLen is the length of c's internal key (see cellKey).
func internalKeyLen(c *Cell) int {
	return len(c.Row) + len(c.Family) + len(c.Qualifier) + 3 + cellKeySuffixLen
}

// rowPrefix returns the cellKey prefix shared by all cells of a row.
func rowPrefix(row string) string { return row + "\x00" }

// parseCellKey splits an internal key back into coordinates without
// allocating (the old implementation forced a []byte copy of the 16
// binary suffix bytes on every WAL replay record).
func parseCellKey(k string) (row, family, qualifier string, ts int64, seq uint64, err error) {
	// Find the three NUL separators from the left.
	i1 := strings.IndexByte(k, 0)
	if i1 < 0 {
		return "", "", "", 0, 0, fmt.Errorf("kvstore: malformed cell key")
	}
	i2 := strings.IndexByte(k[i1+1:], 0)
	if i2 < 0 {
		return "", "", "", 0, 0, fmt.Errorf("kvstore: malformed cell key")
	}
	i2 += i1 + 1
	i3 := strings.IndexByte(k[i2+1:], 0)
	if i3 < 0 {
		return "", "", "", 0, 0, fmt.Errorf("kvstore: malformed cell key")
	}
	i3 += i2 + 1
	if len(k)-i3-1 != cellKeySuffixLen {
		return "", "", "", 0, 0, fmt.Errorf("kvstore: malformed cell key")
	}
	row, family, qualifier = k[:i1], k[i1+1:i2], k[i2+1:i3]
	ts = int64(^be64(k[i3+1:]))
	seq = ^be64(k[i3+9:])
	return row, family, qualifier, ts, seq, nil
}

// be64 decodes a big-endian uint64 straight from a string.
func be64(s string) uint64 {
	_ = s[7]
	return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
		uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
}
