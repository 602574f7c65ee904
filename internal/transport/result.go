package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// A methodTopK reply's body is ResultData in a hand-written binary
// layout; every other body is JSON. Integers are uvarints, the one
// signed field (SimTime, in nanoseconds) a zigzag varint, strings a
// uvarint length and their bytes, floats their IEEE-754 bits in 8
// big-endian bytes:
//
//	results   count, then per result: leaf count, each leaf's tuple in
//	          leaf order (Left, Right, then Rest) as RowKey, JoinValue,
//	          Score, and the result's Score
//	cost      the seven sim.Snapshot fields in declaration order
//	strings   Algorithm, NextPageToken
//	estimate  a presence byte (0 or 1), then, when present, the same
//	          seven cost fields: the CostEstimate's SimTime,
//	          NetworkBytes and KVReads, and four zeros in place of the
//	          fields an estimate lacks (a decoder refuses non-zero ones)
//
// Zero results decode as an empty slice and a two-leaf result's Rest as
// nil: the forms the engine builds.

// Smallest encodings, used to refuse a count the remaining bytes cannot
// back before anything is allocated for it.
const (
	minLeaves    = 2                     // Left and Right
	minTupleLen  = 1 + 1 + 8             // two empty strings, a score
	minResultLen = 1 + 2*minTupleLen + 8 // leaf count, two tuples, a score
)

// appendResult appends res's binary body to b.
func appendResult(b []byte, res *ResultData) []byte {
	b = binary.AppendUvarint(b, uint64(len(res.Results)))
	for i := range res.Results {
		r := &res.Results[i]
		b = binary.AppendUvarint(b, uint64(minLeaves+len(r.Rest)))
		b = appendTuple(b, &r.Left)
		b = appendTuple(b, &r.Right)
		for j := range r.Rest {
			b = appendTuple(b, &r.Rest[j])
		}
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.Score))
	}
	b = appendCost(b, &res.Cost)
	b = appendString(b, res.Algorithm)
	b = appendString(b, res.NextPageToken)
	e := res.Estimate
	if e == nil {
		return append(b, 0)
	}
	return appendCost(append(b, 1), &sim.Snapshot{SimTime: e.SimTime, NetworkBytes: e.NetworkBytes, KVReads: e.KVReads})
}

func appendTuple(b []byte, t *core.Tuple) []byte {
	b = appendString(b, t.RowKey)
	b = appendString(b, t.JoinValue)
	return binary.BigEndian.AppendUint64(b, math.Float64bits(t.Score))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendCost(b []byte, c *sim.Snapshot) []byte {
	b = binary.AppendVarint(b, int64(c.SimTime))
	for _, v := range [...]uint64{c.NetworkBytes, c.KVReads, c.KVWrites, c.RPCCalls, c.DiskBytesRead, c.TuplesShipped} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// resultReader walks a result body. b and s hold the same bytes: b for
// numbers, s (the body's one string copy) for the strings, which are
// substrings of it and so do not alias the frame buffer.
type resultReader struct {
	b   []byte
	s   string
	off int
	err error
}

// fail records the first error; later reads return zero values.
func (r *resultReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &Error{Kind: KindInternal, Msg: "decode result: " + fmt.Sprintf(format, args...)}
	}
	r.off = len(r.b)
}

func (r *resultReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads a count of items at least min bytes each, refusing one
// the remaining bytes cannot back.
func (r *resultReader) count(what string, min int) int {
	n := r.uvarint()
	if n > uint64((len(r.b)-r.off)/min) {
		r.fail("%s count %d exceeds the %d bytes left", what, n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

func (r *resultReader) float() float64 {
	if len(r.b)-r.off < 8 {
		r.fail("truncated float at byte %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *resultReader) string() string {
	n := r.count("string byte", 1)
	s := r.s[r.off : r.off+n]
	r.off += n
	return s
}

func (r *resultReader) tuple(t *core.Tuple) {
	t.RowKey = r.string()
	t.JoinValue = r.string()
	t.Score = r.float()
}

func (r *resultReader) varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *resultReader) cost(c *sim.Snapshot) {
	c.SimTime = time.Duration(r.varint())
	for _, f := range [...]*uint64{&c.NetworkBytes, &c.KVReads, &c.KVWrites, &c.RPCCalls, &c.DiskBytesRead, &c.TuplesShipped} {
		*f = r.uvarint()
	}
}

// decodeResult decodes a binary result body into out. The body may
// alias a frame buffer: it is copied once, into one string. A body that
// is malformed, claims more than its bytes back, or carries trailing
// bytes returns a KindInternal *Error.
func decodeResult(body []byte, out *ResultData) error {
	r := &resultReader{b: body, s: string(body)}
	out.Results = make([]core.JoinResult, r.count("result", minResultLen))
	for i := range out.Results {
		jr := &out.Results[i]
		leaves := r.uvarint()
		if leaves < minLeaves || leaves-minLeaves > uint64((len(r.b)-r.off)/minTupleLen) {
			r.fail("result %d claims %d leaves", i, leaves)
			break
		}
		r.tuple(&jr.Left)
		r.tuple(&jr.Right)
		if rest := int(leaves - minLeaves); rest > 0 {
			jr.Rest = make([]core.Tuple, rest)
			for j := range jr.Rest {
				r.tuple(&jr.Rest[j])
			}
		}
		jr.Score = r.float()
		if r.err != nil {
			break
		}
	}
	r.cost(&out.Cost)
	out.Algorithm = r.string()
	out.NextPageToken = r.string()
	switch present := r.uvarint(); present {
	case 0:
	case 1:
		var c sim.Snapshot
		r.cost(&c)
		if c.KVWrites|c.RPCCalls|c.DiskBytesRead|c.TuplesShipped != 0 {
			r.fail("estimate sets a cost field an estimate lacks")
		}
		out.Estimate = &core.CostEstimate{SimTime: c.SimTime, NetworkBytes: c.NetworkBytes, KVReads: c.KVReads}
	default:
		r.fail("estimate presence byte %d", present)
	}
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}
