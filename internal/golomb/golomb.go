// Package golomb implements Golomb and Golomb-Rice run-length coding of
// non-negative integers over bit streams.
//
// The BFHM index (Section 5.1 of the paper) stores each histogram bucket's
// Bloom filter bitmap and counter table Golomb-compressed. A Golomb code
// with parameter M encodes a value v as a unary quotient q = v/M followed
// by a truncated-binary remainder r = v%M. When M is a power of two the
// code degenerates to a Rice code and the remainder is a plain binary
// field. Golomb codes are optimal for geometrically distributed values,
// which is exactly the distribution of gaps between set bits in a sparse
// Bloom filter.
package golomb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrCorrupt is returned when a decoder runs off the end of its input or
// encounters an impossible code word.
var ErrCorrupt = errors.New("golomb: corrupt or truncated stream")

// OptimalM returns the Golomb parameter that minimizes the expected code
// length for geometrically distributed values with success probability p
// (i.e. values are gaps between events that each occur with probability p).
// The classical result is M = ceil(-1 / log2(1-p)), clamped to at least 1.
func OptimalM(p float64) uint64 {
	if p <= 0 {
		return 1 << 30 // effectively fixed-width; callers should avoid p=0
	}
	if p >= 1 {
		return 1
	}
	if 1-p == 1 {
		// p is below float64 resolution (< 2^-53), so the formula would
		// divide by log2(1) = 0 and fall through to M = 1 — a unary code
		// for gaps of order 1/p. The true optimum is above 2^52.
		return 1 << 52
	}
	m := math.Ceil(-1 / math.Log2(1-p))
	if m < 1 || math.IsNaN(m) || math.IsInf(m, 0) {
		return 1
	}
	return uint64(m)
}

// OptimalRiceK returns the Rice parameter k (M = 2^k) closest to the
// optimal Golomb parameter for gap probability p.
func OptimalRiceK(p float64) uint {
	m := OptimalM(p)
	k := uint(0)
	for (uint64(1) << (k + 1)) <= m {
		k++
	}
	return k
}

// BitWriter accumulates bits most-significant-first into a byte slice.
// The zero value is ready to use.
type BitWriter struct {
	buf  []byte
	nbit uint8 // bits used in the final byte, 0..7 (0 means byte is full/absent)
}

// WriteBit appends a single bit (0 or 1).
func (w *BitWriter) WriteBit(b uint) {
	if w.nbit == 0 {
		w.buf = append(w.buf, 0)
		w.nbit = 8
	}
	w.nbit--
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << w.nbit
	}
	if w.nbit == 0 {
		// next WriteBit will allocate a fresh byte
	}
}

// WriteBits appends the low n bits of v, most significant first.
func (w *BitWriter) WriteBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(uint((v >> uint(i)) & 1))
	}
}

// WriteUnary appends q one-bits followed by a zero bit.
func (w *BitWriter) WriteUnary(q uint64) {
	for i := uint64(0); i < q; i++ {
		w.WriteBit(1)
	}
	w.WriteBit(0)
}

// Len returns the number of whole bytes needed to hold the written bits.
func (w *BitWriter) Len() int { return len(w.buf) }

// Bits returns the total number of bits written so far.
func (w *BitWriter) Bits() int {
	if len(w.buf) == 0 {
		return 0
	}
	return len(w.buf)*8 - int(w.nbit)
}

// Bytes returns the encoded bytes. The final byte is zero-padded.
func (w *BitWriter) Bytes() []byte { return w.buf }

// BitReader consumes bits most-significant-first from a byte slice, a
// byte or a 64-bit word per step. A read that runs off the end consumes
// what was left and returns ErrCorrupt, as reading bit by bit would.
type BitReader struct {
	buf []byte
	off int // bits consumed
}

// NewBitReader returns a reader over b.
func NewBitReader(b []byte) *BitReader {
	return &BitReader{buf: b}
}

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (uint, error) {
	if r.off >= 8*len(r.buf) {
		return 0, ErrCorrupt
	}
	v := uint(r.buf[r.off>>3]>>(7-r.off&7)) & 1
	r.off++
	return v, nil
}

// ReadBits reads n bits MSB-first (the low 64 of them when n > 64).
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	if n > uint(8*len(r.buf)-r.off) {
		r.off = 8 * len(r.buf)
		return 0, ErrCorrupt
	}
	pos, used := r.off>>3, uint(r.off&7)
	if n-1 < 57 && pos+8 <= len(r.buf) {
		// One load covers the field: used + n <= 64.
		r.off += int(n)
		return binary.BigEndian.Uint64(r.buf[pos:]) << used >> (64 - n), nil
	}
	var v uint64
	for n > 0 {
		avail := 8 - uint(r.off&7) // unread bits of the current byte
		take := min(avail, n)
		v = v<<take | uint64(r.buf[r.off>>3])>>(avail-take)&(1<<take-1)
		r.off += int(take)
		n -= take
	}
	return v, nil
}

// ReadUnary reads a unary-coded quotient (count of 1 bits before a 0).
func (r *BitReader) ReadUnary() (uint64, error) {
	var q uint64
	for {
		pos, used := r.off>>3, uint(r.off&7)
		// ones counts the run of 1 bits at the reader's position within
		// the next valid unread bits. Shifting the consumed bits out
		// leaves zeros at the low end, so the run never exceeds valid.
		var ones, valid uint
		switch {
		case pos+8 <= len(r.buf):
			valid = 64 - used
			ones = uint(bits.LeadingZeros64(^(binary.BigEndian.Uint64(r.buf[pos:]) << used)))
		case pos < len(r.buf):
			valid = 8 - used
			ones = uint(bits.LeadingZeros8(^(r.buf[pos] << used)))
		default:
			return 0, ErrCorrupt
		}
		q += uint64(ones)
		if q > 1<<40 {
			return 0, fmt.Errorf("golomb: unary run too long: %w", ErrCorrupt)
		}
		if ones < valid {
			r.off += int(ones) + 1 // the run and its terminating 0
			return q, nil
		}
		r.off += int(valid)
	}
}

// remainderCode returns the truncated-binary remainder layout for
// parameter m >= 1: b = ceil(log2 m) bits, of which the first
// t = 2^b - m remainders take the short (b-1 bit) form. bits.Len64 keeps
// this total for every m — a header-supplied m above 2^63 gives b = 64,
// where a shift-and-compare loop would never terminate (1<<64 is 0).
func remainderCode(m uint64) (b uint, t uint64) {
	b = uint(bits.Len64(m - 1))
	return b, (uint64(1) << b) - m
}

// Encoder writes Golomb-coded values with a fixed parameter M.
type Encoder struct {
	w BitWriter
	m uint64
	b uint // bits in truncated binary remainder: ceil(log2 m)
	t uint64
}

// NewEncoder returns an encoder with parameter m (m >= 1).
func NewEncoder(m uint64) *Encoder {
	if m < 1 {
		m = 1
	}
	b, t := remainderCode(m)
	return &Encoder{m: m, b: b, t: t}
}

// M returns the Golomb parameter.
func (e *Encoder) M() uint64 { return e.m }

// Put encodes one value.
func (e *Encoder) Put(v uint64) {
	q := v / e.m
	rem := v % e.m
	e.w.WriteUnary(q)
	if e.m == 1 {
		return
	}
	if rem < e.t {
		e.w.WriteBits(rem, e.b-1)
	} else {
		e.w.WriteBits(rem+e.t, e.b)
	}
}

// Bytes returns the encoded stream.
func (e *Encoder) Bytes() []byte { return e.w.Bytes() }

// Bits returns the number of bits written.
func (e *Encoder) Bits() int { return e.w.Bits() }

// Decoder reads Golomb-coded values with a fixed parameter M.
type Decoder struct {
	r *BitReader
	m uint64
	b uint
	t uint64
}

// NewDecoder returns a decoder for stream buf with parameter m.
func NewDecoder(buf []byte, m uint64) *Decoder {
	if m < 1 {
		m = 1
	}
	b, t := remainderCode(m)
	return &Decoder{r: NewBitReader(buf), m: m, b: b, t: t}
}

// Get decodes one value.
func (d *Decoder) Get() (uint64, error) {
	q, err := d.r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if d.m == 1 {
		return q, nil
	}
	var rem uint64
	if d.b > 0 {
		rem, err = d.r.ReadBits(d.b - 1)
		if err != nil {
			return 0, err
		}
		if rem >= d.t {
			bit, err := d.r.ReadBit()
			if err != nil {
				return 0, err
			}
			rem = rem<<1 | uint64(bit)
			rem -= d.t
		}
	}
	if rem >= d.m {
		return 0, ErrCorrupt
	}
	return q*d.m + rem, nil
}

// EncodeAll Golomb-encodes values with parameter m and returns the stream.
func EncodeAll(values []uint64, m uint64) []byte {
	e := NewEncoder(m)
	for _, v := range values {
		e.Put(v)
	}
	return e.Bytes()
}

// fits reports whether n Golomb values can be present in buf: every code
// word ends its unary part with a zero bit, so a value costs at least one
// bit. Decoders check it before sizing their output from an untrusted n.
func fits(buf []byte, n int) bool {
	return n >= 0 && uint64(n) <= 8*uint64(len(buf))
}

// DecodeAll decodes exactly n values from buf with parameter m.
func DecodeAll(buf []byte, m uint64, n int) ([]uint64, error) {
	if !fits(buf, n) {
		return nil, ErrCorrupt
	}
	d := NewDecoder(buf, m)
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		v, err := d.Get()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// EncodeSortedSet delta-encodes a strictly increasing sequence of set
// positions (a Golomb Compressed Set). The first value is stored as-is and
// each subsequent value as the gap minus one from its predecessor.
func EncodeSortedSet(positions []uint64, m uint64) ([]byte, error) {
	e := NewEncoder(m)
	prev := uint64(0)
	for i, p := range positions {
		if i == 0 {
			e.Put(p)
		} else {
			if p <= prev {
				return nil, fmt.Errorf("golomb: positions not strictly increasing at %d (%d after %d)", i, p, prev)
			}
			e.Put(p - prev - 1)
		}
		prev = p
	}
	return e.Bytes(), nil
}

// DecodeSortedSet reverses EncodeSortedSet for n positions. The result is
// strictly increasing: a gap that would wrap past the uint64 range is
// reported as ErrCorrupt.
func DecodeSortedSet(buf []byte, m uint64, n int) ([]uint64, error) {
	if !fits(buf, n) {
		return nil, ErrCorrupt
	}
	d := NewDecoder(buf, m)
	out := make([]uint64, 0, n)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		v, err := d.Get()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			prev = v
		} else {
			if v >= math.MaxUint64-prev {
				return nil, ErrCorrupt
			}
			prev = prev + v + 1
		}
		out = append(out, prev)
	}
	return out, nil
}
