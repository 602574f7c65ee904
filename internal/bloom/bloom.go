// Package bloom implements the Bloom-filter family used by the BFHM index
// (Section 5.1 of the paper): a classic k-hash Bloom filter, a counting
// Bloom filter, and the paper's hybrid structure fusing a single-hash-
// function Bloom filter with per-bit counters, both Golomb-coded for
// storage ("Golomb Compressed Set" + counting filter fusion).
//
// Single-hash filters keep the join-size estimation math simple (the
// count of items mapping to a bit is exactly the counter value, up to hash
// collisions) but need very large bitmaps for a usable false-positive rate,
// which is why compression is an integral part of the design.
//
// In memory the hybrid filter is what its blob is: the set bit positions
// in increasing order and, beside them, their counters. A Golomb
// Compressed Set is a sorted sequence of gaps, so decoding produces that
// form with no further work, and the query-time operation on two filters
// (Algorithm 7: intersect the bitmaps, multiply the counters at common
// bits) is a merge of two sorted columns that emits its common bits
// already in order. A hash table from bit to counter would make updates
// O(1) but pay a scatter on every decode and a sort on every
// intersection, and a query updates a filter only for the handful of
// Section 6 mutation records it replays per bucket.
package bloom

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Hash64 hashes a byte string to a uint64 using FNV-1a. All filters in
// this package derive their bit positions from this hash so that an item
// maps to the same position in every filter of the same size.
func Hash64(item []byte) uint64 {
	h := fnv.New64a()
	h.Write(item)
	return h.Sum64()
}

// Hash64String is Hash64 for strings without forcing an allocation at the
// call sites that already have strings.
func Hash64String(item string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(item))
	return h.Sum64()
}

// derive produces the i'th hash for double hashing: h1 + i*h2 (Kirsch-
// Mitzenmacher), with h2 forced odd so it is coprime with power-of-two m.
func derive(h uint64, i uint64) uint64 {
	h1 := h & 0xffffffff
	h2 := (h >> 32) | 1
	return h1 + i*h2
}

// Filter is a classic Bloom filter with nhash hash functions over an
// m-bit array.
type Filter struct {
	bits  []uint64
	m     uint64
	nhash int
	n     uint64 // items inserted
}

// NewFilter creates a Bloom filter with m bits (rounded up to a multiple
// of 64) and nhash hash functions.
func NewFilter(m uint64, nhash int) *Filter {
	if m < 64 {
		m = 64
	}
	if nhash < 1 {
		nhash = 1
	}
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: words * 64, nhash: nhash}
}

// OptimalParams returns the bit count m and hash count k minimizing the
// false positive probability fpp for n expected items.
func OptimalParams(n uint64, fpp float64) (m uint64, nhash int) {
	if n == 0 {
		n = 1
	}
	if fpp <= 0 {
		fpp = 1e-9
	}
	if fpp >= 1 {
		fpp = 0.99
	}
	mf := -float64(n) * math.Log(fpp) / (math.Ln2 * math.Ln2)
	kf := math.Round(mf / float64(n) * math.Ln2)
	if kf < 1 {
		kf = 1
	}
	return uint64(math.Ceil(mf)), int(kf)
}

// SingleHashBits returns the number of bits a single-hash (k=1) Bloom
// filter needs for n items at false-positive probability fpp:
// fpp = 1 - (1-1/m)^n  =>  m = 1 / (1 - (1-fpp)^(1/n)).
func SingleHashBits(n uint64, fpp float64) uint64 {
	if n == 0 {
		n = 1
	}
	if fpp <= 0 {
		fpp = 1e-9
	}
	if fpp >= 1 {
		fpp = 0.99
	}
	m := 1 / (1 - math.Pow(1-fpp, 1/float64(n)))
	if math.IsInf(m, 0) || m < 64 {
		m = 64
	}
	return uint64(math.Ceil(m))
}

// M returns the filter's bit count.
func (f *Filter) M() uint64 { return f.m }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.nhash }

// N returns the number of Add calls.
func (f *Filter) N() uint64 { return f.n }

// Add inserts an item.
func (f *Filter) Add(item []byte) {
	f.addHash(Hash64(item))
}

// AddString inserts a string item without forcing a []byte conversion.
func (f *Filter) AddString(item string) {
	f.addHash(Hash64String(item))
}

func (f *Filter) addHash(h uint64) {
	for i := 0; i < f.nhash; i++ {
		pos := derive(h, uint64(i)) % f.m
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.n++
}

// Contains reports whether item may be in the set (no false negatives).
func (f *Filter) Contains(item []byte) bool {
	return f.containsHash(Hash64(item))
}

// ContainsString is Contains for strings without forcing an allocation.
func (f *Filter) ContainsString(item string) bool {
	return f.containsHash(Hash64String(item))
}

func (f *Filter) containsHash(h uint64) bool {
	for i := 0; i < f.nhash; i++ {
		pos := derive(h, uint64(i)) % f.m
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits.
func (f *Filter) PopCount() uint64 {
	var c uint64
	for _, w := range f.bits {
		c += uint64(popcount(w))
	}
	return c
}

// FPP returns the effective false-positive probability given the current
// fill: (popcount/m)^k.
func (f *Filter) FPP() float64 {
	fill := float64(f.PopCount()) / float64(f.m)
	return math.Pow(fill, float64(f.nhash))
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// MarshalBinary encodes the filter (header + raw bitmap words).
func (f *Filter) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 24+len(f.bits)*8)
	var hdr [24]byte
	binary.BigEndian.PutUint64(hdr[0:8], f.m)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(f.nhash))
	binary.BigEndian.PutUint64(hdr[16:24], f.n)
	buf = append(buf, hdr[:]...)
	var w [8]byte
	for _, word := range f.bits {
		binary.BigEndian.PutUint64(w[:], word)
		buf = append(buf, w[:]...)
	}
	return buf, nil
}

// UnmarshalBinary decodes a filter written by MarshalBinary.
func (f *Filter) UnmarshalBinary(data []byte) error {
	if len(data) < 24 {
		return errTruncated
	}
	f.m = binary.BigEndian.Uint64(data[0:8])
	f.nhash = int(binary.BigEndian.Uint64(data[8:16]))
	f.n = binary.BigEndian.Uint64(data[16:24])
	words := int(f.m / 64)
	if len(data) < 24+words*8 {
		return errTruncated
	}
	f.bits = make([]uint64, words)
	for i := 0; i < words; i++ {
		f.bits[i] = binary.BigEndian.Uint64(data[24+i*8 : 32+i*8])
	}
	return nil
}
