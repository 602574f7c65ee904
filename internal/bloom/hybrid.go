package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/golomb"
)

var errTruncated = errors.New("bloom: truncated encoding")

// Hybrid is the paper's fusion of a single-hash-function Bloom filter with
// a counting Bloom filter (Fig. 4): the set bits of an m-bit membership
// bitmap and one counter per set bit, held as two parallel columns sorted
// by bit position. That is the shape the stored blob already has — Encode
// writes the positions as a Golomb Compressed Set, which is a sorted
// sequence of gaps, and the counters in the same order — so DecodeHybrid
// yields the columns directly, and intersecting two filters (Algorithm 7)
// is an ordered merge whose output is sorted without a sort.
//
// Because a single hash function is used, an item's join-value maps to
// exactly one bit, so the counter at that bit is the (collision-inflated)
// number of tuples with join values hashing there. The product of two
// filters' counters at a common bit estimates the join cardinality
// contributed by that bit (Algorithm 7).
type Hybrid struct {
	m   uint64
	n   uint64   // total insertions (non-distinct)
	pos []uint64 // set bit positions, strictly increasing, each < m
	cnt []uint32 // cnt[i] >= 1: items inserted at pos[i]
}

// NewHybrid creates a hybrid filter with an m-bit logical bitmap.
func NewHybrid(m uint64) *Hybrid {
	if m < 1 {
		m = 1
	}
	return &Hybrid{m: m}
}

// HybridFromBits builds the filter an Insert per element of bits would:
// each element is the bit position (see BitPos) of one inserted item,
// duplicates included. The index build uses it to make a bucket's filter
// in one sort — Insert shifts the columns, which is meant for the few
// mutation records replayed over a decoded bucket, not for a bucket's
// whole population. The filter takes ownership of bits.
func HybridFromBits(m uint64, bits []uint64) (*Hybrid, error) {
	h := NewHybrid(m)
	slices.Sort(bits)
	if len(bits) > 0 && bits[len(bits)-1] >= h.m {
		return nil, fmt.Errorf("bloom: bit position %d out of range %d", bits[len(bits)-1], h.m)
	}
	h.n = uint64(len(bits))
	h.pos = bits
	h.cnt = make([]uint32, len(bits))
	for i := range h.cnt {
		h.cnt[i] = 1
	}
	h.coalesce()
	return h, nil
}

// coalesce merges runs of equal positions in position-sorted columns,
// summing their counters, which restores the strictly-increasing
// invariant.
func (h *Hybrid) coalesce() {
	w := 0
	for r := range h.pos {
		if w > 0 && h.pos[w-1] == h.pos[r] {
			h.cnt[w-1] += h.cnt[r]
			continue
		}
		h.pos[w], h.cnt[w] = h.pos[r], h.cnt[r]
		w++
	}
	h.pos, h.cnt = h.pos[:w], h.cnt[:w]
}

// M returns the logical bitmap width in bits.
func (h *Hybrid) M() uint64 { return h.m }

// N returns the number of items inserted (including duplicates).
func (h *Hybrid) N() uint64 { return h.n }

// BitPos returns the bit position item maps to.
func (h *Hybrid) BitPos(item string) uint64 {
	return Hash64String(item) % h.m
}

// find returns the column index of bit position pos, or where it would be
// inserted.
func (h *Hybrid) find(pos uint64) (int, bool) {
	return slices.BinarySearch(h.pos, pos)
}

// Insert adds an item and returns the bit position it mapped to, which the
// BFHM index build records as the reverse-mapping key (Algorithm 5).
func (h *Hybrid) Insert(item string) uint64 {
	pos := h.BitPos(item)
	i, ok := h.find(pos)
	if ok {
		h.cnt[i]++
	} else {
		h.pos = slices.Insert(h.pos, i, pos)
		h.cnt = slices.Insert(h.cnt, i, 1)
	}
	h.n++
	return pos
}

// Remove decrements the counter for item's bit. It reports whether the
// counter existed; removing below zero is a no-op that returns false.
func (h *Hybrid) Remove(item string) bool {
	i, ok := h.find(h.BitPos(item))
	if !ok {
		return false
	}
	if h.cnt[i] <= 1 {
		h.pos = slices.Delete(h.pos, i, i+1)
		h.cnt = slices.Delete(h.cnt, i, i+1)
	} else {
		h.cnt[i]--
	}
	h.n--
	return true
}

// Contains reports whether some inserted item maps to item's bit.
func (h *Hybrid) Contains(item string) bool {
	_, ok := h.find(h.BitPos(item))
	return ok
}

// Counter returns the counter at bit position pos (0 if unset).
func (h *Hybrid) Counter(pos uint64) uint32 {
	if i, ok := h.find(pos); ok {
		return h.cnt[i]
	}
	return 0
}

// SetBits returns the sorted non-zero bit positions.
func (h *Hybrid) SetBits() []uint64 { return slices.Clone(h.pos) }

// PopCount returns the number of distinct set bits.
func (h *Hybrid) PopCount() uint64 { return uint64(len(h.pos)) }

// PT returns the probability that an arbitrary bit is set after the
// observed insertions: PT = 1 - (1 - 1/m)^n for the single-hash filter
// (Section 5.3). It is computed from the actual fill when available,
// which is exact rather than probabilistic.
func (h *Hybrid) PT() float64 {
	if h.m == 0 {
		return 0
	}
	return float64(len(h.pos)) / float64(h.m)
}

// JoinEstimate holds the outcome of intersecting two hybrid filters.
type JoinEstimate struct {
	// Bits lists the bit positions set in both filters, sorted.
	Bits []uint64
	// Cardinality is the compensated join size estimate:
	// sum over common bits of cA*cB, scaled by Alpha.
	Cardinality float64
	// RawCardinality is the uncompensated sum of counter products.
	RawCardinality uint64
	// Alpha is the false-positive compensation factor
	// (1-PT_A)*(1-PT_B) from Section 5.3.
	Alpha float64
}

// gallopRatio is the size skew from which EstimateJoin stops stepping
// through the larger filter one position at a time and gallops instead.
// A merge costs |small|+|large| comparisons, a gallop about
// 2*|small|*log2(|large|/|small|) less predictable ones. Measured on this
// package's benchmark filters the two are level at 1:4 (20 vs 80 bits,
// 100 vs 400), the gallop is 1.5x faster at 1:8 and 1.8x at the TPC-H Q1
// shape of 20 vs 600.
const gallopRatio = 8

// EstimateJoin intersects two hybrid filters (they must share m) and
// returns the join-size estimate of Algorithm 7, or nil when the
// intersection is empty.
func EstimateJoin(a, b *Hybrid) (*JoinEstimate, error) {
	if a.m != b.m {
		return nil, fmt.Errorf("bloom: mismatched filter sizes %d vs %d", a.m, b.m)
	}
	small, large := a, b
	if len(b.pos) < len(a.pos) {
		small, large = b, a
	}
	var bits []uint64
	var raw uint64
	if len(large.pos) >= gallopRatio*len(small.pos) {
		bits, raw = intersectGallop(small, large)
	} else {
		bits, raw = intersectMerge(small, large)
	}
	if len(bits) == 0 {
		return nil, nil
	}
	alpha := (1 - a.PT()) * (1 - b.PT())
	if alpha <= 0 {
		alpha = 1e-9
	}
	card := float64(raw) * alpha
	if card < 1 {
		// An intersection with at least one common bit represents at
		// least a potential result; never round the estimate to zero.
		card = 1
	}
	return &JoinEstimate{Bits: bits, Cardinality: card, RawCardinality: raw, Alpha: alpha}, nil
}

// intersectMerge walks both sorted position columns in step and returns
// the common positions, in order, with the sum of their counter products.
func intersectMerge(a, b *Hybrid) (bits []uint64, raw uint64) {
	i, j := 0, 0
	for i < len(a.pos) && j < len(b.pos) {
		pa, pb := a.pos[i], b.pos[j]
		switch {
		case pa < pb:
			i++
		case pa > pb:
			j++
		default:
			bits = append(bits, pa)
			raw += uint64(a.cnt[i]) * uint64(b.cnt[j])
			i++
			j++
		}
	}
	return bits, raw
}

// intersectGallop is intersectMerge for a small filter against a much
// larger one: for each of small's positions it advances through large by
// doubling steps from where the previous search ended, then binary-
// searches the bracketed window, so runs of large's positions between two
// of small's are skipped in logarithmic time.
func intersectGallop(small, large *Hybrid) (bits []uint64, raw uint64) {
	lp := large.pos
	j := 0
	for i, p := range small.pos {
		// Bracket: lp[j:lo] < p, and lp[hi] >= p or hi == len(lp).
		lo, step := j, 1
		hi := lo
		for hi < len(lp) && lp[hi] < p {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(lp) {
			hi = len(lp)
		}
		k, _ := slices.BinarySearch(lp[lo:hi], p)
		j = lo + k
		if j == len(lp) {
			break
		}
		if lp[j] == p {
			bits = append(bits, p)
			raw += uint64(small.cnt[i]) * uint64(large.cnt[j])
			j++
		}
	}
	return bits, raw
}

// Encode serializes the hybrid filter as the paper's bucket "blob":
// a small header, the Golomb-compressed sorted bit positions (GCS), and
// the Golomb-compressed counters minus one (counters are >= 1 by
// construction). The Golomb parameters are chosen from the observed
// densities and stored in the header.
func (h *Hybrid) Encode() ([]byte, error) {
	nbits := uint64(len(h.pos))
	// Gap distribution parameter: p = nbits/m.
	mposParam := golomb.OptimalM(float64(nbits) / float64(h.m))
	posBuf, err := golomb.EncodeSortedSet(h.pos, mposParam)
	if err != nil {
		return nil, err
	}
	// Counter distribution parameter: mean counter value.
	var sum uint64
	for _, c := range h.cnt {
		sum += uint64(c)
	}
	cntParam := uint64(1)
	if nbits > 0 {
		mean := float64(sum) / float64(nbits)
		if mean > 1 {
			cntParam = golomb.OptimalM(1 / mean)
		}
	}
	enc := golomb.NewEncoder(cntParam)
	for _, c := range h.cnt {
		enc.Put(uint64(c) - 1)
	}
	cntBuf := enc.Bytes()

	out := make([]byte, 0, 48+len(posBuf)+len(cntBuf))
	var hdr [48]byte
	binary.BigEndian.PutUint64(hdr[0:8], h.m)
	binary.BigEndian.PutUint64(hdr[8:16], h.n)
	binary.BigEndian.PutUint64(hdr[16:24], nbits)
	binary.BigEndian.PutUint64(hdr[24:32], mposParam)
	binary.BigEndian.PutUint64(hdr[32:40], cntParam)
	binary.BigEndian.PutUint64(hdr[40:48], uint64(len(posBuf)))
	out = append(out, hdr[:]...)
	out = append(out, posBuf...)
	out = append(out, cntBuf...)
	return out, nil
}

// DecodeHybrid reverses Encode. The decoded Golomb streams are the
// filter's columns, so everything the rest of the type relies on is
// checked here: the position count fits the width and the bytes present,
// positions are strictly increasing and below m, counters fit uint32.
func DecodeHybrid(data []byte) (*Hybrid, error) {
	if len(data) < 48 {
		return nil, errTruncated
	}
	m := binary.BigEndian.Uint64(data[0:8])
	n := binary.BigEndian.Uint64(data[8:16])
	nbits := binary.BigEndian.Uint64(data[16:24])
	mposParam := binary.BigEndian.Uint64(data[24:32])
	cntParam := binary.BigEndian.Uint64(data[32:40])
	posLen := binary.BigEndian.Uint64(data[40:48])
	if posLen > uint64(len(data))-48 {
		return nil, errTruncated
	}
	posBuf, cntBuf := data[48:48+posLen], data[48+posLen:]
	h := NewHybrid(m)
	h.n = n
	// nbits sizes both columns: bound it before anything is allocated.
	// The set cannot have more positions than the filter has bits, and
	// a Golomb value costs at least one bit of its stream.
	if nbits > h.m || nbits > 8*uint64(len(cntBuf)) {
		return nil, fmt.Errorf("bloom: %d set bits cannot fit width %d and %d counter bytes: %w",
			nbits, h.m, len(cntBuf), golomb.ErrCorrupt)
	}
	pos, err := golomb.DecodeSortedSet(posBuf, mposParam, int(nbits))
	if err != nil {
		return nil, fmt.Errorf("bloom: decoding positions: %w", err)
	}
	// DecodeSortedSet guarantees strictly increasing, so the last
	// position bounds them all.
	if len(pos) > 0 && pos[len(pos)-1] >= h.m {
		return nil, fmt.Errorf("bloom: bit position %d out of range %d", pos[len(pos)-1], h.m)
	}
	h.pos = pos
	h.cnt = make([]uint32, nbits)
	d := golomb.NewDecoder(cntBuf, cntParam)
	for i := range h.cnt {
		c, err := d.Get()
		if err != nil {
			return nil, fmt.Errorf("bloom: decoding counters: %w", err)
		}
		if c >= math.MaxUint32 {
			return nil, fmt.Errorf("bloom: counter %d at bit %d overflows: %w", c, pos[i], golomb.ErrCorrupt)
		}
		h.cnt[i] = uint32(c) + 1
	}
	return h, nil
}

// Clone returns a deep copy.
func (h *Hybrid) Clone() *Hybrid {
	return &Hybrid{m: h.m, n: h.n, pos: slices.Clone(h.pos), cnt: slices.Clone(h.cnt)}
}
