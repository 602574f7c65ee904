package bloom

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/golomb"
)

// TestHybridGoldenBlob pins the blob encoding: the bytes below were
// written by the hash-map Hybrid of PR 15 for the same operations, so an
// index stored before the columns existed opens unchanged and a rebuilt
// one is byte-identical.
func TestHybridGoldenBlob(t *testing.T) {
	const golden = "00000000000100000000000000000060000000000000002400000000000004ee" +
		"00000000000000020000000000000037fffff1106c8d91b23646c8d96154d97f" +
		"fff6503646c8d91b23646c8d940f00b34c02cd301733405ccd1b202e6680b99a" +
		"02e6680b99a02e9249249248b246318c84631880"
	h := NewHybrid(1 << 16)
	var bits []uint64
	for i := 0; i < 100; i++ {
		bits = append(bits, h.Insert(fmt.Sprintf("jv-%d", i%37)))
	}
	built, err := HybridFromBits(1<<16, bits)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Hybrid{h, built} {
		for _, item := range []string{"jv-3", "jv-3", "jv-3", "jv-36"} {
			if !f.Remove(item) {
				t.Fatalf("Remove(%q) = false", item)
			}
		}
		blob, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(blob); got != golden {
			t.Errorf("blob changed:\n got %s\nwant %s", got, golden)
		}
	}
	want, _ := hex.DecodeString(golden)
	dec, err := DecodeHybrid(want)
	if err != nil {
		t.Fatal(err)
	}
	if !equalHybrid(dec, h) {
		t.Errorf("golden blob decodes to %+v, want %+v", dec, h)
	}
}

func TestHybridFromBitsRange(t *testing.T) {
	if _, err := HybridFromBits(64, []uint64{3, 64}); err == nil {
		t.Error("position 64 accepted in a 64-bit filter")
	}
	h, err := HybridFromBits(64, nil)
	if err != nil || h.N() != 0 || h.PopCount() != 0 {
		t.Errorf("empty build: %+v, %v", h, err)
	}
}

func equalHybrid(a, b *Hybrid) bool {
	return a.m == b.m && a.n == b.n && slices.Equal(a.pos, b.pos) && slices.Equal(a.cnt, b.cnt)
}

// mapModel is the reference the column Hybrid is checked against: the
// obvious hash-table form of the same structure.
type mapModel struct {
	m, n     uint64
	counters map[uint64]uint32
}

func (r *mapModel) fold(newM uint64) *mapModel {
	c := &mapModel{m: newM, n: r.n, counters: map[uint64]uint32{}}
	for p, v := range r.counters {
		c.counters[p%newM] += v
	}
	return c
}

func (r *mapModel) setBits() []uint64 {
	out := make([]uint64, 0, len(r.counters))
	for p := range r.counters {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// estimate is Algorithm 7 on the map form.
func (r *mapModel) estimate(o *mapModel) *JoinEstimate {
	var bits []uint64
	var raw uint64
	for p, c := range r.counters {
		if oc, ok := o.counters[p]; ok {
			bits = append(bits, p)
			raw += uint64(c) * uint64(oc)
		}
	}
	if len(bits) == 0 {
		return nil
	}
	slices.Sort(bits)
	alpha := (1 - float64(len(r.counters))/float64(r.m)) * (1 - float64(len(o.counters))/float64(o.m))
	if alpha <= 0 {
		alpha = 1e-9
	}
	card := float64(raw) * alpha
	if card < 1 {
		card = 1
	}
	return &JoinEstimate{Bits: bits, Cardinality: card, RawCardinality: raw, Alpha: alpha}
}

func checkAgainstModel(t *testing.T, step string, h *Hybrid, r *mapModel) {
	t.Helper()
	bits := r.setBits()
	if h.M() != r.m || h.N() != r.n || h.PopCount() != uint64(len(bits)) || !slices.Equal(h.SetBits(), bits) {
		t.Fatalf("%s: filter m=%d n=%d bits=%v, model m=%d n=%d bits=%v",
			step, h.M(), h.N(), h.SetBits(), r.m, r.n, bits)
	}
	for _, p := range bits {
		if h.Counter(p) != r.counters[p] {
			t.Fatalf("%s: Counter(%d) = %d, model %d", step, p, h.Counter(p), r.counters[p])
		}
	}
	for _, p := range []uint64{0, r.m - 1, r.m / 2} {
		if h.Counter(p) != r.counters[p] {
			t.Fatalf("%s: Counter(%d) = %d, model %d", step, p, h.Counter(p), r.counters[p])
		}
	}
}

func checkEstimate(t *testing.T, step string, a, b *Hybrid, ra, rb *mapModel) {
	t.Helper()
	for _, swap := range []bool{false, true} {
		if swap {
			a, b, ra, rb = b, a, rb, ra
		}
		got, err := EstimateJoin(a, b)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		want := ra.estimate(rb)
		if (got == nil) != (want == nil) {
			t.Fatalf("%s (swap=%v): estimate %+v, model %+v", step, swap, got, want)
		}
		if got == nil {
			continue
		}
		if !slices.Equal(got.Bits, want.Bits) || got.RawCardinality != want.RawCardinality ||
			got.Cardinality != want.Cardinality || got.Alpha != want.Alpha {
			t.Fatalf("%s (swap=%v, %d vs %d bits): estimate %+v, model %+v",
				step, swap, a.PopCount(), b.PopCount(), got, want)
		}
	}
}

// TestHybridMatchesMapModel drives the column filter and the map model
// through the same random operations and compares every observable after
// each one. The two filters of a pair draw from overlapping value ranges
// of very different sizes, so their intersections run through both the
// merge and the gallop path, in both argument orders, as the sizes drift
// across gallopRatio.
func TestHybridMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const m = 1 << 12
		a, b := NewHybrid(m), NewHybrid(m)
		ra := &mapModel{m: m, counters: map[uint64]uint32{}}
		rb := &mapModel{m: m, counters: map[uint64]uint32{}}
		sawGallop, sawMerge := false, false
		for step := 0; step < 1500; step++ {
			// a stays small (values from a pool of 40); b starts
			// level with it and grows to hundreds of bits.
			h, r, pool := a, ra, 40
			if rng.Intn(4) != 0 {
				h, r, pool = b, rb, 900
			}
			item := fmt.Sprintf("v%d", rng.Intn(pool))
			name := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(20); {
			case op < 11 || (step < 400 && op < 16):
				pos := h.Insert(item)
				if pos != Hash64String(item)%m {
					t.Fatalf("%s: Insert returned bit %d", name, pos)
				}
				r.counters[pos]++
				r.n++
			case op < 16:
				pos := h.BitPos(item)
				_, had := r.counters[pos]
				if h.Contains(item) != had || h.Remove(item) != had {
					t.Fatalf("%s: Contains/Remove(%q) disagree with model (had=%v)", name, item, had)
				}
				if had {
					if r.counters[pos]--; r.counters[pos] == 0 {
						delete(r.counters, pos)
					}
					r.n--
				}
			case op == 16:
				blob, err := h.Encode()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				dec, err := DecodeHybrid(blob)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !equalHybrid(dec, h) {
					t.Fatalf("%s: round trip %+v != %+v", name, dec, h)
				}
				*h = *dec
			case op == 17:
				c := h.Clone()
				c.Insert("clone-only")
				c.Remove(item)
				checkAgainstModel(t, name+" (after mutating a clone)", h, r)
			default:
				newM := uint64(1) << (3 + rng.Intn(9))
				f, err := h.Fold(newM)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkAgainstModel(t, name+" fold", f, r.fold(newM))
				checkAgainstModel(t, name+" (after folding)", h, r)
			}
			checkAgainstModel(t, name, h, r)
			checkEstimate(t, name, a, b, ra, rb)
			if la, lb := len(ra.counters), len(rb.counters); la > 0 && lb > 0 {
				if max(la, lb) >= gallopRatio*min(la, lb) {
					sawGallop = true
				} else {
					sawMerge = true
				}
			}
		}
		if !sawGallop || !sawMerge {
			t.Errorf("seed %d: gallop exercised=%v merge exercised=%v; want both", seed, sawGallop, sawMerge)
		}
	}
}

// TestIntersectGallopMatchesMerge checks the two intersection paths
// against each other directly on random skewed pairs, including the edge
// shapes a gallop can get wrong: an empty side, everything before or
// after the other side's range, and hits on the first and last position.
func TestIntersectGallopMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	build := func(n int, lo, span uint64) *Hybrid {
		bits := make([]uint64, n)
		for i := range bits {
			bits[i] = lo + uint64(rng.Int63n(int64(span)))
		}
		h, err := HybridFromBits(1<<20, bits)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for trial := 0; trial < 3000; trial++ {
		small := build(rng.Intn(30), uint64(rng.Intn(3000)), uint64(1+rng.Intn(3000)))
		large := build(rng.Intn(700), uint64(rng.Intn(3000)), uint64(1+rng.Intn(3000)))
		if trial%3 == 0 && len(large.pos) > 0 { // force hits at the ends
			small.pos = append([]uint64{}, large.pos[0], large.pos[len(large.pos)-1])
			small.cnt = []uint32{2, 3}
			if len(large.pos) == 1 {
				small.pos, small.cnt = small.pos[:1], small.cnt[:1]
			}
		}
		gb, gr := intersectGallop(small, large)
		mb, mr := intersectMerge(small, large)
		if !slices.Equal(gb, mb) || gr != mr {
			t.Fatalf("trial %d: gallop %v/%d, merge %v/%d\nsmall %v\nlarge %v", trial, gb, gr, mb, mr, small.pos, large.pos)
		}
	}
}

// FuzzDecodeHybrid feeds arbitrary bytes to the blob decoder. It must
// never panic, hang or size an allocation from a header field; whatever
// it accepts satisfies the column invariants and survives a re-encode.
func FuzzDecodeHybrid(f *testing.F) {
	h := NewHybrid(1 << 12)
	for i := 0; i < 40; i++ {
		h.Insert(fmt.Sprintf("s%d", i%25))
	}
	seed, _ := h.Encode()
	f.Add(seed)
	f.Add(seed[:50])
	empty, _ := NewHybrid(64).Encode()
	f.Add(empty)
	f.Add(rawBlob(1<<16, 1, 1<<62, 8, 1, []byte{0}, []byte{0}))
	f.Add(rawBlob(1<<16, 2, 2, 1<<63, 1<<63+9, bytes.Repeat([]byte{0x5a}, 20), bytes.Repeat([]byte{0xa5}, 20)))
	// One bit in a 2^62-bit filter: re-encoding must not pick a unary code.
	f.Add(rawBlob(1<<62, 1, 1, 1<<60, 1, golomb.EncodeAll([]uint64{1<<62 - 1}, 1<<60), []byte{0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHybrid(data)
		if err != nil {
			return
		}
		if len(h.pos) != len(h.cnt) {
			t.Fatalf("columns differ in length: %d positions, %d counters", len(h.pos), len(h.cnt))
		}
		for i, p := range h.pos {
			if p >= h.m || (i > 0 && p <= h.pos[i-1]) || h.cnt[i] == 0 {
				t.Fatalf("column invariant broken at %d: pos %v cnt %v m %d", i, h.pos, h.cnt, h.m)
			}
		}
		blob, err := h.Encode()
		if err != nil {
			t.Fatalf("re-encode of a decoded filter: %v", err)
		}
		again, err := DecodeHybrid(blob)
		if err != nil {
			t.Fatalf("decode of a re-encoded filter: %v", err)
		}
		if !equalHybrid(again, h) {
			t.Fatalf("re-encode round trip: %+v != %+v", again, h)
		}
	})
}

// benchFilter returns a filter with n distinct set bits drawn from items
// "jv<from>".."jv<from+n-1>".
func benchFilter(n, from int) *Hybrid {
	h := NewHybrid(1 << 20)
	for i := 0; i < n; i++ {
		h.Insert(fmt.Sprintf("jv%d", from+i))
	}
	return h
}

// BenchmarkEstimateJoinSkewed is the TPC-H Q1 shape: a `part` bucket of
// ~20 bits against a `lineitem` bucket of ~600, a third of them shared.
func BenchmarkEstimateJoinSkewed(b *testing.B) {
	small, large := benchFilter(20, 0), benchFilter(600, 13)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := EstimateJoin(small, large); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeHybrid(b *testing.B) {
	blob, err := benchFilter(500, 0).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeHybrid(blob); err != nil {
			b.Fatal(err)
		}
	}
}
