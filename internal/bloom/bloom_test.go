package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/golomb"
)

func TestFilterNoFalseNegatives(t *testing.T) {
	f := NewFilter(1<<12, 3)
	var items [][]byte
	for i := 0; i < 200; i++ {
		items = append(items, []byte(fmt.Sprintf("item-%d", i)))
	}
	for _, it := range items {
		f.Add(it)
	}
	for _, it := range items {
		if !f.Contains(it) {
			t.Fatalf("false negative for %q", it)
		}
	}
}

func TestFilterFalsePositiveRate(t *testing.T) {
	n := uint64(1000)
	m, k := OptimalParams(n, 0.01)
	f := NewFilter(m, k)
	for i := uint64(0); i < n; i++ {
		f.Add([]byte(fmt.Sprintf("present-%d", i)))
	}
	fp := 0
	trials := 10000
	for i := 0; i < trials; i++ {
		if f.Contains([]byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	rate := float64(fp) / float64(trials)
	if rate > 0.03 {
		t.Errorf("false positive rate %.4f exceeds 3x the 1%% target", rate)
	}
}

func TestOptimalParams(t *testing.T) {
	m, k := OptimalParams(1000, 0.01)
	if m < 9000 || m > 10000 {
		t.Errorf("m = %d, want ~9585 for n=1000 fpp=0.01", m)
	}
	if k < 6 || k > 8 {
		t.Errorf("k = %d, want ~7", k)
	}
	// Degenerate inputs must not panic or return zeros.
	m, k = OptimalParams(0, 0)
	if m == 0 || k == 0 {
		t.Error("degenerate params returned zero sizes")
	}
}

func TestSingleHashBits(t *testing.T) {
	// With m bits sized for fpp=0.05 at n items, a single-hash filter's
	// fill must be ~5%.
	n := uint64(2000)
	m := SingleHashBits(n, 0.05)
	// m should be around n/0.0513 ~ 39000
	if m < 30000 || m > 50000 {
		t.Errorf("SingleHashBits(2000, 0.05) = %d, want ~39000", m)
	}
	h := NewHybrid(m)
	for i := uint64(0); i < n; i++ {
		h.Insert(fmt.Sprintf("jv-%d", i))
	}
	if pt := h.PT(); pt > 0.07 {
		t.Errorf("fill %.4f exceeds target 0.05 by too much", pt)
	}
}

func TestFilterMarshalRoundTrip(t *testing.T) {
	f := NewFilter(1<<10, 4)
	for i := 0; i < 100; i++ {
		f.Add([]byte(fmt.Sprintf("x%d", i)))
	}
	buf, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Filter
	if err := g.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if g.M() != f.M() || g.K() != f.K() || g.N() != f.N() {
		t.Fatalf("header mismatch after round trip: %d/%d/%d vs %d/%d/%d",
			g.M(), g.K(), g.N(), f.M(), f.K(), f.N())
	}
	for i := 0; i < 100; i++ {
		if !g.Contains([]byte(fmt.Sprintf("x%d", i))) {
			t.Fatalf("false negative after round trip")
		}
	}
	if err := g.UnmarshalBinary(buf[:10]); err == nil {
		t.Error("truncated decode should fail")
	}
}

func TestHybridInsertRemove(t *testing.T) {
	h := NewHybrid(1 << 16)
	p1 := h.Insert("a")
	p2 := h.Insert("a")
	if p1 != p2 {
		t.Fatal("same item must map to same bit")
	}
	if h.Counter(p1) != 2 {
		t.Fatalf("counter = %d, want 2", h.Counter(p1))
	}
	if !h.Contains("a") {
		t.Fatal("Contains after insert = false")
	}
	if !h.Remove("a") {
		t.Fatal("Remove returned false")
	}
	if h.Counter(p1) != 1 {
		t.Fatalf("counter after remove = %d, want 1", h.Counter(p1))
	}
	if !h.Remove("a") {
		t.Fatal("second Remove returned false")
	}
	if h.Contains("a") {
		t.Fatal("Contains after full removal = true")
	}
	if h.Remove("a") {
		t.Fatal("Remove of absent item returned true")
	}
}

func TestHybridSetBitsSorted(t *testing.T) {
	h := NewHybrid(1 << 20)
	for i := 0; i < 500; i++ {
		h.Insert(fmt.Sprintf("key-%d", i))
	}
	bits := h.SetBits()
	for i := 1; i < len(bits); i++ {
		if bits[i] <= bits[i-1] {
			t.Fatalf("SetBits not strictly increasing at %d", i)
		}
	}
	if h.PopCount() != uint64(len(bits)) {
		t.Fatalf("PopCount %d != len(SetBits) %d", h.PopCount(), len(bits))
	}
}

func TestHybridEncodeDecodeRoundTrip(t *testing.T) {
	h := NewHybrid(100000)
	for i := 0; i < 700; i++ {
		h.Insert(fmt.Sprintf("join-value-%d", i%311)) // duplicates force counters > 1
	}
	blob, err := h.Encode()
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeHybrid(blob)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != h.M() || g.N() != h.N() || g.PopCount() != h.PopCount() {
		t.Fatalf("header mismatch: m %d/%d n %d/%d pop %d/%d",
			g.M(), h.M(), g.N(), h.N(), g.PopCount(), h.PopCount())
	}
	for _, p := range h.SetBits() {
		if g.Counter(p) != h.Counter(p) {
			t.Fatalf("counter mismatch at %d: %d vs %d", p, g.Counter(p), h.Counter(p))
		}
	}
}

func TestHybridEncodeEmpty(t *testing.T) {
	h := NewHybrid(4096)
	blob, err := h.Encode()
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeHybrid(blob)
	if err != nil {
		t.Fatal(err)
	}
	if g.PopCount() != 0 || g.N() != 0 {
		t.Fatal("empty filter should round-trip empty")
	}
}

func TestHybridCompression(t *testing.T) {
	// 500 distinct join values in a 1M-bit filter: raw bitmap would be
	// 125 kB; the blob must be a few kB at most.
	h := NewHybrid(1 << 20)
	for i := 0; i < 500; i++ {
		h.Insert(fmt.Sprintf("jv%d", i))
	}
	blob, err := h.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 4096 {
		t.Errorf("blob is %d bytes; expected < 4 kB for 500 sparse bits", len(blob))
	}
}

func TestEstimateJoinExactWhenNoCollisions(t *testing.T) {
	// Large m => no collisions => raw estimate is exactly the join size.
	a := NewHybrid(1 << 24)
	b := NewHybrid(1 << 24)
	// 3 common join values; multiplicities 2x3, 1x4, 5x1; plus noise.
	for i := 0; i < 2; i++ {
		a.Insert("common-1")
	}
	for i := 0; i < 3; i++ {
		b.Insert("common-1")
	}
	a.Insert("common-2")
	for i := 0; i < 4; i++ {
		b.Insert("common-2")
	}
	for i := 0; i < 5; i++ {
		a.Insert("common-3")
	}
	b.Insert("common-3")
	a.Insert("only-a")
	b.Insert("only-b")
	est, err := EstimateJoin(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if est == nil {
		t.Fatal("estimate is nil for overlapping filters")
	}
	want := uint64(2*3 + 1*4 + 5*1)
	if est.RawCardinality != want {
		t.Fatalf("raw cardinality = %d, want %d", est.RawCardinality, want)
	}
	if len(est.Bits) != 3 {
		t.Fatalf("common bits = %d, want 3", len(est.Bits))
	}
	if est.Alpha <= 0.99 {
		t.Errorf("alpha = %f, want ~1 for sparse filters", est.Alpha)
	}
}

func TestEstimateJoinDisjoint(t *testing.T) {
	a := NewHybrid(1 << 20)
	b := NewHybrid(1 << 20)
	a.Insert("x")
	b.Insert("y")
	est, err := EstimateJoin(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if est != nil {
		t.Fatal("disjoint filters should estimate nil")
	}
}

func TestEstimateJoinSizeMismatch(t *testing.T) {
	a := NewHybrid(64)
	b := NewHybrid(128)
	if _, err := EstimateJoin(a, b); err == nil {
		t.Fatal("mismatched sizes must error")
	}
}

func TestEstimateJoinNeverUnderestimatesUnderCollisions(t *testing.T) {
	// Lemma 1: the intersected filter represents a superset of the true
	// join; raw counter products can only overestimate.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := uint64(256) // small filter to force collisions
		a := NewHybrid(m)
		b := NewHybrid(m)
		countA := map[string]int{}
		countB := map[string]int{}
		for i := 0; i < 300; i++ {
			v := fmt.Sprintf("v%d", rng.Intn(80))
			a.Insert(v)
			countA[v]++
		}
		for i := 0; i < 300; i++ {
			v := fmt.Sprintf("v%d", rng.Intn(80))
			b.Insert(v)
			countB[v]++
		}
		trueJoin := uint64(0)
		for v, ca := range countA {
			trueJoin += uint64(ca * countB[v])
		}
		est, err := EstimateJoin(a, b)
		if err != nil {
			t.Fatal(err)
		}
		var raw uint64
		if est != nil {
			raw = est.RawCardinality
		}
		if raw < trueJoin {
			t.Fatalf("trial %d: raw estimate %d below true join size %d (violates Lemma 1)",
				trial, raw, trueJoin)
		}
	}
}

func TestHybridPTMonotone(t *testing.T) {
	h := NewHybrid(1 << 12)
	prev := h.PT()
	for i := 0; i < 1000; i++ {
		h.Insert(fmt.Sprintf("it%d", i))
		pt := h.PT()
		if pt < prev {
			t.Fatal("PT decreased on insert")
		}
		prev = pt
	}
}

func TestHybridCloneIndependent(t *testing.T) {
	h := NewHybrid(1 << 10)
	h.Insert("a")
	c := h.Clone()
	c.Insert("b")
	if h.Contains("b") {
		t.Fatal("mutating clone affected original")
	}
	if !c.Contains("a") {
		t.Fatal("clone lost original contents")
	}
}

func TestHybridRoundTripProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		h := NewHybrid(1 << 18)
		for _, k := range keys {
			h.Insert(fmt.Sprintf("k%d", k))
		}
		blob, err := h.Encode()
		if err != nil {
			return false
		}
		g, err := DecodeHybrid(blob)
		if err != nil {
			return false
		}
		if g.PopCount() != h.PopCount() || g.N() != h.N() {
			return false
		}
		for _, p := range h.SetBits() {
			if g.Counter(p) != h.Counter(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// rawBlob assembles a hybrid blob from hand-chosen header fields and
// Golomb streams, for the decode cases Encode never produces.
func rawBlob(m, n, nbits, posParam, cntParam uint64, posBuf, cntBuf []byte) []byte {
	blob := make([]byte, 48, 48+len(posBuf)+len(cntBuf))
	for i, v := range []uint64{m, n, nbits, posParam, cntParam, uint64(len(posBuf))} {
		binary.BigEndian.PutUint64(blob[8*i:], v)
	}
	return append(append(blob, posBuf...), cntBuf...)
}

func TestDecodeHybridCorrupt(t *testing.T) {
	if _, err := DecodeHybrid([]byte{1, 2, 3}); err == nil {
		t.Error("short blob must fail")
	}
	h := NewHybrid(1024)
	h.Insert("a")
	blob, _ := h.Encode()
	if _, err := DecodeHybrid(blob[:len(blob)-1]); err == nil {
		// Truncation may still decode if the last byte was padding;
		// chop harder.
		if _, err := DecodeHybrid(blob[:49]); err == nil {
			t.Error("badly truncated blob must fail")
		}
	}

	const big = uint64(1) << 63
	ones := func(n int) []uint64 { return make([]uint64, n) } // n counters of 1
	lenWraps := rawBlob(1<<16, 0, 0, 8, 1, nil, nil)
	binary.BigEndian.PutUint64(lenWraps[40:], math.MaxUint64-15) // 48+posLen wraps to 32
	cases := []struct {
		name string
		blob []byte
	}{
		// The header's set-bit count sizes the decoded columns. These
		// used to reach make() unchecked: a panic at 1<<62, the
		// process killed for memory at 1<<40.
		{"nbits 1<<62", rawBlob(1<<16, 1, 1<<62, 8, 1, []byte{0}, []byte{0})},
		{"nbits 1<<40", rawBlob(1<<16, 1, 1<<40, 8, 1, []byte{0}, []byte{0})},
		{"nbits 1<<63", rawBlob(1<<16, 1, 1<<63, 8, 1, []byte{0}, []byte{0})},
		{"more set bits than bits", rawBlob(4, 8, 5, 1, 1, []byte{0}, []byte{0})},
		{"more set bits than counter bits", rawBlob(1<<16, 9, 9, 1, 1, []byte{0, 0}, []byte{0})},
		{"position length wraps", lenWraps},
		// A gap that wraps the running position: 5, then +2^64-4+1 = 2.
		{"positions wrap to smaller", rawBlob(1<<16, 2, 2, big, 1,
			golomb.EncodeAll([]uint64{5, math.MaxUint64 - 3}, big), golomb.EncodeAll(ones(2), 1))},
		// ... or back onto itself: the map form kept one of the two.
		{"positions wrap to duplicate", rawBlob(1<<16, 2, 2, big, 1,
			golomb.EncodeAll([]uint64{5, math.MaxUint64}, big), golomb.EncodeAll(ones(2), 1))},
		{"position beyond width", rawBlob(1<<16, 2, 2, 8, 1,
			golomb.EncodeAll([]uint64{5, 1 << 16}, 8), golomb.EncodeAll(ones(2), 1))},
		// Stored counter-minus-one of 2^32-1 wrapped to a zero counter
		// on a set bit; 2^32 truncated to a counter of 1.
		{"counter wraps to zero", rawBlob(1<<16, 1, 1, 8, 1<<31,
			golomb.EncodeAll([]uint64{5}, 8), golomb.EncodeAll([]uint64{math.MaxUint32}, 1<<31))},
		{"counter truncated", rawBlob(1<<16, 1, 1, 8, 1<<31,
			golomb.EncodeAll([]uint64{5}, 8), golomb.EncodeAll([]uint64{1 << 32}, 1<<31))},
	}
	for _, tc := range cases {
		if f, err := DecodeHybrid(tc.blob); err == nil {
			t.Errorf("%s: decoded to a filter (n=%d popcount=%d bits=%v)", tc.name, f.N(), f.PopCount(), f.SetBits())
		}
	}
	// The largest counter that fits still decodes.
	ok := rawBlob(1<<16, math.MaxUint32, 1, 8, 1<<31,
		golomb.EncodeAll([]uint64{5}, 8), golomb.EncodeAll([]uint64{math.MaxUint32 - 1}, 1<<31))
	if f, err := DecodeHybrid(ok); err != nil || f.Counter(5) != math.MaxUint32 {
		t.Errorf("counter 2^32-1: %v, %v", f, err)
	}
}

func BenchmarkHybridInsert(b *testing.B) {
	h := NewHybrid(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Insert("key-12345")
	}
}

func BenchmarkHybridEncode500(b *testing.B) {
	h := NewHybrid(1 << 20)
	for i := 0; i < 500; i++ {
		h.Insert(fmt.Sprintf("jv%d", i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateJoin(b *testing.B) {
	a := NewHybrid(1 << 20)
	c := NewHybrid(1 << 20)
	for i := 0; i < 500; i++ {
		a.Insert(fmt.Sprintf("jv%d", i))
		c.Insert(fmt.Sprintf("jv%d", i+250))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateJoin(a, c); err != nil {
			b.Fatal(err)
		}
	}
}
