package golomb

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	var w BitWriter
	bits := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range bits {
		w.WriteBit(b)
	}
	if got := w.Bits(); got != len(bits) {
		t.Fatalf("Bits() = %d, want %d", got, len(bits))
	}
	r := NewBitReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestBitWriterWriteBits(t *testing.T) {
	var w BitWriter
	w.WriteBits(0b1011, 4)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 3)
	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Errorf("first field = %b, want 1011", v)
	}
	if v, _ := r.ReadBits(8); v != 0xFF {
		t.Errorf("second field = %x, want ff", v)
	}
	if v, _ := r.ReadBits(3); v != 0 {
		t.Errorf("third field = %b, want 0", v)
	}
}

func TestUnary(t *testing.T) {
	var w BitWriter
	for q := uint64(0); q < 20; q++ {
		w.WriteUnary(q)
	}
	r := NewBitReader(w.Bytes())
	for q := uint64(0); q < 20; q++ {
		got, err := r.ReadUnary()
		if err != nil {
			t.Fatalf("ReadUnary(%d): %v", q, err)
		}
		if got != q {
			t.Fatalf("ReadUnary = %d, want %d", got, q)
		}
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewBitReader(nil)
	if _, err := r.ReadBit(); err == nil {
		t.Error("ReadBit on empty stream should error")
	}
	r = NewBitReader([]byte{0xFF})
	if _, err := r.ReadUnary(); err == nil {
		t.Error("ReadUnary on all-ones stream should error (no terminator)")
	}
}

func TestEncoderDecoderExhaustiveSmall(t *testing.T) {
	for m := uint64(1); m <= 17; m++ {
		var vals []uint64
		for v := uint64(0); v < 50; v++ {
			vals = append(vals, v)
		}
		buf := EncodeAll(vals, m)
		got, err := DecodeAll(buf, m, len(vals))
		if err != nil {
			t.Fatalf("m=%d: decode: %v", m, err)
		}
		if !reflect.DeepEqual(got, vals) {
			t.Fatalf("m=%d: round trip mismatch\n got %v\nwant %v", m, got, vals)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(raw []uint32, mseed uint16) bool {
		m := uint64(mseed)%1000 + 1
		vals := make([]uint64, len(raw))
		for i, v := range raw {
			vals[i] = uint64(v) % 100000
		}
		buf := EncodeAll(vals, m)
		got, err := DecodeAll(buf, m, len(vals))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, vals) || (len(got) == 0 && len(vals) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortedSetRoundTrip(t *testing.T) {
	positions := []uint64{0, 1, 5, 6, 100, 10000, 10001}
	buf, err := EncodeSortedSet(positions, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSortedSet(buf, 64, len(positions))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, positions) {
		t.Fatalf("round trip mismatch: got %v want %v", got, positions)
	}
}

func TestSortedSetRejectsNonIncreasing(t *testing.T) {
	if _, err := EncodeSortedSet([]uint64{3, 3}, 4); err == nil {
		t.Error("duplicate positions should be rejected")
	}
	if _, err := EncodeSortedSet([]uint64{5, 2}, 4); err == nil {
		t.Error("decreasing positions should be rejected")
	}
}

func TestSortedSetProperty(t *testing.T) {
	f := func(raw []uint16, mseed uint8) bool {
		m := uint64(mseed)%255 + 1
		seen := map[uint64]bool{}
		var pos []uint64
		for _, v := range raw {
			seen[uint64(v)] = true
		}
		for v := uint64(0); v < 1<<16; v++ {
			if seen[v] {
				pos = append(pos, v)
			}
		}
		buf, err := EncodeSortedSet(pos, m)
		if err != nil {
			return false
		}
		got, err := DecodeSortedSet(buf, m, len(pos))
		if err != nil {
			return false
		}
		if len(pos) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, pos)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOptimalM(t *testing.T) {
	cases := []struct {
		p    float64
		want uint64
	}{
		{0.5, 1},
		{0.2, 4}, // -1/log2(0.8) = 3.1 -> ceil 4
		{0.01, 69},
	}
	for _, c := range cases {
		if got := OptimalM(c.p); got != c.want {
			t.Errorf("OptimalM(%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if OptimalM(0) == 0 {
		t.Error("OptimalM(0) must be positive")
	}
	// One set bit in a 2^60-bit filter: a parameter of 1 would spend
	// ~2^59 unary bits on it.
	if got := OptimalM(1.0 / (1 << 60)); got < 1<<52 {
		t.Errorf("OptimalM(2^-60) = %d, want >= 2^52", got)
	}
	if OptimalM(1.5) != 1 {
		t.Error("OptimalM(>=1) should clamp to 1")
	}
}

func TestOptimalRiceK(t *testing.T) {
	if k := OptimalRiceK(0.5); k != 0 {
		t.Errorf("OptimalRiceK(0.5) = %d, want 0", k)
	}
	if k := OptimalRiceK(0.01); k < 5 || k > 7 {
		t.Errorf("OptimalRiceK(0.01) = %d, want around 6", k)
	}
}

func TestCompressionBeatsRawForSparseSets(t *testing.T) {
	// A sparse set of 100 positions in a 100k universe should compress to
	// far fewer bytes than the 12.5 kB raw bitmap.
	rng := rand.New(rand.NewSource(42))
	seen := map[uint64]bool{}
	for len(seen) < 100 {
		seen[uint64(rng.Intn(100000))] = true
	}
	var pos []uint64
	for v := uint64(0); v < 100000; v++ {
		if seen[v] {
			pos = append(pos, v)
		}
	}
	m := OptimalM(float64(len(pos)) / 100000.0)
	buf, err := EncodeSortedSet(pos, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 400 {
		t.Errorf("compressed size %d bytes; expected ~150 bytes for 100 gaps", len(buf))
	}
	got, err := DecodeSortedSet(buf, m, len(pos))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pos) {
		t.Error("round trip mismatch")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	// A stream of all ones never terminates its unary part.
	if _, err := DecodeAll([]byte{0xFF, 0xFF}, 3, 5); err == nil {
		t.Error("expected corrupt-stream error")
	}
	// A count the buffer cannot hold (a value costs at least one bit) is
	// refused before the output is sized from it: 1<<62 would panic in
	// make, 1<<40 would exhaust memory.
	for _, n := range []int{17, 1 << 40, 1 << 62, -1} {
		if _, err := DecodeAll([]byte{0, 0}, 1, n); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeAll n=%d: err = %v, want ErrCorrupt", n, err)
		}
		if _, err := DecodeSortedSet([]byte{0, 0}, 1, n); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeSortedSet n=%d: err = %v, want ErrCorrupt", n, err)
		}
	}
	if got, err := DecodeAll([]byte{0, 0}, 1, 16); err != nil || len(got) != 16 {
		t.Errorf("16 one-bit values in two bytes: %v, %v", got, err)
	}
	// A gap that wraps the running position is not a sorted set.
	const big = uint64(1) << 63
	wrap := EncodeAll([]uint64{big + 5, big}, big+7) // 5+big, then +big+1 wraps to 6
	if set, err := DecodeSortedSet(wrap, big+7, 2); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrapping gap decoded to %v, err %v", set, err)
	}
	// A parameter above 2^63 has a 64-bit remainder field.
	if got, err := DecodeAll(wrap, big+7, 2); err != nil || got[0] != big+5 || got[1] != big {
		t.Errorf("m > 2^63 round trip: %v, %v", got, err)
	}
}

func BenchmarkEncode1k(b *testing.B) {
	vals := make([]uint64, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = uint64(rng.Intn(500))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeAll(vals, 64)
	}
}

func BenchmarkDecode1k(b *testing.B) {
	vals := make([]uint64, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = uint64(rng.Intn(500))
	}
	buf := EncodeAll(vals, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAll(buf, 64, len(vals)); err != nil {
			b.Fatal(err)
		}
	}
}
