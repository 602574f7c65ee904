package golomb

import "testing"

// FuzzGolombRoundTrip checks EncodeAll/DecodeAll identity across
// parameters. Values and m are bounded: the unary quotient grows as
// v/m, so an unbounded v with a tiny m would make the encoder itself
// the bottleneck, not the property under test.
func FuzzGolombRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(2), uint64(3), uint64(10))
	f.Add(uint64(1000), uint64(0), uint64(999), uint64(500), uint64(1))
	f.Add(uint64(7), uint64(7), uint64(7), uint64(7), uint64(64))
	f.Fuzz(func(t *testing.T, a, b, c, d, m uint64) {
		m = m%4096 + 1
		vals := []uint64{a % (1 << 20), b % (1 << 20), c % (1 << 20), d % (1 << 20)}
		buf := EncodeAll(vals, m)
		got, err := DecodeAll(buf, m, len(vals))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v (m=%d vals=%v)", err, m, vals)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("round trip mismatch at %d: %v -> %v (m=%d)", i, vals, got, m)
			}
		}
	})
}

// FuzzSortedSetRoundTrip checks the Golomb Compressed Set delta codec
// on strictly increasing positions built from bounded gaps.
func FuzzSortedSetRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(10))
	f.Add(uint64(5), uint64(100), uint64(1), uint64(30), uint64(3))
	f.Fuzz(func(t *testing.T, start, g1, g2, g3, m uint64) {
		m = m%4096 + 1
		pos := []uint64{start % (1 << 20)}
		for _, g := range []uint64{g1, g2, g3} {
			pos = append(pos, pos[len(pos)-1]+g%(1<<16)+1)
		}
		buf, err := EncodeSortedSet(pos, m)
		if err != nil {
			t.Fatalf("encode of strictly increasing positions failed: %v (%v)", err, pos)
		}
		got, err := DecodeSortedSet(buf, m, len(pos))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v (m=%d pos=%v)", err, m, pos)
		}
		for i := range pos {
			if got[i] != pos[i] {
				t.Fatalf("round trip mismatch at %d: %v -> %v (m=%d)", i, pos, got, m)
			}
		}
	})
}

// FuzzDecodeNoPanic feeds arbitrary bytes to both decoders: corrupt
// streams must produce errors (or bogus values), never panics, unbounded
// loops or allocations sized by the claimed count. count is taken from a
// header in real use (the BFHM blob's nbits), so it ranges far beyond
// what buf can hold — up to 1<<62, whose make() would panic — and m over
// the full uint64 range, 0 included: decoders must clamp like NewEncoder.
func FuzzDecodeNoPanic(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(1))
	f.Add([]byte{0xff, 0xff, 0xff}, uint64(3), uint64(8))
	f.Add([]byte{0x00, 0x80, 0x01}, uint64(1), uint64(4))
	f.Add([]byte{0x00, 0x00}, uint64(7), uint64(1)<<40)
	f.Add([]byte{0x55, 0x55}, uint64(1)<<63+1, uint64(1)<<62)
	f.Fuzz(func(t *testing.T, buf []byte, m uint64, n uint64) {
		count := int(n % (1<<62 + 1))
		if _, err := DecodeAll(buf, m, count); err == nil && count > 8*len(buf) {
			t.Fatalf("decoded %d values from %d bytes", count, len(buf))
		}
		set, err := DecodeSortedSet(buf, m, count)
		if err != nil {
			return
		}
		if len(set) != count {
			t.Fatalf("decoded %d positions, want %d", len(set), count)
		}
		for i := 1; i < len(set); i++ {
			if set[i] <= set[i-1] {
				t.Fatalf("sorted set not strictly increasing at %d: %d after %d", i, set[i], set[i-1])
			}
		}
	})
}
