package kvstore

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeFloatOrderPreserving(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ea, eb := EncodeFloat(a), EncodeFloat(b)
		switch {
		case a < b:
			return ea < eb
		case a > b:
			return ea > eb
		default:
			return ea == eb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeFloatRoundTrip(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) {
			return true
		}
		got, err := DecodeFloat(EncodeFloat(a))
		return err == nil && got == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, v := range []float64{0, 1, -1, 0.5, -0.5, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64} {
		got, err := DecodeFloat(EncodeFloat(v))
		if err != nil || got != v {
			t.Errorf("round trip %g -> %g (%v)", v, got, err)
		}
	}
}

func TestDecodeFloatErrors(t *testing.T) {
	if _, err := DecodeFloat("zz"); err == nil {
		t.Error("bad hex must fail")
	}
	if _, err := DecodeFloat("00ff"); err == nil {
		t.Error("short key must fail")
	}
}

// TestDecodeFloatHandRolledHex pins the digit parser that replaced
// hex.DecodeString: bit-exact round trips (random patterns, signed
// zeros, infinities, subnormals, NaN payloads), both digit cases, the
// same rejections, and no allocation on the accepting path.
func TestDecodeFloatHandRolledHex(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	vals := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff), // largest subnormals
		math.Float64frombits(0x0010000000000000), math.MaxFloat64, -math.MaxFloat64,
	}
	for i := 0; i < 5000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()), rng.NormFloat64(), rng.Float64())
	}
	for _, v := range vals {
		key := EncodeFloat(v)
		for _, k := range []string{key, strings.ToUpper(key)} {
			got, err := DecodeFloat(k)
			if err != nil || math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("DecodeFloat(%q) = %x, %v; want %x", k, math.Float64bits(got), err, math.Float64bits(v))
			}
		}
		if math.IsNaN(v) {
			continue // negation need not keep a NaN's payload
		}
		if got, err := DecodeScoreDesc(EncodeScoreDesc(v)); err != nil || math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("DecodeScoreDesc round trip of %x = %x, %v", math.Float64bits(v), math.Float64bits(got), err)
		}
	}

	good := EncodeFloat(0.73)
	for _, bad := range []string{
		"", "0", good[:15], good + "0", good + good,
		"g" + good[1:], good[:15] + "G", good[:7] + " " + good[8:], good[:7] + "/" + good[8:],
		good[:7] + ":" + good[8:], good[:7] + "@" + good[8:], good[:7] + "`" + good[8:],
		"0x" + good[2:], "+" + good[1:], good[:15] + "\x00", good[:14] + "é",
	} {
		got, err := DecodeFloat(bad)
		if err == nil {
			t.Errorf("DecodeFloat(%q) = %g, want an error", bad, got)
			continue
		}
		if want := fmt.Sprintf("kvstore: bad float key %q", bad); err.Error() != want {
			t.Errorf("DecodeFloat(%q) error = %q, want %q", bad, err, want)
		}
	}

	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		f, _ := DecodeScoreDesc(good)
		sink += f
	}); n != 0 {
		t.Errorf("DecodeScoreDesc allocates %v times per call, want 0", n)
	}
}

// switchDecodeFloat is DecodeFloat as it was before the nibble table:
// one switch per digit. FuzzDecodeFloat holds the table to it.
func switchDecodeFloat(s string) (float64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("kvstore: bad float key %q", s)
	}
	var bits uint64
	for i := 0; i < len(s); i++ {
		var d byte
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			d = c - '0'
		case 'a' <= c && c <= 'f':
			d = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			d = c - 'A' + 10
		default:
			return 0, fmt.Errorf("kvstore: bad float key %q", s)
		}
		bits = bits<<4 | uint64(d)
	}
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits), nil
}

// FuzzDecodeFloat holds the table-driven DecodeFloat to the switch
// decoder on every input — the same bits, or the same error text — and
// round-trips EncodeFloat, whose digits must be hex.EncodeToString's.
func FuzzDecodeFloat(f *testing.F) {
	f.Add("", 0.0)
	f.Add(EncodeFloat(0.73), 0.73)
	f.Add(strings.ToUpper(EncodeFloat(-1e300)), math.Inf(-1))
	f.Add("0123456789abcdeg", math.Copysign(0, -1))
	f.Add("00000000000000\xff0", math.NaN())
	f.Fuzz(func(t *testing.T, s string, v float64) {
		got, err := DecodeFloat(s)
		want, wantErr := switchDecodeFloat(s)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("DecodeFloat(%q) error = %v, switch decoder's = %v", s, err, wantErr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DecodeFloat(%q) = %x, switch decoder's %x", s, math.Float64bits(got), math.Float64bits(want))
		}

		key := EncodeFloat(v)
		bits := math.Float64bits(v)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		if want := hex.EncodeToString(b[:]); key != want {
			t.Fatalf("EncodeFloat(%x) = %q, want %q", math.Float64bits(v), key, want)
		}
		if back, err := DecodeFloat(key); err != nil || math.Float64bits(back) != math.Float64bits(v) {
			t.Fatalf("DecodeFloat(EncodeFloat(%x)) = %x, %v", math.Float64bits(v), math.Float64bits(back), err)
		}
	})
}

// TestEncodeScoreDescAllocatesOnce: a score key is one string, built
// from a stack buffer — one allocation per key, on every maintenance
// write of an inverse score list.
func TestEncodeScoreDescAllocatesOnce(t *testing.T) {
	var sink string
	score := 0.5
	if n := testing.AllocsPerRun(100, func() {
		sink = EncodeScoreDesc(score)
		score += 0.001
	}); n != 1 {
		t.Errorf("EncodeScoreDesc allocates %v times per call, want 1", n)
	}
	_ = sink
}

func TestEncodeScoreDescOrdering(t *testing.T) {
	// Higher scores must sort lexicographically FIRST.
	scores := []float64{1.0, 0.93, 0.92, 0.91, 0.82, 0.79, 0.35, 0.31, 0.0}
	for i := 1; i < len(scores); i++ {
		hi, lo := EncodeScoreDesc(scores[i-1]), EncodeScoreDesc(scores[i])
		if hi >= lo {
			t.Errorf("EncodeScoreDesc(%g)=%s not before EncodeScoreDesc(%g)=%s",
				scores[i-1], hi, scores[i], lo)
		}
	}
	got, err := DecodeScoreDesc(EncodeScoreDesc(0.73))
	if err != nil || got != 0.73 {
		t.Errorf("DecodeScoreDesc round trip = %g, %v", got, err)
	}
}

func TestEncodeUintOrdering(t *testing.T) {
	prev := ""
	for n := uint64(0); n < 1000; n += 7 {
		s := EncodeUint(n, 6)
		if len(s) != 6 {
			t.Fatalf("EncodeUint(%d, 6) = %q, want width 6", n, s)
		}
		if s <= prev && prev != "" {
			t.Fatalf("ordering broken at %d: %q <= %q", n, s, prev)
		}
		prev = s
	}
}

func TestBucketAndReverseMapKeys(t *testing.T) {
	if BucketKey(3) >= BucketKey(10) {
		t.Error("bucket keys must sort numerically")
	}
	k := ReverseMapKey(2, 12345)
	if k != "000002|000000012345" {
		t.Errorf("ReverseMapKey = %q", k)
	}
	// All reverse-mapping keys of bucket b sort after the bucket row key
	// and before bucket b+1's row key.
	if !(BucketKey(2) < k && k < BucketKey(3)) {
		t.Error("reverse map keys must nest between bucket keys")
	}
}

func TestValidateKeyComponent(t *testing.T) {
	if err := ValidateKeyComponent("ok-key"); err != nil {
		t.Errorf("valid key rejected: %v", err)
	}
	if err := ValidateKeyComponent(""); err == nil {
		t.Error("empty key accepted")
	}
	if err := ValidateKeyComponent("a\x00b"); err == nil {
		t.Error("NUL key accepted")
	}
}

func TestCellKeyRoundTrip(t *testing.T) {
	key := cellKey("row1", "cf", "col", 42, 7)
	row, fam, qual, ts, seq, err := parseCellKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if row != "row1" || fam != "cf" || qual != "col" || ts != 42 || seq != 7 {
		t.Fatalf("parsed (%q,%q,%q,%d,%d)", row, fam, qual, ts, seq)
	}
	if _, _, _, _, _, err := parseCellKey("garbage"); err == nil {
		t.Error("malformed key accepted")
	}
}

func TestCellKeyNewestFirst(t *testing.T) {
	older := cellKey("r", "f", "q", 1, 1)
	newer := cellKey("r", "f", "q", 2, 2)
	if newer >= older {
		t.Error("newer version must sort before older")
	}
	// Same timestamp: higher seq sorts first.
	a := cellKey("r", "f", "q", 5, 10)
	b := cellKey("r", "f", "q", 5, 11)
	if b >= a {
		t.Error("higher seq must sort before lower at equal ts")
	}
}

func TestCellStoredSizeAndColumn(t *testing.T) {
	c := Cell{Row: "r", Family: "f", Qualifier: "q", Value: []byte("hello")}
	if c.StoredSize() != uint64(1+1+1+5+cellOverhead) {
		t.Errorf("StoredSize = %d", c.StoredSize())
	}
	if c.Column() != "f:q" {
		t.Errorf("Column = %q", c.Column())
	}
	if c.String() == "" {
		t.Error("String empty")
	}
	c.Tombstone = true
	if c.String() == "" {
		t.Error("tombstone String empty")
	}
}
