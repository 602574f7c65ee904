package kvstore

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// KeySep separates logical components inside composite row keys (e.g. the
// BFHM's "bucketNo|bitPos" reverse-mapping keys).
const KeySep = "|"

// EncodeFloat encodes a float64 as a 16-character lowercase-hex string
// whose lexicographic order equals the numeric order of the input.
// The standard trick: flip the sign bit of non-negative values, flip all
// bits of negative values. The digits are written into a stack array and
// copied once into the string: this runs on every inverse-score-list
// maintenance write, where hex.EncodeToString allocated twice.
func EncodeFloat(f float64) string {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = lowerHex[bits&0xf]
		bits >>= 4
	}
	return string(b[:])
}

const lowerHex = "0123456789abcdef"

// hexNibble maps a byte to its hex digit's value (either case) and
// every other byte to badNibble.
var hexNibble = func() (t [256]byte) {
	for i := range t {
		t[i] = badNibble
	}
	for i := 0; i < 10; i++ {
		t['0'+i] = byte(i)
	}
	for i := 0; i < 6; i++ {
		t['a'+i], t['A'+i] = byte(10+i), byte(10+i)
	}
	return t
}()

const badNibble = 0xff

// DecodeFloat reverses EncodeFloat. It reads the 16 hex digits (either
// case) straight into the bit pattern through a nibble table, and checks
// them all at once: any non-digit sets a bit above the low four in the
// OR of the looked-up values. This runs once per inverse-score-list row,
// where hex.DecodeString allocated and strconv.ParseUint, with its
// per-digit overflow checks, measured slower.
func DecodeFloat(s string) (float64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("kvstore: bad float key %q", s)
	}
	var bits uint64
	var seen byte
	for i := 0; i < 16; i++ {
		d := hexNibble[s[i]]
		seen |= d
		bits = bits<<4 | uint64(d&0xf)
	}
	if seen > 0xf {
		return 0, fmt.Errorf("kvstore: bad float key %q", s)
	}
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits), nil
}

// EncodeScoreDesc encodes a score so that HIGHER scores sort FIRST under
// the store's ascending-only scans. Like the paper's ISL index ("we have
// used the negated score values as the index keys", Section 4.2.2) this
// is EncodeFloat of the negated score.
func EncodeScoreDesc(score float64) string {
	return EncodeFloat(-score)
}

// DecodeScoreDesc reverses EncodeScoreDesc.
func DecodeScoreDesc(s string) (float64, error) {
	f, err := DecodeFloat(s)
	if err != nil {
		return 0, err
	}
	return -f, nil
}

// EncodeUint encodes n as fixed-width zero-padded decimal so that
// lexicographic order equals numeric order for values below 10^width.
// Hand-rolled padding instead of fmt.Sprintf: this runs once per
// reverse-mapping key on the BFHM hot path.
func EncodeUint(n uint64, width int) string {
	var digits [20]byte
	s := strconv.AppendUint(digits[:0], n, 10)
	if len(s) >= width {
		return string(s)
	}
	var buf [32]byte
	out := buf[:]
	if width > len(buf) {
		out = make([]byte, width)
	}
	out = out[:width]
	pad := width - len(s)
	for i := 0; i < pad; i++ {
		out[i] = '0'
	}
	copy(out[pad:], s)
	return string(out)
}

// BucketKey builds a BFHM/DRJN bucket row key: zero-padded bucket number.
func BucketKey(bucket int) string { return EncodeUint(uint64(bucket), 6) }

// ReverseMapKey builds the BFHM reverse-mapping row key "bucket|bitpos"
// (Section 5.1: "the key consists of the concatenation of the bucket
// number and bit position").
func ReverseMapKey(bucket int, bitPos uint64) string {
	return BucketKey(bucket) + KeySep + EncodeUint(bitPos, 12)
}

// ValidateKeyComponent rejects strings that would break composite-key
// parsing or the store's internal cell encoding.
func ValidateKeyComponent(s string) error {
	if s == "" {
		return fmt.Errorf("kvstore: empty key component")
	}
	if strings.ContainsRune(s, 0) {
		return fmt.Errorf("kvstore: key component %q contains NUL", s)
	}
	return nil
}
