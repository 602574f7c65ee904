package kvstore

import (
	"encoding/binary"
	"encoding/hex"
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
// bits of negative values.
func EncodeFloat(f float64) string {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], bits)
	return hex.EncodeToString(b[:])
}

// DecodeFloat reverses EncodeFloat. It reads the 16 hex digits (either
// case) straight into the bit pattern: this runs once per inverse-score-
// list row, where hex.DecodeString allocated and strconv.ParseUint, with
// its per-digit overflow checks, measured slower than both.
func DecodeFloat(s string) (float64, error) {
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
