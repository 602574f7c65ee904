package golomb

import (
	"errors"
	"math/rand"
	"testing"
)

// refBitReader is the bit-at-a-time reader BitReader replaced, kept as
// the reference the word-at-a-time one must agree with.
type refBitReader struct {
	buf []byte
	pos int   // byte position
	bit uint8 // next bit within buf[pos], 7..0 counting down
}

func (r *refBitReader) consumed() int { return 8*r.pos + 7 - int(r.bit) }

func (r *refBitReader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrCorrupt
	}
	v := uint(r.buf[r.pos]>>r.bit) & 1
	if r.bit == 0 {
		r.bit = 7
		r.pos++
	} else {
		r.bit--
	}
	return v, nil
}

func (r *refBitReader) ReadBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *refBitReader) ReadUnary() (uint64, error) {
	var q uint64
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 0 {
			return q, nil
		}
		q++
	}
}

// randomStream mixes the shapes a Golomb stream has: noise, long unary
// runs (0xff bytes) and long zero stretches.
func randomStream(rng *rand.Rand, n int) []byte {
	buf := make([]byte, n)
	for i := 0; i < n; {
		run := 1 + rng.Intn(12)
		mode := rng.Intn(4)
		for ; run > 0 && i < n; run, i = run-1, i+1 {
			switch mode {
			case 0:
				buf[i] = 0xff
			case 1:
				buf[i] = 0
			default:
				buf[i] = byte(rng.Intn(256))
			}
		}
	}
	return buf
}

// TestBitReaderMatchesBitAtATime runs the same random operation
// sequence through BitReader and the reference over random streams cut
// at every byte: every call must return the same value, fail at the same
// call with ErrCorrupt, and leave the same number of bits consumed.
func TestBitReaderMatchesBitAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		stream := randomStream(rng, 1+rng.Intn(48))
		seed := rng.Int63()
		for cut := 0; cut <= len(stream); cut++ {
			ops := rand.New(rand.NewSource(seed))
			got, want := NewBitReader(stream[:cut]), &refBitReader{buf: stream[:cut], bit: 7}
			for step := 0; step < 400; step++ {
				var gv, wv uint64
				var gerr, werr error
				var op string
				switch ops.Intn(4) {
				case 0:
					op = "ReadBit"
					g, ge := got.ReadBit()
					w, we := want.ReadBit()
					gv, gerr, wv, werr = uint64(g), ge, uint64(w), we
				case 1:
					n := uint(ops.Intn(71)) // past 64: only the low 64 bits stay
					op = "ReadBits"
					gv, gerr = got.ReadBits(n)
					wv, werr = want.ReadBits(n)
				default:
					op = "ReadUnary"
					gv, gerr = got.ReadUnary()
					wv, werr = want.ReadUnary()
				}
				if gv != wv || gerr != werr || got.off != want.consumed() {
					t.Fatalf("trial %d cut %d step %d %s: got (%d, %v) at bit %d, reference (%d, %v) at bit %d",
						trial, cut, step, op, gv, gerr, got.off, wv, werr, want.consumed())
				}
				if gerr != nil {
					if !errors.Is(gerr, ErrCorrupt) {
						t.Fatalf("error %v is not ErrCorrupt", gerr)
					}
					break
				}
			}
		}
	}
}

// TestDecoderMatchesBitAtATimeOnTruncation decodes encoded value streams
// cut at every byte, for Rice and non-Rice parameters: the values before
// the cut, and which Get fails, must match a decoder built on the
// reference reader.
func TestDecoderMatchesBitAtATimeOnTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []uint64{1, 2, 3, 7, 64, 100, 1000, 1 << 20, 1<<40 + 3} {
		values := make([]uint64, 40)
		for i := range values {
			values[i] = uint64(rng.Int63n(int64(min(m, 1<<30))*6 + 200)) // quotients up to 200 bits at m = 1
		}
		stream := EncodeAll(values, m)
		for cut := 0; cut <= len(stream); cut++ {
			d := NewDecoder(stream[:cut], m)
			ref := &refBitReader{buf: stream[:cut], bit: 7}
			for i := 0; ; i++ {
				gv, gerr := d.Get()
				wv, werr := refGet(ref, d)
				if gv != wv || gerr != werr {
					t.Fatalf("m %d cut %d value %d: got (%d, %v), reference (%d, %v)", m, cut, i, gv, gerr, wv, werr)
				}
				if gerr != nil {
					break
				}
				if i < len(values) && gv != values[i] {
					t.Fatalf("m %d cut %d value %d = %d, want %d", m, cut, i, gv, values[i])
				}
			}
		}
	}
}

// refGet is Decoder.Get over the reference reader, with d's parameters.
func refGet(r *refBitReader, d *Decoder) (uint64, error) {
	q, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if d.m == 1 {
		return q, nil
	}
	rem, err := r.ReadBits(d.b - 1)
	if err != nil {
		return 0, err
	}
	if rem >= d.t {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		rem = (rem<<1 | uint64(bit)) - d.t
	}
	if rem >= d.m {
		return 0, ErrCorrupt
	}
	return q*d.m + rem, nil
}

// BenchmarkBitReader decodes the two field kinds of a Golomb stream —
// unary quotients and fixed-width remainders — as Decoder.Get reads
// them: 1,000 code words with parameter 1<<10 and quotients averaging
// about two bits.
func BenchmarkBitReader(b *testing.B) {
	const words, width = 1000, 10
	rng := rand.New(rand.NewSource(1))
	var w BitWriter
	for i := 0; i < words; i++ {
		q := uint64(0)
		for rng.Intn(2) == 0 {
			q++
		}
		w.WriteUnary(q)
		w.WriteBits(uint64(rng.Intn(1<<width)), width)
	}
	buf := w.Bytes()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		r := NewBitReader(buf)
		for j := 0; j < words; j++ {
			q, err := r.ReadUnary()
			if err != nil {
				b.Fatal(err)
			}
			rem, err := r.ReadBits(width)
			if err != nil {
				b.Fatal(err)
			}
			sum += q + rem
		}
	}
	benchSink = sum
}

var benchSink uint64
