package transport

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// fuzzBytes hands out a fuzz input piece by piece; past its end every
// read is zero.
type fuzzBytes []byte

func (f *fuzzBytes) take(n int) []byte {
	n = min(n, len(*f))
	out := (*f)[:n:n]
	*f = (*f)[n:]
	return out
}

func (f *fuzzBytes) byte() byte {
	if b := f.take(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

func (f *fuzzBytes) uint64() uint64 {
	var b [8]byte
	copy(b[:], f.take(8))
	return binary.BigEndian.Uint64(b[:])
}

// float is any finite float64.
func (f *fuzzBytes) float() float64 {
	v := math.Float64frombits(f.uint64())
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return float64(int64(f.uint64()))
	}
	return v
}

// string is up to 15 bytes of valid UTF-8, possibly empty. JSON
// replaces invalid UTF-8, so only valid strings can match its round
// trip; the binary form keeps any bytes.
func (f *fuzzBytes) string() string {
	return strings.ToValidUTF8(string(f.take(int(f.byte()%16))), "\uFFFD")
}

func (f *fuzzBytes) tuple() core.Tuple {
	return core.Tuple{RowKey: f.string(), JoinValue: f.string(), Score: f.float()}
}

func (f *fuzzBytes) cost() sim.Snapshot {
	return sim.Snapshot{
		SimTime: time.Duration(f.uint64()), NetworkBytes: f.uint64(), KVReads: f.uint64(),
		KVWrites: f.uint64(), RPCCalls: f.uint64(), DiskBytesRead: f.uint64(), TuplesShipped: f.uint64(),
	}
}

// result builds a ResultData of up to 7 results with 0–3 extra leaves
// each. Results is empty, not nil, when there are none, as the engine
// builds it; an empty Rest is nil or empty, which JSON does not tell
// apart.
func (f *fuzzBytes) result() *ResultData {
	res := &ResultData{Results: []core.JoinResult{}}
	for range f.byte() % 8 {
		shape := f.byte()
		jr := core.JoinResult{Left: f.tuple(), Right: f.tuple()}
		if extra := int(shape % 4); extra > 0 || shape&4 != 0 {
			jr.Rest = make([]core.Tuple, extra)
		}
		for i := range jr.Rest {
			jr.Rest[i] = f.tuple()
		}
		jr.Score = f.float()
		res.Results = append(res.Results, jr)
	}
	res.Cost = f.cost()
	res.Algorithm = f.string()
	res.NextPageToken = f.string()
	if f.byte()&1 != 0 {
		e := f.cost()
		res.Estimate = &e
	}
	return res
}

// page is a k-row two-leaf page of the kind a node sends.
func page(k int) *ResultData {
	res := &ResultData{Algorithm: "isl", NextPageToken: "n0:1:tok", Cost: sim.Snapshot{SimTime: 4_200_000, NetworkBytes: 9000, KVReads: 120, RPCCalls: 4}}
	for i := range k {
		res.Results = append(res.Results, core.JoinResult{
			Left:  core.Tuple{RowKey: fmt.Sprintf("part%06d", i), JoinValue: fmt.Sprintf("p%d", i%37), Score: 1 - float64(i)/1000},
			Right: core.Tuple{RowKey: fmt.Sprintf("lineitem%08d", i), JoinValue: fmt.Sprintf("p%d", i%37), Score: 0.5},
			Score: 1.5 - float64(i)/1000,
		})
	}
	return res
}

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// decodeBound is the most decoding body may allocate: a small multiple
// of its length, whatever its counts claim.
func decodeBound(body []byte) uint64 { return uint64(16*len(body) + 4096) }

// FuzzResultData: the binary body round-trips any ResultData exactly as
// the JSON it replaced does, and decoding arbitrary bytes never panics
// and never allocates more than a small multiple of their length.
func FuzzResultData(f *testing.F) {
	full := appendResult(nil, page(100))
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(appendResult(nil, &ResultData{}))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		res := in.result()
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON, viaBinary ResultData
		if err := json.Unmarshal(js, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if err := decodeResult(appendResult(nil, res), &viaBinary); err != nil {
			t.Fatalf("decode of an encoded result: %v", err)
		}
		if !reflect.DeepEqual(viaBinary, viaJSON) {
			t.Fatalf("binary round trip %+v, JSON round trip %+v", viaBinary, viaJSON)
		}

		var raw ResultData
		if got, bound := allocated(func() { err = decodeResult(data, &raw) }), decodeBound(data); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			if te, ok := err.(*Error); !ok || te.Kind != KindInternal {
				t.Fatalf("decode error %v, want a KindInternal *Error", err)
			}
			return
		}
		var again ResultData
		if err := decodeResult(appendResult(nil, &raw), &again); err != nil || !reflect.DeepEqual(again, raw) {
			t.Fatalf("a decoded body re-encodes to %+v (err %v), want %+v", again, err, raw)
		}
	})
}

// TestDecodeResultRefusesHostileBodies: a count or length the body
// cannot back, a bad estimate presence byte, an estimate cut short and
// trailing bytes fail typed before any allocation sized by the claim.
func TestDecodeResultRefusesHostileBodies(t *testing.T) {
	body := appendResult(nil, page(3))
	for name, bad := range map[string][]byte{
		"empty":           nil,
		"truncated":       body[:len(body)-1],
		"trailing byte":   append(append([]byte(nil), body...), 0),
		"huge row count":  binary.AppendUvarint(nil, math.MaxUint64),
		"huge leaf count": append(binary.AppendUvarint([]byte{1}, 1<<40), make([]byte, 40)...),
		"one leaf":        append([]byte{1, 1}, make([]byte, 40)...),
		"long string":     append(binary.AppendUvarint([]byte{0, 0, 0, 0, 0, 0, 0, 0}, 1<<30), 'x'),
		"bad presence":    []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2},
		"short estimate":  []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0},
	} {
		var err error
		if got, bound := allocated(func() { err = decodeResult(bad, &ResultData{}) }), decodeBound(bad); got > bound {
			t.Errorf("%s: decoding %d bytes allocated %d, bound %d", name, len(bad), got, bound)
		}
		if te, ok := err.(*Error); !ok || te.Kind != KindInternal {
			t.Errorf("%s: err = %v, want a KindInternal *Error", name, err)
		}
	}
}
