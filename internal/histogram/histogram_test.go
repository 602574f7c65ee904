package histogram

import (
	"testing"
	"testing/quick"
)

func mustLayout(t *testing.T, lo, hi float64, n int) Layout {
	t.Helper()
	l, err := NewLayout(lo, hi, n)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLayoutValidation(t *testing.T) {
	if _, err := NewLayout(0, 1, 0); err == nil {
		t.Error("zero buckets must be rejected")
	}
	if _, err := NewLayout(1, 1, 10); err == nil {
		t.Error("empty domain must be rejected")
	}
	if _, err := NewLayout(2, 1, 10); err == nil {
		t.Error("inverted domain must be rejected")
	}
}

func TestBucketOfPaperExample(t *testing.T) {
	// Paper Section 5.1 / Figs. 5-6: scores in [0,1], 10 buckets; bucket
	// 0 covers [0.9, 1.0], bucket 1 covers [0.8, 0.9), etc. (bottom-
	// inclusive, as the worked figures use: 0.70 lands in 0.7-0.8).
	l := mustLayout(t, 0, 1, 10)
	cases := []struct {
		score float64
		want  int
	}{
		{1.00, 0},
		{0.95, 0},
		{0.91, 0},
		{0.90, 0}, // boundary belongs to the higher bucket: [0.9, 1.0]
		{0.82, 1},
		{0.80, 1},
		{0.70, 2},
		{0.67, 3},
		{0.64, 3},
		{0.50, 4},
		{0.35, 6},
		{0.31, 6},
		{0.05, 9},
		{0.0, 9},
	}
	for _, c := range cases {
		if got := l.BucketOf(c.score); got != c.want {
			t.Errorf("BucketOf(%g) = %d, want %d", c.score, got, c.want)
		}
	}
}

func TestBucketOfRunningExampleTuples(t *testing.T) {
	// Fig. 5 assigns: bucket 0 holds 0.91..1.00, bucket 1 holds 0.82,
	// bucket 2 holds 0.70..0.79, bucket 3 holds 0.64..0.68, bucket 4
	// holds 0.50..0.53, bucket 5 holds 0.41, bucket 6 holds 0.31..0.38.
	l := mustLayout(t, 0, 1, 10)
	byBucket := map[int][]float64{
		0: {1.00, 0.93, 0.92, 0.91},
		1: {0.82, 0.82, 0.82},
		2: {0.73, 0.70, 0.79},
		3: {0.64, 0.67, 0.68, 0.64},
		4: {0.51, 0.53, 0.50},
		5: {0.41},
		6: {0.35, 0.38, 0.37, 0.31},
	}
	for want, scores := range byBucket {
		for _, s := range scores {
			if got := l.BucketOf(s); got != want {
				t.Errorf("BucketOf(%g) = %d, want %d", s, got, want)
			}
		}
	}
}

func TestRangeInverseOfBucketOf(t *testing.T) {
	l := mustLayout(t, 0, 1, 100)
	f := func(raw uint32) bool {
		s := float64(raw%100001) / 100000.0
		b := l.BucketOf(s)
		lo, hi := l.Range(b)
		// s must lie in [lo, hi) except for s == Hi which belongs to
		// bucket 0 inclusively.
		if s == l.Hi {
			return b == 0
		}
		return s >= lo-1e-9 && s < hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRangeCoversDomain(t *testing.T) {
	l := mustLayout(t, 0.25, 0.75, 7)
	prevLo := l.Hi
	for b := 0; b < l.Buckets; b++ {
		lo, hi := l.Range(b)
		if hi != prevLo {
			t.Errorf("bucket %d hi = %g, want %g (contiguous)", b, hi, prevLo)
		}
		if lo >= hi {
			t.Errorf("bucket %d empty range [%g, %g]", b, lo, hi)
		}
		prevLo = lo
	}
	if prevLo != l.Lo {
		t.Errorf("last bucket lo = %g, want %g", prevLo, l.Lo)
	}
}

func TestHistogramAddAndBounds(t *testing.T) {
	l := mustLayout(t, 0, 1, 10)
	h := New(l)
	h.Add(0.67)
	h.Add(0.68)
	h.Add(0.64)
	b := h.Bucket(3)
	if b.Count != 3 {
		t.Fatalf("bucket 3 count = %d, want 3", b.Count)
	}
	if b.MinSeen != 0.64 || b.MaxSeen != 0.68 {
		t.Fatalf("bucket 3 bounds = [%g, %g], want [0.64, 0.68]", b.MinSeen, b.MaxSeen)
	}
	if h.Total() != 3 {
		t.Fatalf("total = %d, want 3", h.Total())
	}
}

func TestDRJNBandMarshalRoundTrip(t *testing.T) {
	cells := make([]uint64, 4)
	cells[PartitionOf("x", 4)] += 2
	cells[PartitionOf("y", 4)]++
	buf := MarshalBandData(cells, 0.83, 0.88, true)
	bd, err := UnmarshalBand(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(bd.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(bd.Cells))
	}
	var total uint64
	for _, c := range bd.Cells {
		total += c
	}
	if total != 3 {
		t.Fatalf("band total = %d, want 3", total)
	}
	if bd.Lo != 0.83 || bd.Hi != 0.88 || !bd.NonEmpty {
		t.Fatalf("bounds = (%g, %g, %v), want (0.83, 0.88, true)", bd.Lo, bd.Hi, bd.NonEmpty)
	}
	// Empty band round trip.
	bd2, err := UnmarshalBand(MarshalBandData(make([]uint64, 4), 0, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if bd2.NonEmpty {
		t.Error("band 3 should be empty")
	}
	if _, err := UnmarshalBand(buf[:10]); err == nil {
		t.Error("truncated band must fail to decode")
	}
}

func TestDotProduct(t *testing.T) {
	a := &BandData{Cells: []uint64{1, 2, 3}}
	b := &BandData{Cells: []uint64{4, 5, 6}}
	got, err := DotProduct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1*4+2*5+3*6 {
		t.Fatalf("dot product = %d, want 32", got)
	}
	c := &BandData{Cells: []uint64{1}}
	if _, err := DotProduct(a, c); err == nil {
		t.Error("mismatched lengths must error")
	}
}
