package core

import (
	"fmt"
	"testing"

	"repro/internal/kvstore"
)

// TestISLStreamAllocsPerBatch: a steady-state islStream allocates per
// scanner batch, never per tuple. Tuples are views of the scanner's
// row, and their join values are cut from one string per batch, so one
// batch of 2×batch tuples costs the same allocations at batch 10 as at
// batch 100 — with and without read-ahead billing. The kept tuples must
// still read as written once the block has been reused.
func TestISLStreamAllocsPerBatch(t *testing.T) {
	const rows = 3000
	c := newTestCluster()
	if _, err := c.CreateTable("isl_t", []string{"f"}, scoreKeySplits(c.Nodes())); err != nil {
		t.Fatal(err)
	}
	var cells []kvstore.Cell
	for i := 0; i < rows; i++ {
		for j := 0; j < 2; j++ {
			cells = append(cells, kvstore.Cell{
				Row:       kvstore.EncodeScoreDesc(1 - float64(i)/rows),
				Family:    "f",
				Qualifier: fmt.Sprintf("t%05d-%d", i, j),
				Value:     []byte(fmt.Sprintf("jv%06d", i*2+j)),
			})
		}
	}
	if err := c.BatchPut("isl_t", cells); err != nil {
		t.Fatal(err)
	}

	for _, prefetch := range []bool{false, true} {
		first := -1.0
		for _, batch := range []int{10, 100} {
			what := fmt.Sprintf("batch %d prefetch %v", batch, prefetch)
			s, err := newISLStream(c, "isl_t", "f", batch, prefetch)
			if err != nil {
				t.Fatal(err)
			}
			var kept []Tuple
			drain := func() {
				for i := 0; i < 2*batch; i++ {
					tp, err := s.Next()
					if err != nil || tp == nil {
						t.Fatalf("%s: tuple %d of a batch: %v, %v", what, i, tp, err)
					}
					kept = append(kept, *tp)
				}
			}
			drain() // the block grows, and the first batch's string
			kept = make([]Tuple, 0, 2*rows)
			avg := testing.AllocsPerRun(10, drain)
			t.Logf("%s: %.0f allocations per batch of %d tuples", what, avg, 2*batch)
			if first < 0 {
				first = avg
			} else if avg != first {
				t.Errorf("%s: %.0f allocations per batch, %.0f at batch 10: the stream allocates per tuple", what, avg, first)
			}
			for k, tp := range kept {
				i := batch + k/2 // the warm-up drained the first batch's rows
				if want := fmt.Sprintf("t%05d-%d", i, k%2); tp.RowKey != want {
					t.Fatalf("%s: kept tuple %d has row key %q, want %q", what, k, tp.RowKey, want)
				}
				if want := fmt.Sprintf("jv%06d", i*2+k%2); tp.JoinValue != want {
					t.Fatalf("%s: kept tuple %d has join value %q, want %q", what, k, tp.JoinValue, want)
				}
			}
		}
	}
}
