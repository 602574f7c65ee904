package mapreduce

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/kvstore"
)

// TestMapPhaseStreamsBlocks: a map task walks its region in bounded
// blocks, and the blocks show nowhere. Over one region of ~2,600 rows —
// more than two blocks — with a filter dropping every third row, every
// kept row is mapped exactly once and in key order, and the job bills
// exactly what one pass over the region reads: every stored cell's
// bytes once and one read unit per cell, including the rows that end a
// block and the rows the filter drops. The task still checks its
// interrupt periodically, and an interrupt stops it part way.
func TestMapPhaseStreamsBlocks(t *testing.T) {
	t.Setenv("KVSTORE_DISK", "") // billed bytes follow the memory-mode formula
	c := testCluster(t)
	if _, err := c.CreateTable("big", []string{"cf"}, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var cells []kvstore.Cell
	var wantKeys []string
	var wantBytes uint64
	var wantKeptCells int64
	for i := 0; i < 2600; i++ {
		row := fmt.Sprintf("r%05d", i)
		if i%3 != 0 {
			wantKeys = append(wantKeys, row)
		}
		for q := 0; q < 1+rng.Intn(3); q++ {
			cell := kvstore.Cell{Row: row, Family: "cf", Qualifier: fmt.Sprintf("q%d", q), Value: []byte(fmt.Sprint(rng.Int63()))}
			cells = append(cells, cell)
			wantBytes += cell.StoredSize()
			if i%3 != 0 {
				wantKeptCells++
			}
		}
	}
	if err := c.BatchPut("big", cells); err != nil {
		t.Fatal(err)
	}
	dropThirds := rowFilter(func(r *kvstore.Row) bool {
		var i int
		fmt.Sscanf(r.Key, "r%05d", &i)
		return i%3 != 0
	})

	var checks atomic.Int64
	var stopAt int64 // the check that fails; 0 = none
	view := c.WithGuard(func() error {
		if n := checks.Add(1); n == stopAt {
			return errStop
		}
		return nil
	})
	var mapped []string
	job := func() *Job {
		mapped = nil
		return &Job{
			Name:    "blocks",
			Cluster: view,
			Input:   kvstore.Scan{Table: "big", Filter: dropThirds},
			Mapper: MapperFunc(func(row *kvstore.Row, ctx Context) error {
				mapped = append(mapped, row.Key)
				ctx.Counter("cells", int64(len(row.Cells)))
				return nil
			}),
		}
	}

	m := c.Metrics()
	before := m.Snapshot()
	res, err := Run(job())
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(mapped) || fmt.Sprint(mapped) != fmt.Sprint(wantKeys) {
		t.Fatalf("mapped %d rows, want the %d kept rows once each in key order", len(mapped), len(wantKeys))
	}
	if res.MapInputRows != uint64(len(wantKeys)) || res.MapInputCells != uint64(len(cells)) || res.Counters["cells"] != wantKeptCells {
		t.Errorf("MapInputRows %d, MapInputCells %d, cells mapped %d; want %d, %d and %d",
			res.MapInputRows, res.MapInputCells, res.Counters["cells"], len(wantKeys), len(cells), wantKeptCells)
	}
	if got := m.Snapshot().DiskBytesRead - before.DiskBytesRead; got != wantBytes {
		t.Errorf("billed %d disk bytes, one pass reads %d", got, wantBytes)
	}
	if got := m.Snapshot().KVReads - before.KVReads; got != uint64(len(cells)) {
		t.Errorf("billed %d read units, one pass reads %d", got, len(cells))
	}
	if want := 1 + int64(len(wantKeys)+1023)/1024; checks.Load() != want {
		t.Errorf("the task checked its interrupt %d times, want %d: before the scan and every 1,024 rows", checks.Load(), want)
	}

	checks.Store(0)
	stopAt = 3
	if _, err := Run(job()); !errors.Is(err, errStop) {
		t.Fatalf("interrupted job returned %v, want %v", err, errStop)
	}
	if len(mapped) != 1024 {
		t.Errorf("the interrupted task mapped %d rows, want 1024: the third check comes after two periods", len(mapped))
	}
}

var errStop = errors.New("stop")

// rowFilter adapts a function to kvstore.Filter.
type rowFilter func(r *kvstore.Row) bool

func (f rowFilter) FilterRow(r *kvstore.Row) bool { return f(r) }
