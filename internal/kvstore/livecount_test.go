package kvstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sim"
)

// walkedLiveCells is the oracle for a region's maintained live count: a
// fresh merge walk of the region as it stands.
func walkedLiveCells(t *testing.T, r *Region) uint64 {
	t.Helper()
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, err := r.walkLiveLocked()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// liveCounted reports whether r is maintaining its live count.
func liveCounted(r *Region) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.liveCounted
}

// TestLiveCellCountMaintained is the maintained live count's oracle: a
// seeded sequence of puts and deletes at timestamps older than, equal to
// and newer than each column's newest version, flushes, compactions and
// (on disk) close-and-reopen, over two families and three regions. After
// every step each region's LiveCellCount must equal a forced walk, and a
// region once counted must stay counted — the count is kept on the write
// path, not re-walked — until a reopen starts it over.
func TestLiveCellCountMaintained(t *testing.T) {
	for _, mode := range []struct {
		name         string
		disk         bool
		seeds, steps int
	}{
		{"memory", false, 20, 300},
		{"disk", true, 5, 200},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(mode.seeds); seed++ {
				checkLiveCountSequence(t, seed, mode.steps, mode.disk)
			}
		})
	}
}

func checkLiveCountSequence(t *testing.T, seed int64, steps int, disk bool) {
	dir := t.TempDir()
	open := func() *Cluster {
		if !disk {
			return testCluster(t)
		}
		c, err := OpenCluster(sim.LC(), dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := open()
	defer func() { c.Close() }()
	if _, err := c.CreateTable("t", []string{"a", "b"}, []string{"r3", "r6"}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	newest := map[string]int64{} // column -> newest timestamp written
	for step := 0; step < steps; step++ {
		row := fmt.Sprintf("r%d", rng.Intn(9))
		fam := []string{"a", "b"}[rng.Intn(2)]
		qual := fmt.Sprintf("q%d", rng.Intn(3))
		col := row + "/" + fam + "/" + qual
		ts := int64(1000 + step*10)
		if last, ok := newest[col]; ok {
			switch rng.Intn(3) {
			case 0:
				ts = last - 1 - int64(rng.Intn(5)) // older: shadowed on arrival
			case 1:
				ts = last // equal: the higher sequence wins
			}
		}
		op := rng.Intn(20)
		var err error
		switch {
		case op < 11:
			err = c.Put("t", Cell{Row: row, Family: fam, Qualifier: qual, Value: []byte{byte(step)}, Timestamp: ts})
			newest[col] = max(newest[col], ts)
		case op < 16:
			err = deleteCell(c, "t", row, fam, qual, ts)
			newest[col] = max(newest[col], ts)
		case op < 18:
			err = c.FlushAll()
		case op < 19:
			for _, r := range mustTable(t, c).regions {
				if err = r.Compact(); err != nil {
					break
				}
			}
		case disk:
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			c = open()
			for _, r := range mustTable(t, c).regions {
				if liveCounted(r) {
					t.Fatalf("seed %d step %d: region %d counted straight after reopen", seed, step, r.id)
				}
			}
		}
		if err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		for _, r := range mustTable(t, c).regions {
			wasCounted := liveCounted(r)
			got, want := r.LiveCellCount(), walkedLiveCells(t, r)
			if got != want {
				t.Fatalf("seed %d step %d: region %d LiveCellCount = %d, walk = %d", seed, step, r.id, got, want)
			}
			if step > 0 && !wasCounted && op < 19 {
				t.Fatalf("seed %d step %d (op %d): region %d lost its count", seed, step, op, r.id)
			}
		}
	}
}

func mustTable(t *testing.T, c *Cluster) *Table {
	t.Helper()
	tab, err := c.table("t")
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestLiveCellCountConcurrent: writers and TableStats callers on one
// region at once. Run under -race it checks the count's lock discipline
// (walk under the read lock, install and maintenance under the write
// lock); at the end the maintained count must equal a walk.
func TestLiveCellCountConcurrent(t *testing.T) {
	c := testCluster(t)
	if _, err := c.CreateTable("t", []string{"cf"}, nil); err != nil {
		t.Fatal(err)
	}
	const writers, writes = 4, 300
	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				row := fmt.Sprintf("r%03d", (w*writes+i)%200)
				var err error
				if i%5 == 4 {
					err = deleteCell(c, "t", row, "cf", "v", 0)
				} else {
					err = c.Put("t", Cell{Row: row, Family: "cf", Qualifier: "v", Value: []byte{byte(i)}})
				}
				if err != nil {
					errs <- err
					return
				}
				if i%100 == 99 {
					if err := c.FlushAll(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := c.TableStats("t"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	r := mustTable(t, c).regions[0]
	if got, want := r.LiveCellCount(), walkedLiveCells(t, r); got != want {
		t.Fatalf("LiveCellCount = %d after concurrent writes, walk = %d", got, want)
	}
}
