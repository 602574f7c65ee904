package lru

import (
	"fmt"
	"slices"
	"testing"
)

type kv struct {
	k    int
	v    string
	size uint64
}

// contents lists the entries most recently used first.
func contents(c *Cache[int, string]) []kv {
	var out []kv
	for n := c.root.next; n != &c.root; n = n.next {
		out = append(out, kv{n.key, n.val, n.size})
	}
	return out
}

func keys(c *Cache[int, string]) []int {
	var out []int
	for k := range c.All() {
		out = append(out, k)
	}
	return out
}

// checkInvariants walks the list both ways and checks it against the
// map, the size total and the bound.
func checkInvariants(t *testing.T, c *Cache[int, string], label string) {
	t.Helper()
	var n int
	var size uint64
	for e := c.root.next; e != &c.root; e = e.next {
		if e.next.prev != e || e.prev.next != e {
			t.Fatalf("%s: list links broken at key %d", label, e.key)
		}
		if c.items[e.key] != e {
			t.Fatalf("%s: listed key %d is not the mapped entry", label, e.key)
		}
		n++
		size += e.size
		if n > len(c.items) {
			t.Fatalf("%s: list longer than the map (%d entries)", label, len(c.items))
		}
	}
	if n != len(c.items) || n != c.Len() {
		t.Fatalf("%s: %d listed entries, %d mapped, Len %d", label, n, len(c.items), c.Len())
	}
	if size != c.size || size != c.Size() {
		t.Fatalf("%s: entries sum to %d, cache says %d", label, size, c.Size())
	}
	if c.Size() > c.Cap() || (c.Cap() == 0 && c.Len() != 0) {
		t.Fatalf("%s: %d entries, %d resident over a bound of %d", label, c.Len(), c.Size(), c.Cap())
	}
}

func TestLRUOrder(t *testing.T) {
	var evicted []int
	c := New(3, func(k int, _ string) { evicted = append(evicted, k) })
	for k := 1; k <= 3; k++ {
		c.Add(k, fmt.Sprint(k), 1)
	}
	if got := c.Get(1); got == nil || *got != "1" {
		t.Fatalf("Get(1) = %v", got)
	}
	if c.Peek(2) == nil || c.Get(9) != nil || c.Peek(9) != nil {
		t.Fatal("Peek(2) missed or an absent key was found")
	}
	c.Add(4, "4", 1) // 2 is least recently used: Peek did not touch it
	if want := []int{4, 1, 3}; !slices.Equal(keys(c), want) {
		t.Fatalf("order %v, want %v", keys(c), want)
	}
	if !slices.Equal(evicted, []int{2}) || c.Evictions() != 1 {
		t.Fatalf("evicted %v (count %d), want [2]", evicted, c.Evictions())
	}
	c.Add(3, "three", 1) // re-adding replaces and moves to the front
	if want := []kv{{3, "three", 1}, {4, "4", 1}, {1, "1", 1}}; !slices.Equal(contents(c), want) {
		t.Fatalf("after re-add: %v, want %v", contents(c), want)
	}
	*c.Get(1) = "one" // a value is updated in place through Get
	if got := *c.Peek(1); got != "one" {
		t.Fatalf("in-place update lost: %q", got)
	}
	checkInvariants(t, c, "order")
}

func TestLRUBoundAfterEveryOp(t *testing.T) {
	c := New[int, string](10, nil)
	for i := range 200 {
		k, size := i%13, uint64(i%5+1)
		switch i % 4 {
		case 0, 1:
			c.Add(k, "v", size)
		case 2:
			c.Get(k)
		case 3:
			c.Grow(k, int64(size))
		}
		checkInvariants(t, c, fmt.Sprintf("op %d", i))
	}
}

func TestLRUOversizedRefused(t *testing.T) {
	c := New[int, string](10, nil)
	c.Add(1, "a", 4)
	c.Add(2, "b", 4)
	c.Add(3, "c", 11)  // larger than the bound
	c.Add(1, "a2", 11) // an oversized replacement
	if want := []kv{{2, "b", 4}, {1, "a", 4}}; !slices.Equal(contents(c), want) || c.Evictions() != 0 {
		t.Fatalf("after refusals: %v with %d evictions, want %v untouched", contents(c), c.Evictions(), want)
	}
	c.Add(3, "c", 10) // exactly the bound fits, evicting the rest
	if want := []int{3}; !slices.Equal(keys(c), want) || c.Evictions() != 2 {
		t.Fatalf("keys %v, %d evictions; want %v, 2", keys(c), c.Evictions(), want)
	}
	checkInvariants(t, c, "oversized")
}

func TestLRUCapacityZero(t *testing.T) {
	c := New[int, string](0, nil)
	c.Add(1, "a", 0)
	c.Add(2, "b", 1)
	if c.Len() != 0 {
		t.Fatalf("a disabled cache admitted entries: %v", keys(c))
	}
	var evicted []int
	c = New(5, func(k int, _ string) { evicted = append(evicted, k) })
	c.Add(1, "a", 0)
	c.Add(2, "b", 2)
	c.SetCap(0)
	if c.Len() != 0 || c.Size() != 0 || !slices.Equal(evicted, []int{1, 2}) {
		t.Fatalf("capacity 0 kept %v (size %d), evicted %v", keys(c), c.Size(), evicted)
	}
	c.Add(3, "c", 1)
	if c.Len() != 0 {
		t.Fatal("a cache set to capacity 0 admitted an entry")
	}
	c.SetCap(5)
	c.Add(3, "c", 1)
	if c.Peek(3) == nil {
		t.Fatal("re-enabled cache refused an entry")
	}
	checkInvariants(t, c, "capacity zero")
}

func TestLRUShrink(t *testing.T) {
	c := New[int, string](10, nil)
	for k := 1; k <= 5; k++ {
		c.Add(k, "v", 2)
	}
	c.Get(1)
	c.SetCap(5) // keeps the two most recent: 1 and 5
	if want := []int{1, 5}; !slices.Equal(keys(c), want) || c.Evictions() != 3 {
		t.Fatalf("after shrinking: %v, %d evictions; want %v, 3", keys(c), c.Evictions(), want)
	}
	checkInvariants(t, c, "shrink")
}

func TestLRUGrow(t *testing.T) {
	c := New[int, string](10, nil)
	c.Add(1, "a", 3)
	c.Add(2, "b", 3)
	c.Add(3, "c", 3)
	c.Grow(3, 1) // fills the bound exactly; order unchanged
	c.Grow(1, -1)
	if want := []kv{{3, "c", 4}, {2, "b", 3}, {1, "a", 2}}; !slices.Equal(contents(c), want) {
		t.Fatalf("after in-bound grows: %v, want %v", contents(c), want)
	}
	c.Grow(1, 2) // the grown entry is the least recently used: it goes itself
	if want := []int{3, 2}; !slices.Equal(keys(c), want) || c.Evictions() != 1 {
		t.Fatalf("after growing the tail: %v, %d evictions; want %v, 1", keys(c), c.Evictions(), want)
	}
	c.Grow(3, 7) // past the bound alone: everything goes, the grown entry last
	if c.Len() != 0 || c.Evictions() != 3 {
		t.Fatalf("after an oversized grow: %v, %d evictions", keys(c), c.Evictions())
	}
	c.Grow(9, 5) // an absent key is ignored
	checkInvariants(t, c, "grow")
}

func TestLRURemove(t *testing.T) {
	var evicted []int
	c := New(10, func(k int, _ string) { evicted = append(evicted, k) })
	c.Add(1, "a", 2)
	c.Add(2, "b", 3)
	if v, ok := c.Remove(1); !ok || v != "a" {
		t.Fatalf("Remove(1) = %q, %v", v, ok)
	}
	if _, ok := c.Remove(1); ok {
		t.Fatal("a second Remove found the entry")
	}
	if want := []kv{{2, "b", 3}}; !slices.Equal(contents(c), want) || evicted != nil || c.Evictions() != 0 {
		t.Fatalf("after Remove: %v, evicted %v; want %v and no eviction", contents(c), evicted, want)
	}
	checkInvariants(t, c, "remove")
}

// TestLRUAllocations: a hit allocates nothing, and an insert at most
// its one entry.
func TestLRUAllocations(t *testing.T) {
	c := New[int, string](64, nil)
	for k := range 32 {
		c.Add(k, "v", 1)
	}
	if n := testing.AllocsPerRun(100, func() { c.Get(7) }); n != 0 {
		t.Errorf("Get hit: %v allocations", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Add(7, "w", 1) }); n != 0 {
		t.Errorf("re-Add: %v allocations", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Remove(40); c.Add(40, "x", 1) }); n > 1 {
		t.Errorf("new entry: %v allocations, want at most 1", n)
	}
}

// FuzzLRU replays an op sequence against a slice-based model of the
// eviction rules and checks the list, the map and the size total after
// every op.
func FuzzLRU(f *testing.F) {
	f.Add(uint8(10), []byte{0, 1, 3, 0, 2, 4, 1, 1, 0, 2, 0, 9, 3, 2, 7, 4, 0, 0, 5, 3, 0, 6, 1, 0})
	f.Add(uint8(0), []byte{0, 1, 1, 5, 0, 4})
	f.Add(uint8(4), []byte{0, 1, 2, 0, 2, 2, 3, 1, 5, 5, 0, 0, 0, 3, 4})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		type entry struct {
			k    int
			v    string
			size uint64
		}
		var model []entry // most recently used first
		modelCap := uint64(capacity % 32)
		var modelEvicted, evicted []int
		find := func(k int) int {
			return slices.IndexFunc(model, func(e entry) bool { return e.k == k })
		}
		modelEvict := func() {
			for len(model) > 0 {
				var size uint64
				for _, e := range model {
					size += e.size
				}
				if size <= modelCap && modelCap != 0 {
					return
				}
				modelEvicted = append(modelEvicted, model[len(model)-1].k)
				model = model[:len(model)-1]
			}
		}
		toFront := func(i int) {
			e := model[i]
			model = append(model[:i], model[i+1:]...)
			model = append([]entry{e}, model...)
		}
		c := New(modelCap, func(k int, _ string) { evicted = append(evicted, k) })
		for i := 0; i+2 < len(ops); i += 3 {
			op, k, arg := ops[i]%6, int(ops[i+1]%8), ops[i+2]
			label := fmt.Sprintf("op %d (%d k=%d arg=%d)", i/3, op, k, arg)
			switch op {
			case 0: // Add
				v, size := fmt.Sprint(i), uint64(arg%12)
				c.Add(k, v, size)
				if modelCap != 0 && size <= modelCap {
					if j := find(k); j >= 0 {
						model = append(model[:j], model[j+1:]...)
					}
					model = append([]entry{{k, v, size}}, model...)
					modelEvict()
				}
			case 1: // Get
				got, j := c.Get(k), find(k)
				if (got != nil) != (j >= 0) || (got != nil && *got != model[j].v) {
					t.Fatalf("%s: Get = %v, model has index %d", label, got, j)
				}
				if j >= 0 {
					toFront(j)
				}
			case 2: // Peek
				got, j := c.Peek(k), find(k)
				if (got != nil) != (j >= 0) || (got != nil && *got != model[j].v) {
					t.Fatalf("%s: Peek = %v, model has index %d", label, got, j)
				}
			case 3: // Grow, never below zero
				delta := int64(arg%16) - 6
				if j := find(k); j >= 0 {
					if int64(model[j].size)+delta < 0 {
						delta = -int64(model[j].size)
					}
					model[j].size = uint64(int64(model[j].size) + delta)
					modelEvict()
				}
				c.Grow(k, delta)
			case 4: // Remove
				v, ok := c.Remove(k)
				j := find(k)
				if ok != (j >= 0) || (ok && v != model[j].v) {
					t.Fatalf("%s: Remove = %q, %v; model has index %d", label, v, ok, j)
				}
				if j >= 0 {
					model = append(model[:j], model[j+1:]...)
				}
			case 5: // SetCap
				modelCap = uint64(arg % 32)
				c.SetCap(modelCap)
				modelEvict()
			}
			checkInvariants(t, c, label)
			var got []entry
			for n := c.root.next; n != &c.root; n = n.next {
				got = append(got, entry{n.key, n.val, n.size})
			}
			if !slices.Equal(got, model) {
				t.Fatalf("%s: cache holds %v, model %v", label, got, model)
			}
			if !slices.Equal(evicted, modelEvicted) || c.Evictions() != uint64(len(modelEvicted)) {
				t.Fatalf("%s: evicted %v (count %d), model %v", label, evicted, c.Evictions(), modelEvicted)
			}
		}
	})
}
