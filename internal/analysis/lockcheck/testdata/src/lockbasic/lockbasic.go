// Package lockbasic exercises lockcheck's core behaviors: guarded
// field accesses, lock modes, flow joins, conventions, and fresh
// values.
package lockbasic

import "sync"

type table struct {
	mu      sync.RWMutex
	regions []int // guarded by: mu
	name    string
}

// ---- unguarded accesses ----

func readBare(t *table) int {
	return len(t.regions) // want `read of "regions" without t\.mu held`
}

func writeBare(t *table) {
	t.regions = nil // want `write to "regions" without t\.mu held`
}

func unguardedFieldOK(t *table) string {
	return t.name // unannotated fields are out of scope
}

// ---- lock modes ----

func readUnderRLock(t *table) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.regions)
}

func writeUnderRLock(t *table) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.regions = nil // want `write to "regions" requires t\.mu held in write mode`
}

func writeUnderLock(t *table) {
	t.mu.Lock()
	t.regions = append(t.regions, 1)
	t.mu.Unlock()
}

func readAfterUnlock(t *table) int {
	t.mu.RLock()
	n := len(t.regions)
	t.mu.RUnlock()
	return n + len(t.regions) // want `read of "regions" without t\.mu held`
}

// ---- flow sensitivity ----

// earlyUnlockContinue mirrors the MoveRegion idiom: the unlock branch
// leaves the loop iteration, so the write below still sees the lock.
func earlyUnlockContinue(ts []*table, closed bool) {
	for _, t := range ts {
		t.mu.Lock()
		if closed {
			t.mu.Unlock()
			continue
		}
		t.regions = append(t.regions, 1)
		t.mu.Unlock()
	}
}

// joinDropsLock: one branch unlocks and flows on, so the merged state
// cannot assume the lock.
func joinDropsLock(t *table, cond bool) {
	t.mu.Lock()
	if cond {
		t.mu.Unlock()
	}
	t.regions = nil // want `write to "regions" without t\.mu held`
	if !cond {
		t.mu.Unlock()
	}
}

func lockInBothBranches(t *table, cond bool) {
	if cond {
		t.mu.Lock()
	} else {
		t.mu.Lock()
	}
	t.regions = nil
	t.mu.Unlock()
}

// ---- conventions ----

// appendLocked carries the Locked suffix: the receiver's mu is a
// precondition.
func (t *table) appendLocked(r int) {
	t.regions = append(t.regions, r)
}

// locked: t.mu
func (t *table) appendAnnotated(r int) {
	t.regions = append(t.regions, r)
}

func (t *table) appendUnannotated(r int) {
	t.regions = append(t.regions, r) // want `write to "regions" without t\.mu held`
}

// ---- closures and goroutines ----

func closureInherits(t *table) {
	t.mu.Lock()
	f := func() { t.regions = nil }
	f()
	t.mu.Unlock()
}

func goroutineDoesNot(t *table) {
	t.mu.Lock()
	go func() {
		t.regions = nil // want `write to "regions" without t\.mu held`
	}()
	t.mu.Unlock()
}

// ---- fresh values ----

func freshLiteral() *table {
	t := &table{}
	t.regions = []int{1} // no other goroutine can see t yet
	return t
}

func newTable() *table { return &table{} }

func freshConstructor() *table {
	t := newTable()
	t.regions = []int{1}
	return t
}

func notFresh(t *table) {
	u := t
	u.regions = nil // want `write to "regions" without u\.mu held`
}

// ---- suppression ----

func suppressedRead(t *table) int {
	//lint:allow lockcheck snapshot read is racy by design and documented
	return len(t.regions)
}

// ---- package-level guards ----

var registryMu sync.RWMutex

// guarded by: registryMu
var registry = map[string]int{}

func lookup(name string) int {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return registry[name]
}

func lookupBare(name string) int {
	return registry[name] // want `read of "registry" without registryMu held`
}

func register(name string) {
	registryMu.Lock()
	registry[name] = 1
	registryMu.Unlock()
}

func registerBare(name string) {
	registry[name] = 1 // want `write to "registry" without registryMu held`
}

// ---- generic types ----

type keyed[T any] struct {
	mu sync.Mutex
	m  map[string]T // guarded by: mu
}

func (k *keyed[T]) get(key string) T {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.m[key]
}

func (k *keyed[T]) getBare(key string) T {
	return k.m[key] // want `read of "m" without k\.mu held`
}

func instanceBare(k *keyed[int]) int {
	return len(k.m) // want `read of "m" without k\.mu held`
}
