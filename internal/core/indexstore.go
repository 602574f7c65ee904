package core

import (
	"maps"
	"sync"

	"repro/internal/kvstore"
)

// IndexStore holds every index built over one cluster, one IndexMap per
// index family, keyed the way the family needs: per query for IJLMR
// (its table co-locates two relations under one score function), per
// relation for the inverse score lists, BFHM and DRJN (their tables
// describe one relation and are shared by every tree that names it,
// whichever executor reads them).
//
// The store also owns the build serialization that makes EnsureIndex
// single-flight: each index family locks a build scope before its
// check-then-build sequence, so two concurrent EnsureIndex calls can
// never both observe "no index" and build twice — the race that used
// to let a pair of BFHM builds auto-size mismatched filter widths.
type IndexStore struct {
	IJLMR IndexMap[*IJLMRIndex] // by query ID
	ISL   IndexMap[*ISLIndex]   // by relation name
	BFHM  IndexMap[*BFHMIndex]  // by relation name
	DRJN  IndexMap[*DRJNIndex]  // by relation name

	buildMu sync.Mutex
	builds  map[string]*sync.Mutex // build scope -> serialization lock; guarded by: buildMu
}

// NewIndexStore returns an empty store.
func NewIndexStore() *IndexStore {
	return &IndexStore{builds: map[string]*sync.Mutex{}}
}

// IndexMap is one index family's entries in a store, by key. The zero
// value is empty and ready to use.
type IndexMap[T any] struct {
	mu sync.Mutex
	m  map[string]T // guarded by: mu
}

// Get returns the index filed under key.
func (x *IndexMap[T]) Get(key string) (T, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	idx, ok := x.m[key]
	return idx, ok
}

// Put files an index under key.
func (x *IndexMap[T]) Put(key string, idx T) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.m == nil {
		x.m = map[string]T{}
	}
	x.m[key] = idx
}

// Each calls f for every entry of a snapshot; f runs without the lock
// held.
func (x *IndexMap[T]) Each(f func(key string, idx T)) {
	x.mu.Lock()
	cp := maps.Clone(x.m)
	x.mu.Unlock()
	for k, v := range cp {
		f(k, v)
	}
}

// buildScope returns the mutex serializing index builds for one scope.
// Callers hold it across their check-then-build sequence.
func (s *IndexStore) buildScope(scope string) *sync.Mutex {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	mu, ok := s.builds[scope]
	if !ok {
		mu = &sync.Mutex{}
		s.builds[scope] = mu
	}
	return mu
}

// indexFamily is one kind of index. The executor table calls it only
// for trees of a shape the reading executor supports.
type indexFamily interface {
	// name labels the family in the missing-index error.
	name() string
	// ensure idempotently builds t's indexes, single-flight.
	ensure(c *kvstore.Cluster, t *JoinTree, s *IndexStore, cfg IndexBuildConfig) error
	// has reports whether every index t needs is built.
	has(t *JoinTree, s *IndexStore) bool
	// size returns the stored bytes of t's built indexes.
	size(c *kvstore.Cluster, t *JoinTree, s *IndexStore) uint64
}

// family implements indexFamily over one of the store's maps.
type family[T any] struct {
	label string
	// of selects the family's map in a store.
	of func(s *IndexStore) *IndexMap[T]
	// keys lists the store keys t's indexes are filed under.
	keys func(t *JoinTree) []string
	// wide serializes every build of the family on one scope, for
	// indexes that must agree on their geometry; otherwise builds
	// serialize per key.
	wide bool
	// build builds the index filed under t's i'th key; it runs under
	// the build scope's lock.
	build func(c *kvstore.Cluster, t *JoinTree, i int, s *IndexStore, cfg IndexBuildConfig) (T, error)
	// table names an index's table.
	table func(idx T) string
}

func (f *family[T]) name() string { return f.label }

func (f *family[T]) ensure(c *kvstore.Cluster, t *JoinTree, s *IndexStore, cfg IndexBuildConfig) error {
	if f.wide {
		lock := s.buildScope(f.label)
		lock.Lock()
		defer lock.Unlock()
	}
	for i, key := range f.keys(t) {
		if err := f.ensureKey(c, t, i, key, s, cfg); err != nil {
			return err
		}
	}
	return nil
}

// ensureKey builds the index filed under t's i'th key unless it exists.
// Outside a wide family it holds the key's own scope, so two trees that
// share a relation build its index once, whichever asks first.
func (f *family[T]) ensureKey(c *kvstore.Cluster, t *JoinTree, i int, key string, s *IndexStore, cfg IndexBuildConfig) error {
	if !f.wide {
		lock := s.buildScope(f.label + "/" + key)
		lock.Lock()
		defer lock.Unlock()
	}
	m := f.of(s)
	if _, ok := m.Get(key); ok {
		return nil
	}
	idx, err := f.build(c, t, i, s, cfg)
	if err != nil {
		return err
	}
	// A build ends in a sorted run; only the maintenance writes after
	// it go to the memtable.
	if err := c.Seal(f.table(idx)); err != nil {
		return err
	}
	m.Put(key, idx)
	return nil
}

func (f *family[T]) has(t *JoinTree, s *IndexStore) bool {
	m := f.of(s)
	for _, key := range f.keys(t) {
		if _, ok := m.Get(key); !ok {
			return false
		}
	}
	return true
}

func (f *family[T]) size(c *kvstore.Cluster, t *JoinTree, s *IndexStore) uint64 {
	m := f.of(s)
	var total uint64
	for _, key := range f.keys(t) {
		if idx, ok := m.Get(key); ok {
			sz, _ := c.TableDiskSize(f.table(idx))
			total += sz
		}
	}
	return total
}

// relationNames keys an index family per relation.
func relationNames(t *JoinTree) []string {
	names := make([]string, len(t.Relations))
	for i := range t.Relations {
		names[i] = t.Relations[i].Name
	}
	return names
}

// The four index families.
var (
	ijlmrIndexes indexFamily = &family[*IJLMRIndex]{
		label: "IJLMR",
		of:    func(s *IndexStore) *IndexMap[*IJLMRIndex] { return &s.IJLMR },
		keys:  func(t *JoinTree) []string { return []string{t.ID()} },
		build: func(c *kvstore.Cluster, t *JoinTree, _ int, _ *IndexStore, _ IndexBuildConfig) (*IJLMRIndex, error) {
			idx, _, err := BuildIJLMR(c, t)
			return idx, err
		},
		table: func(idx *IJLMRIndex) string { return idx.Table },
	}

	// islIndexes is the inverse score lists isl reads.
	islIndexes indexFamily = &family[*ISLIndex]{
		label: "ISL",
		of:    func(s *IndexStore) *IndexMap[*ISLIndex] { return &s.ISL },
		keys:  relationNames,
		build: func(c *kvstore.Cluster, t *JoinTree, i int, _ *IndexStore, _ IndexBuildConfig) (*ISLIndex, error) {
			idx, _, err := BuildISLRelation(c, t.Relations[i])
			return idx, err
		},
		table: func(idx *ISLIndex) string { return idx.Table },
	}

	// bfhmIndexes builds family-wide: intersecting two relations' filters
	// needs equal widths, so the first build auto-sizes from its heaviest
	// bucket and every later one inherits the width of a relation of the
	// tree already built. Concurrent builds for overlapping relation
	// pairs would otherwise race that handshake and persist filters that
	// can never be intersected.
	bfhmIndexes indexFamily = &family[*BFHMIndex]{
		label: "BFHM",
		of:    func(s *IndexStore) *IndexMap[*BFHMIndex] { return &s.BFHM },
		keys:  relationNames,
		wide:  true,
		build: func(c *kvstore.Cluster, t *JoinTree, i int, s *IndexStore, cfg IndexBuildConfig) (*BFHMIndex, error) {
			var shared uint64
			for _, rel := range t.Relations {
				if idx, ok := s.BFHM.Get(rel.Name); ok {
					shared = idx.MBits
					break
				}
			}
			idx, _, err := BuildBFHM(c, t.Relations[i], BFHMOptions{
				NumBuckets: cfg.BFHMBuckets,
				FPP:        cfg.BFHMFPP,
				MBits:      shared,
			})
			return idx, err
		},
		table: func(idx *BFHMIndex) string { return idx.Table },
	}

	// drjnIndexes builds family-wide: both relations' matrices must agree
	// on the join-partition count for the band dot products.
	drjnIndexes indexFamily = &family[*DRJNIndex]{
		label: "DRJN",
		of:    func(s *IndexStore) *IndexMap[*DRJNIndex] { return &s.DRJN },
		keys:  relationNames,
		wide:  true,
		build: func(c *kvstore.Cluster, t *JoinTree, i int, _ *IndexStore, cfg IndexBuildConfig) (*DRJNIndex, error) {
			idx, _, err := BuildDRJN(c, t.Relations[i], DRJNOptions{
				NumBuckets: cfg.DRJNBuckets,
				JoinParts:  cfg.DRJNJoinParts,
			})
			return idx, err
		},
		table: func(idx *DRJNIndex) string { return idx.Table },
	}
)
