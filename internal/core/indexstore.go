package core

import "sync"

// IndexStore holds every index built over one cluster, keyed the way
// each index family needs: per-query for IJLMR (its table binds two
// relations and a score function), per leaf set for the inverse score
// lists (one table shared by every tree over the same leaves and
// aggregate, whichever executor reads it), per-relation for BFHM and
// DRJN (their tables describe one relation and are shared by every
// query touching it).
//
// The store also owns the build serialization that makes EnsureIndex
// single-flight: each index family locks a build scope before its
// check-then-build sequence, so two concurrent EnsureIndex calls can
// never both observe "no index" and build twice — the race that used
// to let a pair of BFHM builds auto-size mismatched filter widths.
type IndexStore struct {
	mu    sync.Mutex
	ijlmr map[string]*IJLMRIndex // query ID -> index; guarded by: mu
	isl   map[string]*ISLIndex   // tree leaf ID -> index; guarded by: mu
	bfhm  map[string]*BFHMIndex  // relation name -> index; guarded by: mu
	drjn  map[string]*DRJNIndex  // relation name -> index; guarded by: mu

	buildMu sync.Mutex
	builds  map[string]*sync.Mutex // build scope -> serialization lock; guarded by: buildMu
}

// NewIndexStore returns an empty store.
func NewIndexStore() *IndexStore {
	return &IndexStore{
		ijlmr:  map[string]*IJLMRIndex{},
		isl:    map[string]*ISLIndex{},
		bfhm:   map[string]*BFHMIndex{},
		drjn:   map[string]*DRJNIndex{},
		builds: map[string]*sync.Mutex{},
	}
}

// BuildScope returns the mutex serializing index builds for one scope
// (e.g. "isl/<leafID>", or the family-wide "bfhm" scope whose builds
// share a filter width). Callers hold it across their check-then-build
// sequence.
func (s *IndexStore) BuildScope(scope string) *sync.Mutex {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	mu, ok := s.builds[scope]
	if !ok {
		mu = &sync.Mutex{}
		s.builds[scope] = mu
	}
	return mu
}

// IJLMR returns the IJLMR index for a query ID.
func (s *IndexStore) IJLMR(queryID string) (*IJLMRIndex, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, ok := s.ijlmr[queryID]
	return idx, ok
}

// PutIJLMR stores an IJLMR index.
func (s *IndexStore) PutIJLMR(queryID string, idx *IJLMRIndex) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ijlmr[queryID] = idx
}

// ISL returns the inverse-score-list index for a tree leaf ID
// (JoinTree.LeafID — trees over the same leaves share one index).
func (s *IndexStore) ISL(leafID string) (*ISLIndex, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, ok := s.isl[leafID]
	return idx, ok
}

// PutISL stores an inverse-score-list index.
func (s *IndexStore) PutISL(leafID string, idx *ISLIndex) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.isl[leafID] = idx
}

// BFHM returns the BFHM index for a relation.
func (s *IndexStore) BFHM(relation string) (*BFHMIndex, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, ok := s.bfhm[relation]
	return idx, ok
}

// PutBFHM stores a BFHM index.
func (s *IndexStore) PutBFHM(relation string, idx *BFHMIndex) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bfhm[relation] = idx
}

// DRJN returns the DRJN index for a relation.
func (s *IndexStore) DRJN(relation string) (*DRJNIndex, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, ok := s.drjn[relation]
	return idx, ok
}

// PutDRJN stores a DRJN index.
func (s *IndexStore) PutDRJN(relation string, idx *DRJNIndex) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drjn[relation] = idx
}

// EachIJLMR calls f for every stored IJLMR index (snapshot; f runs
// without the store lock held).
func (s *IndexStore) EachIJLMR(f func(queryID string, idx *IJLMRIndex)) {
	s.mu.Lock()
	cp := make(map[string]*IJLMRIndex, len(s.ijlmr))
	for k, v := range s.ijlmr {
		cp[k] = v
	}
	s.mu.Unlock()
	for k, v := range cp {
		f(k, v)
	}
}

// EachISL calls f for every stored inverse-score-list index (snapshot).
func (s *IndexStore) EachISL(f func(leafID string, idx *ISLIndex)) {
	s.mu.Lock()
	cp := make(map[string]*ISLIndex, len(s.isl))
	for k, v := range s.isl {
		cp[k] = v
	}
	s.mu.Unlock()
	for k, v := range cp {
		f(k, v)
	}
}

// EachBFHM calls f for every stored BFHM index (snapshot).
func (s *IndexStore) EachBFHM(f func(relation string, idx *BFHMIndex)) {
	s.mu.Lock()
	cp := make(map[string]*BFHMIndex, len(s.bfhm))
	for k, v := range s.bfhm {
		cp[k] = v
	}
	s.mu.Unlock()
	for k, v := range cp {
		f(k, v)
	}
}

// EachDRJN calls f for every stored DRJN index (snapshot).
func (s *IndexStore) EachDRJN(f func(relation string, idx *DRJNIndex)) {
	s.mu.Lock()
	cp := make(map[string]*DRJNIndex, len(s.drjn))
	for k, v := range s.drjn {
		cp[k] = v
	}
	s.mu.Unlock()
	for k, v := range cp {
		f(k, v)
	}
}
