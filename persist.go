package rankjoin

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// catalogMetaKey is the manifest Meta slot holding the serialized
// rankjoin catalog.
const catalogMetaKey = "catalog"

// catalogVersion is the one catalog format this build reads and writes.
// OpenAt refuses any other — a missing Version reads as 0, the shape
// every earlier build wrote; version 1 keyed the inverse score lists by
// a tree's leaves and aggregate, version 2 keys them by relation — with
// a FormatVersionError, and converts nothing.
const catalogVersion = 2

// catalog is the durable description of everything the rankjoin layer
// knows beyond the raw tables: defined relations, built indexes, and
// the index-construction config. The index structures themselves are
// tiny descriptors (table names, layouts, filter widths); the bulky
// index *data* lives in ordinary cluster tables and persists with them,
// so reopening a directory restores every index without rebuilding.
type catalog struct {
	Version   uint32
	Relations []string
	IJLMR     map[string]*core.IJLMRIndex `json:",omitempty"` // by query ID
	ISL       map[string]*core.ISLIndex   `json:",omitempty"` // by relation
	BFHM      map[string]*core.BFHMIndex  `json:",omitempty"` // by relation
	DRJN      map[string]*core.DRJNIndex  `json:",omitempty"` // by relation
	IdxCfg    IndexConfig
}

// relationFor renders the canonical storage mapping for a relation name
// — shared by DefineRelation and catalog restore so the two can never
// disagree on table layout.
func relationFor(name string) core.Relation {
	return core.Relation{
		Name:      name,
		Table:     "rel_" + name,
		Family:    "d",
		JoinQual:  "join",
		ScoreQual: "score",
	}
}

// OpenAt opens (or initializes) a durable DB rooted at cfg.Dir: the
// cluster recovers its tables from the directory's manifest, SSTables,
// and WALs, and the rankjoin catalog restores every defined relation
// and built index descriptor — no rebuild, no reload. Close the DB to
// release file handles and persist counters.
func OpenAt(cfg Config) (*DB, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("rankjoin: OpenAt requires Config.Dir")
	}
	p := sim.LC()
	if cfg.Profile != nil {
		p = *cfg.Profile
	}
	cluster, err := kvstore.OpenClusterFS(p, cfg.Dir, cfg.VFS)
	if err != nil {
		return nil, err
	}
	db := newDB(cluster)
	if err := db.loadCatalog(); err != nil {
		cluster.Close()
		return nil, err
	}
	return db, nil
}

// Close closes every stream parked behind a page token, then releases
// the underlying cluster's file handles and persists its counters, so no
// cursor outlives the store it reads. A memory-backed DB closes
// trivially. The DB must not be used afterwards.
func (db *DB) Close() error {
	db.cursors.drain()
	return db.cluster.Close()
}

// loadCatalog restores relations and index descriptors from the
// cluster's durable metadata.
func (db *DB) loadCatalog() error {
	raw := db.cluster.Meta(catalogMetaKey)
	if raw == "" {
		return nil
	}
	// The version is read on its own first: another version's shape may
	// not decode as this one's.
	var head struct{ Version uint32 }
	if err := json.Unmarshal([]byte(raw), &head); err != nil {
		return fmt.Errorf("rankjoin: corrupt catalog: %w", err)
	}
	if head.Version != catalogVersion {
		return &FormatVersionError{Path: catalogMetaKey, Version: head.Version, Supported: catalogVersion}
	}
	var cat catalog
	if err := json.Unmarshal([]byte(raw), &cat); err != nil {
		return fmt.Errorf("rankjoin: corrupt catalog: %w", err)
	}
	db.mu.Lock()
	for _, name := range cat.Relations {
		db.relations[name] = &RelationHandle{db: db, rel: relationFor(name)}
	}
	db.idxCfg = cat.IdxCfg
	db.mu.Unlock()
	for id, idx := range cat.IJLMR {
		db.store.IJLMR.Put(id, idx)
	}
	for rel, idx := range cat.ISL {
		db.store.ISL.Put(rel, idx)
	}
	for rel, idx := range cat.BFHM {
		db.store.BFHM.Put(rel, idx)
	}
	for rel, idx := range cat.DRJN {
		db.store.DRJN.Put(rel, idx)
	}
	return nil
}

// saveCatalog persists the current catalog. A no-op for memory-backed
// DBs (SetMeta stores nothing there; skipping keeps the write path
// free of JSON rendering). Callers invoke it after every catalog
// mutation: DefineRelation, EnsureIndexes, SetIndexConfig.
func (db *DB) saveCatalog() error {
	if !db.cluster.DiskBacked() {
		return nil
	}
	cat := catalog{
		Version: catalogVersion,
		IJLMR:   map[string]*core.IJLMRIndex{},
		ISL:     map[string]*core.ISLIndex{},
		BFHM:    map[string]*core.BFHMIndex{},
		DRJN:    map[string]*core.DRJNIndex{},
	}
	db.mu.Lock()
	for name := range db.relations {
		cat.Relations = append(cat.Relations, name)
	}
	cat.IdxCfg = db.idxCfg
	db.mu.Unlock()
	sort.Strings(cat.Relations)
	db.store.IJLMR.Each(func(id string, idx *core.IJLMRIndex) { cat.IJLMR[id] = idx })
	db.store.ISL.Each(func(rel string, idx *core.ISLIndex) { cat.ISL[rel] = idx })
	db.store.BFHM.Each(func(rel string, idx *core.BFHMIndex) { cat.BFHM[rel] = idx })
	db.store.DRJN.Each(func(rel string, idx *core.DRJNIndex) { cat.DRJN[rel] = idx })
	raw, err := json.Marshal(&cat)
	if err != nil {
		return err
	}
	return db.cluster.SetMeta(catalogMetaKey, string(raw))
}
