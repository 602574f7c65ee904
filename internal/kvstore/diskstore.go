package kvstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
)

// diskStore is the durable side of a cluster: a directory holding one
// MANIFEST, the SSTable files of every region, and one WAL file per
// region, plus the process-wide block cache. A nil *diskStore means the
// cluster is memory-only (the pre-existing behaviour).
//
// Durability protocol:
//
//   - The MANIFEST is the single source of truth. It is replaced
//     atomically (write tmp, fsync, rename, fsync dir), so it is always
//     either the old or the new state, never a torn mix.
//   - A new SSTable file is fsynced BEFORE it is referenced by a saved
//     manifest; a crash in between leaves an unreferenced file that
//     cleanOrphansLocked unlinks at the next open.
//   - Obsolete files (compaction inputs, dropped tables) are unlinked
//     only AFTER the manifest that stops referencing them is durably
//     saved; a crash in between leaves orphans, never a manifest
//     pointing at missing data.
type diskStore struct {
	dir   string
	cache *blockCache
	// fs is the filesystem seam every durable byte flows through. Set
	// once at open, read-only afterwards; DefaultVFS in production,
	// a faultfs wrapper under fault injection.
	fs VFS

	mu  sync.Mutex // leaf lock: region/table/state locks may be held when acquiring it
	man manifest   // guarded by: mu

	// crashAfterRegister simulates a crash between the manifest save and
	// the obsolete-file unlink in registerSegments (test hook): the save
	// happens, the unlink does not, and errSimulatedCrash is returned.
	crashAfterRegister bool // guarded by: mu
}

// errSimulatedCrash is returned by registerSegments under the
// crashAfterRegister test hook.
var errSimulatedCrash = errors.New("kvstore: simulated crash after manifest register")

const manifestName = "MANIFEST"

// manifestVersion is the one MANIFEST format this build reads and
// writes. Open refuses any other — a missing Version reads as 0, the
// shape every earlier build wrote — with a FormatVersionError before it
// removes or writes anything. Open reads a WAL only when the MANIFEST
// lists its region, so this version also covers the WAL record format.
const manifestVersion = 1

// manifestRegion is one region's durable record, held by its table.
type manifestRegion struct {
	ID    int
	Start string
	End   string
	Node  int
	Seq   uint64
	Files []string // SSTables, newest first
	// Quarantined lists the region's SSTables a Scrub pass failed. They
	// are off the read path but their files stay, and cold start
	// restores the quarantine without opening them.
	Quarantined []manifestQuarantined `json:",omitempty"`
}

// manifestQuarantined is one quarantined SSTable: its file, the family
// store it belonged to, and the row span reads must refuse.
type manifestQuarantined struct {
	Name, Family, MinRow, MaxRow string
}

// manifestTable records a table's schema and its regions in key order.
type manifestTable struct {
	Name     string
	Families []string
	Regions  []manifestRegion
}

// manifest is the serialized cluster state.
type manifest struct {
	Version  uint32
	NextID   int
	Clock    int64
	Seed     int64
	NextFile uint64
	Tables   []manifestTable
	Meta     map[string]string `json:",omitempty"`
}

// openDiskStore opens (or initializes) a store directory, loads the
// manifest, and removes orphaned files left by crashes. A MANIFEST of
// another format version is refused before anything is removed.
func openDiskStore(dir string, cacheBytes uint64, fsys VFS) (*diskStore, error) {
	if fsys == nil {
		fsys = DefaultVFS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &diskStore{dir: dir, cache: newBlockCache(cacheBytes), fs: fsys}
	raw, err := readFileVFS(fsys, filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		// The version is read on its own first: another version's shape
		// may not decode as this one's.
		var head struct{ Version uint32 }
		if err := json.Unmarshal(raw, &head); err != nil {
			return nil, corruptionAt(manifestName, -1, fmt.Errorf("corrupt manifest: %v", err))
		}
		if head.Version != manifestVersion {
			return nil, &FormatVersionError{Path: manifestName, Version: head.Version, Supported: manifestVersion}
		}
		if err := json.Unmarshal(raw, &s.man); err != nil {
			return nil, corruptionAt(manifestName, -1, fmt.Errorf("corrupt manifest: %v", err))
		}
	case errors.Is(err, fs.ErrNotExist):
		s.man.Version = manifestVersion
	default:
		return nil, err
	}
	if err := s.cleanOrphansLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// cleanOrphansLocked removes files no region record references (crashes
// between file creation and registration, or between deregistration and
// unlink).
// It also advances NextFile past every file on disk so numbers are never
// reused while an orphan still exists. Called from openDiskStore before
// the store is shared, which is stronger than holding s.mu.
func (s *diskStore) cleanOrphansLocked() error {
	liveFiles := map[string]bool{}
	for _, t := range s.man.Tables {
		for _, r := range t.Regions {
			liveFiles[walName(r.ID)] = true
			for _, f := range r.Files {
				liveFiles[f] = true
			}
			for _, q := range r.Quarantined {
				liveFiles[q.Name] = true
			}
		}
	}
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == manifestName:
			continue
		case strings.HasSuffix(name, sstFileSuffix):
			if n := sstFileNum(name) + 1; n > s.man.NextFile {
				s.man.NextFile = n
			}
		case strings.HasSuffix(name, ".wal"), strings.HasSuffix(name, ".tmp"):
		default:
			continue
		}
		if !liveFiles[name] {
			if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}

func walName(regionID int) string { return fmt.Sprintf("r%06d.wal", regionID) }

func (s *diskStore) walPath(regionID int) string {
	return filepath.Join(s.dir, walName(regionID))
}

// allocFile reserves the next SSTable file name. The counter is made
// durable by the registerSegments (or mutate) call that references the
// file; a crash before that leaves an orphan the next open removes, so
// reusing the number after restart is safe.
func (s *diskStore) allocFile() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.man.NextFile
	s.man.NextFile++
	return fmt.Sprintf("%06d%s", n, sstFileSuffix)
}

// saveLocked atomically replaces the manifest. Caller holds s.mu.
func (s *diskStore) saveLocked() error {
	raw, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	f, err := s.fs.OpenFile(tmp, osWriteTrunc, 0o644)
	if err != nil {
		return &IOError{Path: tmp, Op: "open", Err: err}
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return &IOError{Path: tmp, Op: "write", Err: err}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return &IOError{Path: tmp, Op: "sync", Err: err}
	}
	if err := f.Close(); err != nil {
		return &IOError{Path: tmp, Op: "close", Err: err}
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return &IOError{Path: tmp, Op: "rename", Err: err}
	}
	_ = s.fs.SyncDir(s.dir)
	return nil
}

// mutate applies fn to the manifest under the store lock and saves it
// atomically.
func (s *diskStore) mutate(fn func(*manifest)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(&s.man)
	return s.saveLocked()
}

// regionLocked returns the record of region id, or nil once its table
// is dropped. Caller holds s.mu.
func (s *diskStore) regionLocked(id int) *manifestRegion {
	for _, t := range s.man.Tables {
		for i := range t.Regions {
			if t.Regions[i].ID == id {
				return &t.Regions[i]
			}
		}
	}
	return nil
}

// registerSegments durably records a region's new record — SSTable file
// list (newest first), quarantined files and sequence number — then,
// only after the manifest is safely on disk, unlinks the files the new
// set replaces. maxTs advances the manifest clock floor, keeping
// recovered timestamps monotonic. rec must not be retained or modified
// by the caller.
func (s *diskStore) registerSegments(rec manifestRegion, maxTs int64, obsolete ...string) error {
	s.mu.Lock()
	if r := s.regionLocked(rec.ID); r != nil {
		*r = rec
	}
	if maxTs > s.man.Clock {
		s.man.Clock = maxTs
	}
	err := s.saveLocked()
	crash := s.crashAfterRegister
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if crash {
		return errSimulatedCrash
	}
	for _, f := range obsolete {
		if err := s.fs.Remove(filepath.Join(s.dir, f)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// dropRegionFiles unlinks a region's files — quarantined ones
// included — and WAL; callers must have saved a
// manifest that no longer references the region (DropTable) before
// calling.
func (s *diskStore) dropRegionFiles(rec *manifestRegion) error {
	paths := []string{s.walPath(rec.ID)}
	for _, f := range rec.Files {
		paths = append(paths, filepath.Join(s.dir, f))
	}
	for _, q := range rec.Quarantined {
		paths = append(paths, filepath.Join(s.dir, q.Name))
	}
	for _, p := range paths {
		if err := s.fs.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// meta returns the value stored under key in the manifest Meta map.
func (s *diskStore) meta(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Meta[key]
}

// setMeta durably stores an opaque key/value (the rankjoin layer keeps
// its relation/index catalog here).
func (s *diskStore) setMeta(key, value string) error {
	return s.mutate(func(m *manifest) {
		if m.Meta == nil {
			m.Meta = map[string]string{}
		}
		m.Meta[key] = value
	})
}

// snapshotManifest returns a deep copy of the current manifest, for
// cold-start reconstruction.
func (s *diskStore) snapshotManifest() manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := s.man
	cp.Tables = make([]manifestTable, len(s.man.Tables))
	for i, t := range s.man.Tables {
		t.Regions = append([]manifestRegion(nil), t.Regions...)
		for j := range t.Regions {
			r := &t.Regions[j]
			r.Files = append([]string(nil), r.Files...)
			r.Quarantined = append([]manifestQuarantined(nil), r.Quarantined...)
		}
		cp.Tables[i] = t
	}
	return cp
}
