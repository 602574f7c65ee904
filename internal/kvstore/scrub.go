package kvstore

import (
	"encoding/binary"
	"sort"
)

// FileScrubReport is one SSTable's verification outcome.
type FileScrubReport struct {
	Table  string
	Region int
	Family string // the column family whose store holds the file
	Name   string // file name within the store directory
	Blocks int    // frames whose checksums were verified
	Bytes  uint64 // bytes read and checksummed
	// Err is nil for a clean file. Non-nil means the file failed
	// verification — a CorruptionError naming the frame offset, or an
	// IOError if the bytes could not be read at all — and the table has
	// been quarantined.
	Err error
}

// ScrubReport summarizes one Cluster.Scrub pass over every on-disk run.
type ScrubReport struct {
	Files   []FileScrubReport
	Corrupt int // files with a non-nil Err
}

// Scrub walks every SSTable of every region, frame by frame, verifying
// each block's CRC against the bytes actually on disk (the block cache
// is bypassed — a scrub that reported cached decodes would certify
// nothing about the media). Tables that fail verification are
// QUARANTINED: moved off the read path so subsequent reads that could
// touch their key range fail with a typed CorruptionError instead of
// silently missing rows, while the file itself is never deleted — the
// bytes stay on disk for offline repair. The pass is reported per file
// and never stops early on corruption; only the view's guard (deadline,
// cancellation) interrupts it.
//
// The verification reads are real, measured I/O and are charged to the
// view's metrics like any client-visible work.
func (c *Cluster) Scrub() (*ScrubReport, error) {
	rep := &ScrubReport{}
	s := c.state
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)

	for _, tn := range names {
		t, err := c.table(tn)
		if err != nil {
			continue // table dropped since the snapshot
		}
		for _, r := range t.regions {
			if err := c.CheckInterrupt(); err != nil {
				return rep, err
			}
			reports, stats, err := r.scrubRuns()
			c.chargeRPC(stats)
			for _, f := range reports {
				if f.Err != nil {
					rep.Corrupt++
				}
			}
			rep.Files = append(rep.Files, reports...)
			if err != nil {
				return rep, err
			}
		}
	}
	//lint:allow chargecheck every region's verification I/O is charged via chargeRPC as its scrubRuns OpStats come back; a cluster with no tables had nothing to bill
	return rep, nil
}

// Quarantined lists the file names currently quarantined across the
// cluster, sorted.
func (c *Cluster) Quarantined() []string {
	var out []string
	for _, t := range c.allTables() {
		for _, r := range t.regions {
			out = append(out, r.quarantinedNames()...)
		}
	}
	sort.Strings(out)
	return out
}

// scrubRuns verifies every on-disk run of every family store, moving the
// ones that fail to their store's quarantine, and returns per-file reports plus the measured
// verification I/O (the OpStats convention: this function is a metering
// primitive, the caller charges). A new quarantine is registered in the
// manifest before it returns, so no reopen puts the file back on the
// read path; the error is that save's. It holds the region write lock for
// the duration so no compaction can unlink a file mid-verification and
// masquerade as bit-rot.
func (r *Region) scrubRuns() ([]FileScrubReport, OpStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var stats OpStats
	var reports []FileScrubReport
	quarantined := false
	for _, st := range r.stores {
		keep := make([]run, 0, len(st.runs))
		for _, s := range st.runs {
			d, ok := s.(*diskSegment)
			if !ok {
				keep = append(keep, s)
				continue
			}
			blocks, ss, err := scrubSegment(d)
			stats.add(ss)
			reports = append(reports, FileScrubReport{
				Table:  r.table,
				Region: r.id,
				Family: st.family,
				Name:   d.name,
				Blocks: blocks,
				Bytes:  ss.BytesRead,
				Err:    err,
			})
			if err != nil {
				st.quarantined = append(st.quarantined, quarantinedRun{name: d.name, minRow: d.meta.minRow, maxRow: d.meta.maxRow})
				d.close()
				quarantined = true
			} else {
				keep = append(keep, s)
			}
		}
		st.runs = keep
	}
	if !quarantined {
		return reports, stats, nil
	}
	return reports, stats, r.store.registerSegments(r.manifestRecordLocked())
}

// scrubSegment reads every frame of one SSTable sequentially from the
// file — bypassing the block cache — and verifies its checksum,
// returning the frame count and the measured I/O. The first failure
// stops the walk: a bad length field makes every later offset
// untrustworthy anyway.
func scrubSegment(d *diskSegment) (int, OpStats, error) {
	var stats OpStats
	if d.fileLen < sstFooterLen {
		return 0, stats, corruptionAt(d.name, 0, corruptf("file of %d bytes is shorter than the footer", d.fileLen))
	}
	end := d.fileLen - sstFooterLen
	blocks := 0
	for off := uint64(0); off < end; {
		var hdr [4]byte
		if err := d.br.readAt(hdr[:], int64(off)); err != nil {
			return blocks, stats, err
		}
		n := uint64(binary.BigEndian.Uint32(hdr[:]))
		flen := n + blockFrameOverhead
		if n > maxBlockPayload || off+flen > end {
			return blocks, stats, corruptionAt(d.name, int64(off), corruptf("frame of %d payload bytes at offset %d overruns the block region ending at %d", n, off, end))
		}
		frame := make([]byte, flen)
		if err := d.br.readAt(frame, int64(off)); err != nil {
			return blocks, stats, err
		}
		if _, err := decodeFrame(frame); err != nil {
			return blocks, stats, corruptionAt(d.name, int64(off), err)
		}
		stats.BytesRead += flen
		stats.BlockReads++
		blocks++
		off += flen
	}
	var footer [sstFooterLen]byte
	if err := d.br.readAt(footer[:], int64(end)); err != nil {
		return blocks, stats, err
	}
	stats.BytesRead += sstFooterLen
	if got := binary.BigEndian.Uint64(footer[52:60]); got != sstMagic {
		return blocks, stats, corruptionAt(d.name, int64(end), corruptf("bad magic %016x", got))
	}
	return blocks, stats, nil
}

// quarantinedNames returns the region's quarantined file names.
func (r *Region) quarantinedNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var names []string
	for _, st := range r.stores {
		for _, d := range st.quarantined {
			names = append(names, d.name)
		}
	}
	return names
}

// errQuarantined is the typed error a read returns when its key range
// may intersect a quarantined table of a family it asked for: the data might exist but cannot be
// proven intact, and pretending the rows are absent would be silent
// data loss.
func errQuarantined(name string) error {
	return &CorruptionError{Path: name, Offset: -1, Err: corruptf("table is quarantined: checksum verification failed in a prior scrub")}
}

// quarantinedRun is what a region keeps of a quarantined SSTable: its
// name and row span. The file itself is closed, left on disk and never
// reopened, so a read is refused on the span alone: there is no bloom
// filter to consult.
type quarantinedRun struct {
	name, minRow, maxRow string
}

// overlapsRows reports whether the run's [minRow, maxRow] span
// intersects the scan range [start, end) ("" = unbounded).
func (q quarantinedRun) overlapsRows(start, end string) bool {
	return (end == "" || q.minRow < end) && (start == "" || q.maxRow >= start)
}
