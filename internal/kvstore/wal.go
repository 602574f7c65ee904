package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// wal is a disk-backed region's write-ahead log: every mutation is
// appended to the region's log file before it reaches the memtable, so
// cold start can rebuild the memtables by replaying the file over the
// flushed SSTables. The file is the only copy of the log — nothing of it
// stays in memory once openWAL has handed its valid prefix to the one
// replay — and a memory-only region has no log at all (a nil *wal, which
// every method accepts): there is no crash for it to survive.
//
// Record layout: a 10-byte header [1B flags][4B BE klen][4B BE vlen]
// [1B pad], the key, the value, then a 4-byte CRC32 (IEEE) over
// everything before it. The trailing CRC is what lets openWAL tell two
// failure modes apart:
//
//   - A torn tail — crash mid-append — is an incomplete final record,
//     or a complete final record whose CRC fails (the bytes landed out
//     of order). It is trimmed and recovery proceeds: the append never
//     returned success, so no acknowledged write is lost.
//   - A CRC failure in the MIDDLE of the log (valid records follow) can
//     only be at-rest damage. That is a CorruptionError naming the file
//     and offset — never a silent trim of acknowledged writes.
//
// Appends write to the file without an fsync per record — the group-
// commit tradeoff every production WAL makes; the crash tests exercise
// the torn-tail trim in openWAL rather than pretending fsync-per-record.
type wal struct {
	f    File
	path string
	// length is the file's acknowledged length: every byte before it
	// belongs to an append that returned success. A failed append
	// truncates the file back to it.
	length uint64
	// scratch is the record encoding buffer, reused across appends.
	scratch []byte
	// broken is set when a failed append could not roll the FILE back
	// to its last acknowledged length: the file offset is no longer
	// trusted, so every later append must fail rather than write a
	// record after a torn fragment — that would turn an innocent torn
	// tail into mid-log corruption poisoning acknowledged writes at the
	// next open.
	broken error
}

// walRecordOverhead is the per-record framing: 10-byte header plus the
// trailing 4-byte CRC.
const walRecordOverhead = 14

// openWAL opens (or creates) a region's log file through the store's
// VFS and returns it with the file's valid prefix, which the caller
// replays once and drops. A torn final record (crash mid-append) is
// trimmed from the file; corruption earlier in the log fails the open
// with a typed CorruptionError.
func openWAL(fsys VFS, path string) (*wal, []byte, error) {
	f, err := fsys.OpenFile(path, osReadWrite, 0o644)
	if err != nil {
		return nil, nil, &IOError{Path: path, Op: "open", Err: err}
	}
	buf, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, &IOError{Path: path, Op: "read", Err: err}
	}
	valid, _, err := walValidPrefix(buf)
	if err != nil {
		f.Close()
		return nil, nil, corruptionAt(path, int64(valid), err)
	}
	if valid != len(buf) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, &IOError{Path: path, Op: "truncate", Err: err}
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, &IOError{Path: path, Op: "seek", Err: err}
	}
	return &wal{f: f, path: path, length: uint64(valid)}, buf[:valid], nil
}

// walValidPrefix scans records and returns the byte length of the valid
// prefix plus the record count. An incomplete or checksum-failing FINAL
// record is a torn tail: the prefix simply ends before it. A checksum
// failure with more log after it is at-rest corruption: the returned
// error (wrapping errCorruptBlock) names the record's offset via the
// returned prefix length.
func walValidPrefix(buf []byte) (int, int, error) {
	off, n := 0, 0
	for off+walRecordOverhead <= len(buf) {
		klen := int(binary.BigEndian.Uint32(buf[off+1 : off+5]))
		vlen := int(binary.BigEndian.Uint32(buf[off+5 : off+9]))
		end := off + walRecordOverhead + klen + vlen
		if klen < 0 || vlen < 0 || end < off || end > len(buf) {
			break // torn tail: the record was still being appended
		}
		body := buf[off : end-4]
		want := binary.BigEndian.Uint32(buf[end-4 : end])
		if crc32.ChecksumIEEE(body) != want {
			if end == len(buf) {
				break // torn tail: the final record's bytes landed partially
			}
			return off, n, corruptf("WAL record %d at offset %d fails its checksum with %d bytes of log after it", n, off, len(buf)-end)
		}
		off = end
		n++
	}
	return off, n, nil
}

// append serializes one cell mutation to the log file (nothing without
// a log).
func (w *wal) append(key string, c *Cell) error {
	if w == nil {
		return nil
	}
	if w.broken != nil {
		return w.broken
	}
	flags := byte(0)
	if c.Tombstone {
		flags = 1
	}
	rec := append(w.scratch[:0], flags)
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(key)))
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(c.Value)))
	rec = append(rec, 0)
	rec = append(rec, key...)
	rec = append(rec, c.Value...)
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	w.scratch = rec
	if _, err := w.f.Write(rec); err != nil {
		// The bytes may be partially down (a torn record). Roll the file
		// back to its acknowledged length: a later append landing after
		// the fragment would read as mid-log corruption at the next open,
		// poisoning the acknowledged records behind it.
		if terr := w.f.Truncate(int64(w.length)); terr != nil {
			w.broken = &IOError{Path: w.path, Op: "truncate", Err: terr}
		} else if _, serr := w.f.Seek(int64(w.length), io.SeekStart); serr != nil {
			w.broken = &IOError{Path: w.path, Op: "seek", Err: serr}
		}
		return &IOError{Path: w.path, Op: "write", Err: err}
	}
	w.length += uint64(len(rec))
	return nil
}

// size returns the log file's acknowledged byte length (0 without a log).
func (w *wal) size() uint64 {
	if w == nil {
		return 0
	}
	return w.length
}

// truncate empties the log file after a successful flush.
func (w *wal) truncate() error {
	if w == nil {
		return nil
	}
	if err := w.f.Truncate(0); err != nil {
		return &IOError{Path: w.path, Op: "truncate", Err: err}
	}
	w.length = 0
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return &IOError{Path: w.path, Op: "seek", Err: err}
	}
	return nil
}

// close releases the log file, if any.
func (w *wal) close() error {
	if w == nil || w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// replayWAL decodes the records of a log's valid prefix (openWAL's) and
// hands them to apply in append order. value is a view of logged, valid
// only during the call, and nil for a zero-length value.
func replayWAL(logged []byte, apply func(key string, value []byte, tombstone bool) error) error {
	for off := 0; off < len(logged); {
		if off+walRecordOverhead > len(logged) {
			return fmt.Errorf("kvstore: truncated WAL header at %d", off)
		}
		flags := logged[off]
		klen := int(binary.BigEndian.Uint32(logged[off+1 : off+5]))
		vlen := int(binary.BigEndian.Uint32(logged[off+5 : off+9]))
		off += 10
		if off+klen+vlen+4 > len(logged) {
			return fmt.Errorf("kvstore: truncated WAL record at %d", off)
		}
		key := string(logged[off : off+klen])
		var value []byte
		if vlen > 0 {
			value = logged[off+klen : off+klen+vlen : off+klen+vlen]
		}
		off += klen + vlen + 4
		if err := apply(key, value, flags&1 == 1); err != nil {
			return err
		}
	}
	return nil
}
