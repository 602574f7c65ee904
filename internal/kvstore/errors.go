package kvstore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"time"
)

// This file is the typed failure taxonomy of the storage layer. Apart
// from FormatVersionError (a file from another format version, met at
// open), every durable-path error surfaces as one of two kinds:
//
//   - CorruptionError: the bytes came back, but they are wrong — a CRC
//     mismatch, an impossible frame length, a WAL record that fails its
//     checksum mid-log. Retrying cannot help; the error names the file
//     and offset so an operator (or Scrub) can find the damage.
//   - IOError: the operation itself failed — EIO, a short read, a
//     failed fsync. Transient read failures are retried with bounded
//     backoff before one of these escapes.
//
// Both unwrap cleanly: errors.Is(err, ErrCorruption) matches any
// corruption (including the package's older errCorruptBlock sentinel),
// and errors.As extracts the struct for the file/offset detail.

// ErrCorruption is the sentinel every CorruptionError matches via
// errors.Is. It aliases the block codec's internal sentinel so existing
// errCorruptBlock wrapping participates in the same taxonomy.
var ErrCorruption = errCorruptBlock

// ErrNoTable matches, via errors.Is, the error of a call that names a
// table the cluster does not hold.
var ErrNoTable = errors.New("kvstore: no table")

// CorruptionError reports durably-stored bytes that failed
// verification, naming the file and byte offset of the damage.
type CorruptionError struct {
	// Path is the offending file (name within the store directory, or
	// a full path for WALs).
	Path string
	// Offset is the byte offset of the corrupt frame or record; -1 when
	// unknown.
	Offset int64
	// Err is the underlying detail (wraps errCorruptBlock).
	Err error
}

func (e *CorruptionError) Error() string {
	if e.Offset >= 0 {
		return fmt.Sprintf("kvstore: corruption in %s at offset %d: %v", e.Path, e.Offset, e.Err)
	}
	return fmt.Sprintf("kvstore: corruption in %s: %v", e.Path, e.Err)
}

func (e *CorruptionError) Unwrap() error { return e.Err }

// corruptionAt wraps err (which should already wrap errCorruptBlock)
// with the file and offset it was detected at. Errors already carrying
// a location keep the innermost one — the first detection is the most
// precise.
func corruptionAt(path string, offset int64, err error) error {
	var ce *CorruptionError
	if errors.As(err, &ce) {
		return err
	}
	if !errors.Is(err, errCorruptBlock) {
		err = fmt.Errorf("%w: %v", errCorruptBlock, err)
	}
	return &CorruptionError{Path: path, Offset: offset, Err: err}
}

// FormatVersionError reports a durable artifact written in a format
// version this build does not read: the MANIFEST, an SSTable, or the
// catalog a layer above keeps in the MANIFEST. It is not corruption —
// the bytes are intact — so it does not match ErrCorruption: the store
// must be rebuilt, and Scrub/repair cannot help.
type FormatVersionError struct {
	Path      string // offending file (name within the store directory), or "catalog"
	Version   uint32 // version found in the file
	Supported uint32 // the one version this build reads and writes
}

func (e *FormatVersionError) Error() string {
	return fmt.Sprintf("kvstore: %s has format version %d, this build reads only version %d", e.Path, e.Version, e.Supported)
}

// IOError reports a failed filesystem operation on the durable path,
// after any applicable retries were exhausted.
type IOError struct {
	Path string // offending file
	Op   string // "read", "write", "sync", "open", ...
	Err  error
}

func (e *IOError) Error() string {
	return fmt.Sprintf("kvstore: %s %s: %v", e.Op, e.Path, e.Err)
}

func (e *IOError) Unwrap() error { return e.Err }

// Read-retry policy: transient read errors (EIO from a flaky disk, not
// corruption — the bytes never arrived) are retried a bounded number of
// times with linear backoff before an IOError escapes. Package-level so
// fault-injection tests can tighten the schedule; the defaults add at
// most ~3 ms to a doomed read.
var (
	// readRetryAttempts is the total number of tries per read.
	readRetryAttempts = 3
	// readRetryBackoff is the base delay between tries (doubled each
	// retry).
	readRetryBackoff = time.Millisecond
)

// retryableRead reports whether a read error is worth retrying:
// anything except EOF-family errors (stable short files) and path
// errors (the file is gone — retrying cannot restore it).
func retryableRead(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, fs.ErrNotExist) {
		return false
	}
	return true
}

// readFullAt fills p from offset off of f, retrying transient errors
// with bounded backoff. A stable short read returns a corruption error
// (the file ends where data should be); exhausted retries return an
// IOError naming the file.
func readFullAt(f File, path string, p []byte, off int64) error {
	var lastErr error
	for attempt := 0; attempt < readRetryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(readRetryBackoff << (attempt - 1))
		}
		n, err := f.ReadAt(p, off)
		if err == nil || (err == io.EOF && n == len(p)) {
			if n != len(p) {
				return corruptionAt(path, off, corruptf("short read: %d of %d bytes at %d", n, len(p), off))
			}
			return nil
		}
		if !retryableRead(err) {
			if n < len(p) {
				// The file stably ends mid-frame: truncation damage.
				return corruptionAt(path, off, corruptf("short read: %d of %d bytes at %d: %v", n, len(p), off, err))
			}
			return &IOError{Path: path, Op: "read", Err: err}
		}
		lastErr = err
	}
	return &IOError{Path: path, Op: "read", Err: lastErr}
}
