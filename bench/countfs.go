package main

import (
	"io/fs"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
)

// countFS wraps a kvstore.VFS and counts what the store asks of the
// filesystem: calls, bytes and fsyncs, with atomic adds only, so it can
// stay on during timed rounds. Time spent inside the wrapped calls is
// measured only while timing is switched on (the traced round): two
// clock reads per call are cheap but not free.
type countFS struct {
	inner  kvstore.VFS
	timing atomic.Bool

	writeCalls, writeBytes atomic.Uint64
	readCalls, readBytes   atomic.Uint64
	syncCalls              atomic.Uint64
	busyNanos              atomic.Int64
}

func newCountFS(inner kvstore.VFS) *countFS { return &countFS{inner: inner} }

// fsCounts is one reading of a countFS.
type fsCounts struct {
	WriteCalls, WriteBytes uint64
	ReadCalls, ReadBytes   uint64
	SyncCalls              uint64
	Busy                   time.Duration
}

func (c *countFS) counts() fsCounts {
	return fsCounts{
		WriteCalls: c.writeCalls.Load(), WriteBytes: c.writeBytes.Load(),
		ReadCalls: c.readCalls.Load(), ReadBytes: c.readBytes.Load(),
		SyncCalls: c.syncCalls.Load(),
		Busy:      time.Duration(c.busyNanos.Load()),
	}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		WriteCalls: a.WriteCalls - b.WriteCalls, WriteBytes: a.WriteBytes - b.WriteBytes,
		ReadCalls: a.ReadCalls - b.ReadCalls, ReadBytes: a.ReadBytes - b.ReadBytes,
		SyncCalls: a.SyncCalls - b.SyncCalls,
		Busy:      a.Busy - b.Busy,
	}
}

func (a fsCounts) add(b fsCounts) fsCounts {
	return fsCounts{
		WriteCalls: a.WriteCalls + b.WriteCalls, WriteBytes: a.WriteBytes + b.WriteBytes,
		ReadCalls: a.ReadCalls + b.ReadCalls, ReadBytes: a.ReadBytes + b.ReadBytes,
		SyncCalls: a.SyncCalls + b.SyncCalls,
		Busy:      a.Busy + b.Busy,
	}
}

// begin and end bracket a wrapped call, adding its duration to the busy
// total when timing is on. The zero time is the "timing off" marker.
func (c *countFS) begin() time.Time {
	if c.timing.Load() {
		return time.Now()
	}
	return time.Time{}
}

func (c *countFS) end(t0 time.Time) {
	if !t0.IsZero() {
		c.busyNanos.Add(int64(time.Since(t0)))
	}
}

func (c *countFS) wrap(f kvstore.File, err error) (kvstore.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) OpenFile(path string, flag int, perm os.FileMode) (kvstore.File, error) {
	return c.wrap(c.inner.OpenFile(path, flag, perm))
}
func (c *countFS) Open(path string) (kvstore.File, error)   { return c.wrap(c.inner.Open(path)) }
func (c *countFS) Create(path string) (kvstore.File, error) { return c.wrap(c.inner.Create(path)) }
func (c *countFS) MkdirAll(path string, perm os.FileMode) error {
	return c.inner.MkdirAll(path, perm)
}
func (c *countFS) ReadDir(path string) ([]fs.DirEntry, error) { return c.inner.ReadDir(path) }
func (c *countFS) Rename(oldpath, newpath string) error       { return c.inner.Rename(oldpath, newpath) }
func (c *countFS) Remove(path string) error                   { return c.inner.Remove(path) }

// SyncDir counts as a sync: it is an fsync of the directory.
func (c *countFS) SyncDir(path string) error {
	t0 := c.begin()
	err := c.inner.SyncDir(path)
	c.end(t0)
	c.syncCalls.Add(1)
	return err
}

// countFile counts one open file's traffic; everything not counted
// (Seek, Close, Truncate, Stat) passes through the embedded File.
type countFile struct {
	kvstore.File
	fs *countFS
}

func (f *countFile) Read(p []byte) (int, error) {
	t0 := f.fs.begin()
	n, err := f.File.Read(p)
	f.fs.end(t0)
	f.fs.readCalls.Add(1)
	f.fs.readBytes.Add(uint64(n))
	return n, err
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := f.fs.begin()
	n, err := f.File.ReadAt(p, off)
	f.fs.end(t0)
	f.fs.readCalls.Add(1)
	f.fs.readBytes.Add(uint64(n))
	return n, err
}

func (f *countFile) Write(p []byte) (int, error) {
	t0 := f.fs.begin()
	n, err := f.File.Write(p)
	f.fs.end(t0)
	f.fs.writeCalls.Add(1)
	f.fs.writeBytes.Add(uint64(n))
	return n, err
}

func (f *countFile) Sync() error {
	t0 := f.fs.begin()
	err := f.File.Sync()
	f.fs.end(t0)
	f.fs.syncCalls.Add(1)
	return err
}
