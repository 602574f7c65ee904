package main

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kvstore"
)

// TestCountFSIsTransparent checks that the counting wrapper changes
// nothing the store can observe: bytes written come back unchanged,
// errors are the inner filesystem's own, and the counts match the
// traffic.
func TestCountFSIsTransparent(t *testing.T) {
	dir := t.TempDir()
	c := newCountFS(kvstore.DefaultVFS())
	path := filepath.Join(dir, "sub", "f")
	if err := c.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("rank-join "), 1000)

	f, err := c.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write(payload); err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(path); !errors.Is(err, fs.ErrExist) {
		t.Errorf("Create of an existing file: got %v, want fs.ErrExist", err)
	}
	if _, err := c.Open(filepath.Join(dir, "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Open of a missing file: got %v, want fs.ErrNotExist", err)
	}

	f, err = c.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back %d bytes (err %v), want the %d written", len(got), err, len(payload))
	}
	part := make([]byte, 10)
	if _, err := f.ReadAt(part, 10); err != nil || !bytes.Equal(part, payload[10:20]) {
		t.Errorf("ReadAt(10) = %q, %v", part, err)
	}
	if _, err := f.ReadAt(part, int64(len(payload))); err != io.EOF {
		t.Errorf("ReadAt past the end: got %v, want io.EOF", err)
	}
	if st, err := f.Stat(); err != nil || st.Size() != int64(len(payload)) {
		t.Errorf("Stat size = %v, %v", st, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(path, path+"2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(path + "2"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + "2"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("file survived Remove: %v", err)
	}

	n := c.counts()
	if n.WriteCalls != 1 || n.WriteBytes != uint64(len(payload)) {
		t.Errorf("writes: %d calls, %d bytes; want 1 call, %d bytes", n.WriteCalls, n.WriteBytes, len(payload))
	}
	if n.SyncCalls != 2 {
		t.Errorf("syncs: %d, want 2 (file + directory)", n.SyncCalls)
	}
	if n.ReadBytes != uint64(len(payload))+10 {
		t.Errorf("read bytes: %d, want %d", n.ReadBytes, len(payload)+10)
	}
	if n.Busy != 0 {
		t.Errorf("busy time %v recorded with timing off", n.Busy)
	}
	c.timing.Store(true)
	if err := c.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if c.counts().Busy <= 0 {
		t.Error("no busy time recorded with timing on")
	}
}
