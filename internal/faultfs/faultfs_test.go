package faultfs_test

import (
	"bytes"
	"errors"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/kvstore"
)

// create makes path through fsys, failing the test on error.
func create(t *testing.T, fsys *faultfs.FS, path string) kvstore.File {
	t.Helper()
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// write writes p to f, failing the test on error.
func write(t *testing.T, f kvstore.File, p string) {
	t.Helper()
	if _, err := f.Write([]byte(p)); err != nil {
		t.Fatal(err)
	}
}

// contents reads path straight from the real filesystem.
func contents(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestNthAndCountArming: a rule counts every matching operation, arms
// on the Nth, fires Count times and then lets the rest through; Nth 0
// arms on the first match, and Count 0 never disarms. Operations on
// other paths or of other kinds do not advance a rule's count.
func TestNthAndCountArming(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.New(nil,
		faultfs.Rule{PathContains: "a.log", Op: faultfs.OpWrite, Nth: 2, Count: 2},
		faultfs.Rule{PathContains: "b.log", Op: faultfs.OpWrite, Count: 1},
		faultfs.Rule{PathContains: "c.log", Op: faultfs.OpWrite, Nth: 3},
	)
	outcomes := func(name string, n int) string {
		f := create(t, fsys, filepath.Join(dir, name))
		out := ""
		for i := 0; i < n; i++ {
			if _, err := f.Write([]byte("x")); errors.Is(err, syscall.EIO) {
				out += "F"
			} else if err != nil {
				t.Fatalf("%s write %d: %v, want EIO or nothing", name, i+1, err)
			} else {
				out += "."
			}
			if err := f.Sync(); err != nil {
				t.Fatalf("%s sync %d: %v", name, i+1, err) // syncs are not writes
			}
		}
		return out
	}
	for _, c := range []struct{ name, want string }{
		{"a.log", ".FF.."},
		{"b.log", "F...."},
		{"c.log", "..FFF"},
	} {
		if got := outcomes(c.name, 5); got != c.want {
			t.Errorf("%s: writes went %s, want %s", c.name, got, c.want)
		}
	}
}

// TestLatencyBesideErrorRule: a latency rule and an error rule on the
// same operation both apply — the operation sleeps, then fails with the
// error rule's error. The latency rule alone delays without failing.
func TestLatencyBesideErrorRule(t *testing.T) {
	const delay = 30 * time.Millisecond
	injected := errors.New("injected")
	dir := t.TempDir()
	fsys := faultfs.New(nil,
		faultfs.Rule{Op: faultfs.OpSync, Mode: faultfs.ModeLatency, Latency: delay},
		faultfs.Rule{PathContains: "bad", Op: faultfs.OpSync, Err: injected},
	)
	for _, c := range []struct {
		name string
		want error
	}{{"bad.log", injected}, {"good.log", nil}} {
		f := create(t, fsys, filepath.Join(dir, c.name))
		start := time.Now()
		err := f.Sync()
		if took := time.Since(start); took < delay {
			t.Errorf("%s: sync took %v, want at least the %v latency", c.name, took, delay)
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: sync = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestTornAndShortWrites: a torn write leaves the first half of the
// buffer in the file and reports zero bytes and EIO; a short write
// leaves the same half and reports its length with io.ErrShortWrite.
func TestTornAndShortWrites(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.New(nil,
		faultfs.Rule{PathContains: "torn", Op: faultfs.OpWrite, Nth: 2, Count: 1, Mode: faultfs.ModeTornWrite},
		faultfs.Rule{PathContains: "short", Op: faultfs.OpWrite, Nth: 2, Count: 1, Mode: faultfs.ModeShortWrite},
	)
	for _, c := range []struct {
		name  string
		wantN int
		want  error
	}{{"torn", 0, syscall.EIO}, {"short", 4, io.ErrShortWrite}} {
		path := filepath.Join(dir, c.name)
		f := create(t, fsys, path)
		write(t, f, "head|")
		n, err := f.Write([]byte("abcdefgh"))
		if n != c.wantN || !errors.Is(err, c.want) {
			t.Errorf("%s write = %d, %v; want %d, %v", c.name, n, err, c.wantN, c.want)
		}
		if got := contents(t, path); got != "head|abcd" {
			t.Errorf("%s write left %q, want the first half after the acknowledged bytes", c.name, got)
		}
	}
}

// TestLyingSyncCrash: after a lying Sync, Crash truncates the file to
// its last honestly synced length — and follows the file through a
// Rename, as a MANIFEST's write-tmp-then-rename would move it. A file
// whose last Sync was honest keeps everything.
func TestLyingSyncCrash(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.New(nil)
	honest := filepath.Join(dir, "honest")
	h := create(t, fsys, honest)
	tmp, final := filepath.Join(dir, "MANIFEST.tmp"), filepath.Join(dir, "MANIFEST")
	m := create(t, fsys, tmp)
	for _, f := range []kvstore.File{h, m} {
		write(t, f, "synced|")
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	write(t, h, "also synced")
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}

	fsys.AddRule(faultfs.Rule{PathContains: "MANIFEST", Op: faultfs.OpSync, Mode: faultfs.ModeLyingSync})
	write(t, m, "lost in the cache")
	if err := m.Sync(); err != nil {
		t.Fatalf("lying sync = %v, want success", err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		t.Fatal(err)
	}
	if got := contents(t, final); got != "synced|lost in the cache" {
		t.Fatalf("before the crash the file holds %q", got)
	}
	if err := fsys.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := contents(t, final); got != "synced|" {
		t.Errorf("after the crash the renamed file holds %q, want its honestly synced %q", got, "synced|")
	}
	if got := contents(t, honest); got != "synced|also synced" {
		t.Errorf("after the crash the honest file holds %q", got)
	}
}

// TestTruncateLowersDurableLength: truncating a file below its synced
// length lowers what a later Crash rolls it back to, so the cut bytes
// never reappear.
func TestTruncateLowersDurableLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	fsys := faultfs.New(nil, faultfs.Rule{Op: faultfs.OpSync, Nth: 2, Mode: faultfs.ModeLyingSync})
	f := create(t, fsys, path)
	write(t, f, "0123456789")
	if err := f.Sync(); err != nil { // honest: 10 bytes durable
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	write(t, f, "abc")
	if err := f.Sync(); err != nil { // lies
		t.Fatal(err)
	}
	if err := fsys.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := contents(t, path); got != "0123" {
		t.Errorf("after truncate, lying sync and crash the file holds %q, want %q", got, "0123")
	}
}

// TestBitRotRepeatable: bit-rot flips exactly one bit of what a read
// returns, leaves the file itself alone, and flips the same bit for the
// same seed on the same schedule, run after run.
func TestBitRotRepeatable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "000001.sst")
	orig := bytes.Repeat([]byte("sstable block "), 20)
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	readRotted := func(seed int64) []byte {
		t.Helper()
		fsys := faultfs.New(nil, faultfs.Rule{PathContains: ".sst", Op: faultfs.OpRead, Mode: faultfs.ModeBitRot, Seed: seed})
		f, err := fsys.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		got := make([]byte, len(orig))
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := readRotted(42)
	flipped := 0
	for i := range orig {
		flipped += bits.OnesCount8(orig[i] ^ first[i])
	}
	if flipped != 1 {
		t.Errorf("bit-rot flipped %d bits, want 1", flipped)
	}
	if again := readRotted(42); !bytes.Equal(again, first) {
		t.Error("the same seed rotted a different bit on a second run")
	}
	if got := contents(t, path); got != string(orig) {
		t.Error("bit-rot changed the file on disk; it must only corrupt what reads return")
	}
}
