package kvstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// walFixture builds a WAL file at path containing n acknowledged
// records, returning the file's bytes.
func walFixture(t *testing.T, path string, n int) []byte {
	t.Helper()
	w, _, err := openWAL(DefaultVFS(), path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c := &Cell{Value: []byte{byte(i), byte(i >> 8), 0xab}}
		if err := w.append(cellKey("row", "cf", "q", int64(i+1), uint64(i+1)), c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(buf)) != w.size() {
		t.Fatalf("file holds %d bytes, the log acknowledged %d", len(buf), w.size())
	}
	return buf
}

// replayCount reopens the WAL and counts replayed records, checking the
// count against walValidPrefix's and the log's size against the file's.
func replayCount(t *testing.T, path string) int {
	t.Helper()
	w, logged, err := openWAL(DefaultVFS(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	n := 0
	if err := replayWAL(logged, func(string, []byte, bool) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if _, records, _ := walValidPrefix(logged); n != records {
		t.Fatalf("replayed %d records, walValidPrefix counts %d", n, records)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.size() != uint64(len(logged)) || fi.Size() != int64(len(logged)) {
		t.Fatalf("log size %d, file %d bytes, valid prefix %d bytes: want all equal", w.size(), fi.Size(), len(logged))
	}
	return n
}

// TestWALTornTailIncompleteRecord pins the crash-mid-append contract: an
// incomplete final record (the write never returned success) is trimmed
// and recovery proceeds with every acknowledged record intact.
func TestWALTornTailIncompleteRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.wal")
	buf := walFixture(t, path, 5)
	// Tear the tail: half of a sixth record's bytes land.
	torn := append(append([]byte(nil), buf...), buf[:len(buf)/11]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayCount(t, path); got != 5 {
		t.Fatalf("recovered %d records, want 5", got)
	}
	// The trim must persist: the file now holds exactly the valid prefix.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(buf)) {
		t.Errorf("file is %d bytes after trim, want %d", fi.Size(), len(buf))
	}
}

// TestWALTornTailFinalRecordCRC pins the other torn-tail shape: the
// final record is complete-length but its bytes landed out of order, so
// its CRC fails. That record was never acknowledged either — trim it.
func TestWALTornTailFinalRecordCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.wal")
	buf := walFixture(t, path, 5)
	mut := append([]byte(nil), buf...)
	mut[len(mut)-1] ^= 0xff // corrupt the final record's CRC
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayCount(t, path); got != 4 {
		t.Fatalf("recovered %d records, want 4 (torn final record trimmed)", got)
	}
}

// TestWALMidLogCorruptionTyped pins the at-rest damage contract: a CRC
// failure with valid log after it cannot be a torn tail, so the open
// fails loudly with a CorruptionError naming the file and offset —
// never a silent trim of acknowledged writes.
func TestWALMidLogCorruptionTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.wal")
	buf := walFixture(t, path, 5)
	mut := append([]byte(nil), buf...)
	mut[walRecordOverhead+2] ^= 0x40 // rot a byte inside record 0's key
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := openWAL(DefaultVFS(), path)
	if err == nil {
		t.Fatal("mid-log corruption opened cleanly")
	}
	if !errors.Is(err, ErrCorruption) {
		t.Fatalf("err = %v, want ErrCorruption", err)
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T, want *CorruptionError", err)
	}
	if ce.Path != path {
		t.Errorf("CorruptionError.Path = %q, want %q", ce.Path, path)
	}
	if ce.Offset != 0 {
		t.Errorf("CorruptionError.Offset = %d, want 0 (first record)", ce.Offset)
	}
}

// TestWALValidPrefixHostileLengths feeds headers whose length fields
// point past the buffer or wrap around; both are torn tails, not
// corruption, because a record that never fully landed proves nothing
// about the media.
func TestWALValidPrefixHostileLengths(t *testing.T) {
	rec := func(key string, val []byte) []byte {
		var hdr [10]byte
		binary.BigEndian.PutUint32(hdr[1:5], uint32(len(key)))
		binary.BigEndian.PutUint32(hdr[5:9], uint32(len(val)))
		b := append(hdr[:], key...)
		b = append(b, val...)
		var crc [4]byte
		binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(b))
		return append(b, crc[:]...)
	}
	good := rec("k", []byte("v"))
	cases := map[string][]byte{
		"huge klen":    append(append([]byte(nil), good...), 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1, 0),
		"wraparound":   append(append([]byte(nil), good...), 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0),
		"header stub":  append(append([]byte(nil), good...), 0, 0, 0),
		"empty buffer": nil,
	}
	for name, buf := range cases {
		valid, n, err := walValidPrefix(buf)
		if err != nil {
			t.Errorf("%s: unexpected error %v", name, err)
		}
		wantValid, wantN := len(good), 1
		if name == "empty buffer" {
			wantValid, wantN = 0, 0
		}
		if valid != wantValid || n != wantN {
			t.Errorf("%s: prefix = (%d, %d), want (%d, %d)", name, valid, n, wantValid, wantN)
		}
	}
}
