package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// reservedSegBytes gives a few dozen test records per segment, so the
// log below spans several segments and rotates through spares.
const reservedSegBytes = 1024

// TestReservedSegmentRecovery reads WAL directories copied while the log
// was open, so every segment carries what a crash leaves: the open
// segment its reserved zeros, and the others the zeros of a truncation
// that had not reached the disk. It runs on both write paths, O_DIRECT
// and the page cache, on whatever filesystem TMPDIR names.
func TestReservedSegmentRecovery(t *testing.T) {
	for _, direct := range []bool{true, false} {
		name := "page-cache"
		if direct {
			name = "direct"
		}
		t.Run(name, func(t *testing.T) {
			defer SetDirectIO(SetDirectIO(direct))
			t.Run("open-copy-recovers-every-record", func(t *testing.T) {
				src, open, n := openReservedLog(t, direct)
				// The open segment is its records, then nothing but zeros.
				segs := segFiles(t, src)
				data := readFile(t, segs[len(segs)-1])
				if _, _, valid, _ := scanSegment(data); valid == len(data) || !allZero(data[valid:]) {
					t.Fatalf("open segment: %d bytes, %d of records, then not only zeros", len(data), valid)
				}
				copyDir := snapshotDir(t, src)
				if err := open.Close(); err != nil {
					t.Fatal(err)
				}
				recs := replayAll(t, OSFS{}, copyDir, testSchema(), 0)
				if len(recs) != n || recs[n-1].LSN != uint64(n) {
					t.Fatalf("recovered %d records, want %d", len(recs), n)
				}
				// The scan cut every zero tail and dropped the spare: the
				// copy now holds the closed log's bytes, file for file.
				want, got := dirImage(t, src), dirImage(t, copyDir)
				if len(got) != len(want) {
					t.Fatalf("recovered copy has %d files, the closed log %d", len(got), len(want))
				}
				for name, w := range want {
					if !bytes.Equal(got[name], w) {
						t.Fatalf("%s: %d bytes after recovery, the closed log has %d", name, len(got[name]), len(w))
					}
				}
			})
			t.Run("torn-frame-in-zeros-cut", func(t *testing.T) {
				src, open, n := openReservedLog(t, direct)
				defer open.Close()
				dir := snapshotDir(t, src)
				segs := segFiles(t, dir)
				last := segs[len(segs)-1]
				data := readFile(t, last)
				_, recs, valid, _ := scanSegment(data)
				if len(recs) == 0 {
					t.Fatal("the open segment holds no record")
				}
				// Half of the segment's first frame, after its last record.
				frame := data[segHeaderLen:]
				frame = frame[:frameOverhead+int(binary.LittleEndian.Uint32(frame))]
				writeAt(t, last, frame[:len(frame)/2], int64(valid))
				if got := replayAll(t, OSFS{}, dir, testSchema(), 0); len(got) != n {
					t.Fatalf("recovered %d records, want %d", len(got), n)
				}
				if fi, err := os.Stat(last); err != nil || fi.Size() != int64(valid) {
					t.Fatalf("torn tail not cut to the %d-byte valid prefix: %v %v", valid, fi.Size(), err)
				}
			})
			t.Run("junk-after-non-final-segment-drops-the-rest", func(t *testing.T) {
				src, open, _ := openReservedLog(t, direct)
				defer open.Close()
				dir := snapshotDir(t, src)
				segs := segFiles(t, dir)
				first := readFile(t, segs[0])
				_, recs, valid, _ := scanSegment(first)
				writeAt(t, segs[0], []byte{0x5a}, int64(valid)+100)
				got := replayAll(t, OSFS{}, dir, testSchema(), 0)
				if len(got) != len(recs) {
					t.Fatalf("recovered %d records, want the first segment's %d", len(got), len(recs))
				}
				if left := segFiles(t, dir); len(left) != 1 {
					t.Fatalf("%d segments left, want 1: %v", len(left), left)
				}
			})
			t.Run("reopened-tail-appends-after-last-record", func(t *testing.T) {
				src, open, n := openReservedLog(t, direct)
				defer open.Close()
				dir := snapshotDir(t, src)
				segs := segFiles(t, dir)
				_, _, valid, _ := scanSegment(readFile(t, segs[len(segs)-1]))
				l, err := OpenLog(OSFS{}, dir, Options{SegmentBytes: reservedSegBytes})
				if err != nil {
					t.Fatal(err)
				}
				if lsn, err := l.CommitWindow(testWindow(testSchema(), n+1), 1); err != nil || lsn != uint64(n+1) {
					t.Fatalf("append after reopen: LSN %d, %v", lsn, err)
				}
				if len(l.segs) != len(segs) {
					t.Fatalf("the record opened segment %d, want the tail %d", len(l.segs), len(segs))
				}
				checkPath(t, l, direct)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				got := replayAll(t, OSFS{}, dir, testSchema(), 0)
				if len(got) != n+1 || got[n].LSN != uint64(n+1) || got[n].Window[0].Rel != "T" {
					t.Fatalf("recovered %d records, want %d ending at the appended one", len(got), n+1)
				}
				tail := readFile(t, segs[len(segs)-1])
				if _, recs, v, _ := scanSegment(tail); v != len(tail) || v <= valid || recs[len(recs)-1].lsn != uint64(n+1) {
					t.Fatalf("tail segment %d bytes, valid %d (was %d): the record is not right after the old last one", len(tail), v, valid)
				}
			})
		})
	}
}

// openReservedLog commits records on the real filesystem until the log
// spans three segments and returns its directory, the open log and the
// number of records.
func openReservedLog(t *testing.T, direct bool) (string, *Log, int) {
	t.Helper()
	dir := t.TempDir()
	l, err := OpenLog(OSFS{}, dir, Options{SegmentBytes: reservedSegBytes})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for len(l.segs) < 3 {
		n++
		if _, err := l.CommitWindow(testWindow(testSchema(), n), 1); err != nil {
			t.Fatal(err)
		}
	}
	checkPath(t, l, direct)
	return dir, l, n
}

// checkPath fails a page-cache run whose open segment has O_DIRECT, and
// says when a direct run got the page cache (the filesystem refused).
func checkPath(t *testing.T, l *Log, direct bool) {
	t.Helper()
	switch got := DirectIO(l.cur); {
	case got && !direct:
		t.Fatal("the page-cache run writes with O_DIRECT")
	case !got && direct:
		t.Log("O_DIRECT refused by this filesystem: the page-cache path ran")
	}
}

// snapshotDir copies dir as it is on disk, and pads every segment that
// has no zero tail with zeros, as a truncation lost in a crash leaves it.
func snapshotDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	names, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data := readFile(t, filepath.Join(dir, name))
		if _, ok := parseSegName(name); ok {
			if _, _, valid, _ := scanSegment(data); valid == len(data) {
				data = append(data, make([]byte, blockSize)...)
			}
		}
		if err := os.WriteFile(filepath.Join(out, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			out = append(out, filepath.Join(dir, name))
		}
	}
	return out
}

func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		out[name] = readFile(t, filepath.Join(dir, name))
	}
	return out
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeAt(t *testing.T, path string, p []byte, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(p, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
