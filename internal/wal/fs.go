// Package wal implements the durability subsystem: a segmented,
// CRC32C-framed write-ahead log of base-relation deltas with group
// commit aligned to the maintenance pipeline's batch windows, view
// checkpoints, and incremental crash recovery that replays only the log
// tail through the normal delta pipeline.
//
// The filesystem is abstracted behind FS so the fault-injection harness
// (FaultFS) can crash the log at any mutating operation and recovery
// can be proven to converge to the committed prefix in every schedule.
package wal

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"unsafe"
)

// File is a log file handle. Writes land at its write position, which
// starts at the end of the file.
type File interface {
	Write(p []byte) (int, error)
	// Sync makes all previously written bytes durable.
	Sync() error
	// Reserve makes the file at least n bytes long, with durable zeros
	// past the write position, and does not move that position: later
	// writes land in place, into blocks that are already written, so no
	// write changes the file's size or extents.
	Reserve(n int64) error
	Close() error
}

// FS is the minimal filesystem surface the log needs. Paths are plain
// OS paths; ReadDir returns sorted base names.
type FS interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]string, error)
	ReadFile(path string) ([]byte, error)
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	Truncate(path string, size int64) error
	// Rename moves oldPath to newPath, replacing it, and makes the new
	// name durable.
	Rename(oldPath, newPath string) error
	Remove(path string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OSFS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f, path: path}, nil
}

func (OSFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

// Rename syncs the directory after the rename: a later fdatasync of the
// file does not carry its new name to disk.
func (OSFS) Rename(oldPath, newPath string) error {
	if err := os.Rename(oldPath, newPath); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(newPath))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (OSFS) Remove(path string) error { return os.Remove(path) }

// blockSize is the unit of an in-place write: O_DIRECT needs offsets,
// lengths and buffer addresses aligned to the device's logical block,
// and 4 KiB covers every common one.
const blockSize = 4096

// osFile appends through an O_APPEND handle until Reserve. From then on
// it writes in place, as PostgreSQL writes its last WAL page: blk holds
// the partly filled last block, and each write rewrites that block with
// the new bytes after it, whole blocks from an aligned buffer, with
// O_DIRECT where the filesystem accepts it and through the page cache
// where it does not. Rewriting the block cannot damage an acknowledged
// record: its bytes are rewritten unchanged, and a sector is written
// whole or not at all. Sync is then fdatasync: the write changed no
// metadata the data needs, so the flush is the only device trip left.
type osFile struct {
	f    *os.File
	path string

	inPlace bool
	direct  bool   // f has O_DIRECT
	pos     int64  // write position, once in place
	end     int64  // the file is written up to here: data, then zeros
	blk     []byte // aligned; blk[:pos%blockSize] is the last block's data
}

func (o *osFile) Write(p []byte) (int, error) {
	if !o.inPlace {
		return o.f.Write(p)
	}
	off := int(o.pos % blockSize)
	from := o.pos - int64(off)
	n := off + len(p)
	span := (n + blockSize - 1) &^ (blockSize - 1)
	if span > len(o.blk) {
		b := alignedBuf(span)
		copy(b, o.blk[:off])
		o.blk = b
	}
	copy(o.blk[off:], p)
	// The file holds zeros past pos; the block's tail is rewritten as such.
	clear(o.blk[n:span])
	if _, err := o.f.WriteAt(o.blk[:span], from); err != nil {
		return 0, err
	}
	o.pos += int64(len(p))
	o.end = max(o.end, from+int64(span))
	last := n &^ (blockSize - 1)
	copy(o.blk, o.blk[last:n])
	return len(p), nil
}

func (o *osFile) Sync() error {
	if o.inPlace {
		return fdatasync(o.f)
	}
	return o.f.Sync()
}

// Reserve writes the zeros with the handle that will write the records,
// in whole blocks from the one holding the write position (its data
// kept), then fsyncs them with the file's new size.
func (o *osFile) Reserve(n int64) error {
	if !o.inPlace {
		if err := o.toInPlace(); err != nil {
			return err
		}
	}
	at := o.end
	if at >= n {
		return nil
	}
	if off := int(at % blockSize); off != 0 {
		clear(o.blk[off:blockSize])
		if _, err := o.f.WriteAt(o.blk[:blockSize], at-int64(off)); err != nil {
			return err
		}
		at += int64(blockSize - off)
	}
	zeros := alignedBuf(256 << 10)
	for at < n {
		chunk := zeros
		if left := (n - at + blockSize - 1) &^ (blockSize - 1); left < int64(len(chunk)) {
			chunk = chunk[:left]
		}
		if _, err := o.f.WriteAt(chunk, at); err != nil {
			return err
		}
		at += int64(len(chunk))
	}
	if err := o.f.Sync(); err != nil {
		return err
	}
	o.end = at
	return nil
}

// toInPlace swaps the append handle for one that writes at an offset,
// with O_DIRECT where it is accepted, and loads the last block's data.
func (o *osFile) toInPlace() error {
	st, err := o.f.Stat()
	if err != nil {
		return err
	}
	g, direct, err := openInPlace(o.path)
	if err != nil {
		return err
	}
	pos := st.Size()
	from := pos &^ (blockSize - 1)
	blk := alignedBuf(blockSize)
	if n, err := g.ReadAt(blk, from); int64(n) < pos-from {
		g.Close()
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if err := o.f.Close(); err != nil {
		g.Close()
		return err
	}
	o.f, o.direct, o.inPlace = g, direct, true
	o.pos, o.end, o.blk = pos, pos, blk
	return nil
}

func (o *osFile) Close() error { return o.f.Close() }

// alignedBuf returns n zero bytes starting at a blockSize boundary.
func alignedBuf(n int) []byte {
	b := make([]byte, n+blockSize)
	skip := int(-uintptr(unsafe.Pointer(&b[0])) & (blockSize - 1))
	return b[skip : skip+n : skip+n]
}

// noDirectIO lets a test run the page-cache path where O_DIRECT works.
var noDirectIO atomic.Bool

// join builds a path inside the WAL directory; kept here so FaultFS and
// the log agree on path construction.
func join(dir, name string) string { return filepath.Join(dir, name) }
