package main

import (
	"strings"
	"sync"
	"time"

	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/wal"
)

// countingFS is wal.OSFS with the log's device traffic counted: bytes
// written to segment files, and each fsync timed. Checkpoint files
// (written as *.tmp, then renamed) are left out so bytes per
// transaction is the log's own write amplification. The committer
// writes from its own goroutine, hence the mutex.
type countingFS struct {
	wal.OSFS
	mu       sync.Mutex
	bytes    int64
	fsyncsUs []float64
}

func (c *countingFS) OpenAppend(path string) (wal.File, error) {
	f, err := c.OSFS.OpenAppend(path)
	if err != nil || strings.HasSuffix(path, ".tmp") {
		return f, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	wal.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	f.fs.mu.Lock()
	f.fs.fsyncsUs = append(f.fs.fsyncsUs, us)
	f.fs.mu.Unlock()
	return err
}

// walCounts is a snapshot of a countingFS.
type walCounts struct {
	bytes  int64
	fsyncs int
}

func (c *countingFS) snapshot() walCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return walCounts{bytes: c.bytes, fsyncs: len(c.fsyncsUs)}
}

func (c *countingFS) fsyncsSince(n int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.fsyncsUs[n:]...)
}

// tracedCommitter stands in for the wal.Manager as the maintainer's
// exported Committer and records how long the pipeline blocks on
// durability: BeginWindow's synchronous part, the wait at the commit
// fence, and the per-transaction Commit the assertion checker drives.
// What the log does under the window's compute is not on the blocking
// path and is not charged here.
type tracedCommitter struct {
	inner maintain.WindowCommitter
	tr    *tracer
}

// Span names the wal metrics are read from: each marks one commit.
const (
	spanCommit    = "Commit"
	spanFenceWait = "commit fence wait"
)

func (c *tracedCommitter) Commit(txns int) (uint64, error) {
	id := c.tr.start(layerWAL, spanCommit)
	lsn, err := c.inner.Commit(txns)
	c.tr.end(id)
	return lsn, err
}

func (c *tracedCommitter) BeginWindow(w delta.Coalesced, txns int) func() (uint64, error) {
	id := c.tr.start(layerWAL, "BeginWindow")
	wait := c.inner.BeginWindow(w, txns)
	c.tr.end(id)
	return func() (uint64, error) {
		id := c.tr.start(layerWAL, spanFenceWait)
		lsn, err := wait()
		c.tr.end(id)
		return lsn, err
	}
}
