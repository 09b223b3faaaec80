//go:build !linux

package wal

import "os"

// openInPlace opens path for writes at an offset. O_DIRECT is Linux
// only; elsewhere in-place writes go through the page cache.
func openInPlace(path string) (*os.File, bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	return f, false, err
}

func fdatasync(f *os.File) error { return f.Sync() }
