//go:build linux

package wal

import (
	"errors"
	"os"
	"syscall"
)

// openInPlace opens path for writes at an offset, with O_DIRECT unless
// the filesystem refuses it (EINVAL: tmpfs before Linux 6.6, and others).
func openInPlace(path string) (f *os.File, direct bool, err error) {
	if !noDirectIO.Load() {
		f, err = os.OpenFile(path, os.O_RDWR|syscall.O_DIRECT, 0)
		if err == nil {
			return f, true, nil
		}
		if !errors.Is(err, syscall.EINVAL) {
			return nil, false, err
		}
	}
	f, err = os.OpenFile(path, os.O_RDWR, 0)
	return f, false, err
}

// fdatasync flushes f's data and what metadata reading it back needs,
// and skips the rest (timestamps) that fsync would also commit.
func fdatasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			if err != nil {
				return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
			}
			return nil
		}
	}
}
