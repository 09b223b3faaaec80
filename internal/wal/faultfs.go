package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrCrashed is returned by every FaultFS operation between an injected
// crash and the next Reboot, modelling a machine that is down.
var ErrCrashed = errors.New("wal: injected crash")

// FaultFS is a deterministic in-memory filesystem with crash injection.
// It tracks, per file, which prefix of the bytes has been fsynced. An
// injected crash aborts the scheduled operation and discards a
// pseudo-random suffix of every file's unsynced bytes — optionally
// tearing the surviving unsynced prefix with a single flipped bit —
// exactly the failure surface a real kernel exposes: synced data is
// intact, unsynced data is anything at all.
//
// Crashes are scheduled by operation index (SetCrashAfter), so a test
// can enumerate every crash point of a workload: run once to completion,
// read Ops(), then replay with a crash at each index.
type FaultFS struct {
	mu    sync.Mutex
	files map[string]*faultFile
	dirs  map[string]bool

	ops     int  // mutating operations performed
	crashAt int  // crash on the Nth mutating op (1-based); 0 = never
	crashed bool // down until Reboot
	seed    uint64

	// TornTail keeps a pseudo-random prefix of each file's unsynced
	// bytes at crash time instead of discarding them all.
	TornTail bool
	// FlipBit additionally corrupts one bit of the surviving unsynced
	// prefix (when TornTail kept any), modelling a torn sector write.
	FlipBit bool
}

type faultFile struct {
	data   []byte
	synced int // all of data[:synced] is durable
	// reserved is how far Reserve made the file: past data it holds
	// durable zeros, so an in-place write there is torn like an append
	// (between the last Sync and the write position) and zeros stay.
	reserved int
}

// image is the file as a reader sees it: data, then reserved zeros.
func (ff *faultFile) image() []byte {
	out := make([]byte, max(len(ff.data), ff.reserved))
	copy(out, ff.data)
	return out
}

// NewFaultFS returns an empty fault-injecting filesystem whose crash
// behaviour is derived deterministically from seed.
func NewFaultFS(seed uint64) *FaultFS {
	return &FaultFS{
		files: map[string]*faultFile{},
		dirs:  map[string]bool{},
		seed:  seed,
	}
}

// SetCrashAfter schedules a crash on the nth mutating operation
// (1-based): that operation is aborted and the filesystem goes down.
// n <= 0 cancels any scheduled crash.
func (f *FaultFS) SetCrashAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = n
}

// Ops returns the number of mutating operations performed so far; a
// completed run's count bounds the crash schedule for replays.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the filesystem is down.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Reboot brings a crashed filesystem back up. The surviving state is
// whatever doCrash left behind.
func (f *FaultFS) Reboot() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = false
}

// step gates one mutating operation: it returns ErrCrashed if the
// filesystem is down, and injects the scheduled crash when this
// operation's index matches. Callers hold f.mu.
func (f *FaultFS) step() error {
	if f.crashed {
		return ErrCrashed
	}
	f.ops++
	if f.crashAt > 0 && f.ops == f.crashAt {
		f.doCrash()
		return ErrCrashed
	}
	return nil
}

// doCrash takes the filesystem down, discarding a deterministic
// pseudo-random suffix of every file's unsynced bytes. Callers hold f.mu.
func (f *FaultFS) doCrash() {
	f.crashed = true
	rng := f.seed ^ uint64(f.ops)*0x9e3779b97f4a7c15
	next := func() uint64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	// Deterministic iteration order so a given (seed, crash point) pair
	// always yields the same surviving state.
	names := make([]string, 0, len(f.files))
	for n := range f.files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ff := f.files[n]
		unsynced := len(ff.data) - ff.synced
		if unsynced <= 0 {
			continue
		}
		keep := 0
		if f.TornTail {
			keep = int(next() % uint64(unsynced+1))
		}
		ff.data = ff.data[:ff.synced+keep]
		if f.FlipBit && keep > 0 && next()%2 == 0 {
			pos := ff.synced + int(next()%uint64(keep))
			ff.data[pos] ^= 1 << (next() % 8)
		}
	}
}

func (f *FaultFS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	f.dirs[filepath.Clean(dir)] = true
	return nil
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	dir = filepath.Clean(dir)
	var names []string
	for p := range f.files {
		if filepath.Dir(p) == dir {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	ff, ok := f.files[filepath.Clean(path)]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	return ff.image(), nil
}

func (f *FaultFS) OpenAppend(path string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	path = filepath.Clean(path)
	ff, ok := f.files[path]
	if !ok {
		ff = &faultFile{}
		f.files[path] = ff
	}
	return &faultHandle{fs: f, ff: ff}, nil
}

// Truncate is a fault point unless it cuts reserved zeros alone (a
// closed segment's tail): a crash there leaves zeros the log reads as a
// clean tail, like a crash inside Reserve.
func (f *FaultFS) Truncate(path string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	ff, ok := f.files[filepath.Clean(path)]
	if !ok {
		return &os.PathError{Op: "truncate", Path: path, Err: os.ErrNotExist}
	}
	if int(size) < len(ff.data) {
		if err := f.step(); err != nil {
			return err
		}
		ff.data = ff.data[:size]
		if ff.synced > int(size) {
			ff.synced = int(size)
		}
	}
	ff.reserved = min(ff.reserved, int(size))
	return nil
}

func (f *FaultFS) Rename(oldPath, newPath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	oldPath, newPath = filepath.Clean(oldPath), filepath.Clean(newPath)
	ff, ok := f.files[oldPath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldPath, Err: os.ErrNotExist}
	}
	delete(f.files, oldPath)
	f.files[newPath] = ff
	return nil
}

func (f *FaultFS) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	path = filepath.Clean(path)
	if _, ok := f.files[path]; !ok {
		if f.crashed {
			return ErrCrashed
		}
		return &os.PathError{Op: "remove", Path: path, Err: os.ErrNotExist}
	}
	if err := f.step(); err != nil {
		return err
	}
	delete(f.files, path)
	return nil
}

// DumpTo writes the filesystem's current contents under dir on the real
// filesystem, for CI failure artifacts.
func (f *FaultFS) DumpTo(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for p, ff := range f.files {
		out := filepath.Join(dir, filepath.Base(p))
		if err := os.WriteFile(out, ff.image(), 0o644); err != nil {
			return fmt.Errorf("wal: dump %s: %w", p, err)
		}
	}
	return nil
}

// faultHandle writes the file it was opened on, under whatever name
// that file has since been renamed to.
type faultHandle struct {
	fs *FaultFS
	ff *faultFile
}

// Write appends to data: a handle writes at the end of data, which is
// its write position, whether or not zeros are reserved past it.
func (h *faultHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.step(); err != nil {
		return 0, err
	}
	h.ff.data = append(h.ff.data, p...)
	return len(p), nil
}

func (h *faultHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.step(); err != nil {
		return err
	}
	h.ff.synced = len(h.ff.data)
	return nil
}

// Reserve is not a fault point, as creating a file is not: a crash
// inside it would leave part of the zeros, and the log reads any run of
// zeros after its records as a clean tail, so it adds no state to test.
func (h *faultHandle) Reserve(n int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	h.ff.reserved = max(h.ff.reserved, int(n))
	return nil
}

func (h *faultHandle) Close() error { return nil }
