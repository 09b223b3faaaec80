// The log writer and its hand-off: a Manager's one writer goroutine
// lives from Attach (or Resume) to Close, a record is written exactly
// once by whichever of the writer and the window's fence took it, an
// error on either path reaches the fence and latches the log broken,
// and no window is acknowledged before its record's fsync returned.
package wal_test

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/delta"
	"repro/internal/obs"
	"repro/internal/wal"
)

// pathCommitter stands between a pipeline and its Manager and decides
// who writes each record. toWriter returns the fence only once the log
// writer has taken the record out of the hand-off. Otherwise it joins
// the fence at once, as a group's commit does, on one processor and
// straight after a yield, so the fence takes the record back before the
// writer it woke can run.
type pathCommitter struct {
	*wal.Manager
	toWriter bool
}

func (c *pathCommitter) BeginWindow(w delta.Coalesced, txns int) func() (uint64, error) {
	if c.toWriter {
		wait := c.Manager.BeginWindow(w, txns)
		for wal.Posted(c.Manager) {
			runtime.Gosched()
		}
		return wait
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.Gosched()
	lsn, err := c.Manager.BeginWindow(w, txns)()
	return func() (uint64, error) { return lsn, err }
}

func pathName(toWriter bool) string {
	if toWriter {
		return "writer"
	}
	return "fence"
}

// Counters the hand-off moves: records written, and those a fence
// took back and wrote itself.
var (
	walRecords = obs.C("wal.records")
	byFence    = obs.C("wal.commit.by_fence")
)

// awaitGoroutines waits up to five seconds for the goroutine count to
// reach want.
func awaitGoroutines(t *testing.T, want int, stage string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", stage, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDurableWriterStopsOnClose holds the writer to the Manager's
// lifetime: Attach and Resume each start one goroutine, and Close
// stops it.
func TestDurableWriterStopsOnClose(t *testing.T) {
	cfg := corpus.Figure5Config{Items: 12, RPerItem: 2, SPerItem: 2}
	fsys := wal.NewFaultFS(3)
	db, _, m := buildFig5(t, cfg, nil)
	base := runtime.NumGoroutine()
	mgr, err := wal.Attach(m, db.Catalog, fsys, crashDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, base+1, "after Attach")
	for _, w := range genWindows(db, cfg, 3, 8) {
		if _, err := m.ApplyBatch(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, base, "after Close")

	db2 := corpus.Figure5Database(cfg)
	rec, err := wal.BeginRecovery(db2.Catalog, db2.Store, fsys, crashDir)
	if err != nil {
		t.Fatal(err)
	}
	ro := rec.RestoreOptions()
	_, m2 := buildOn(t, db2, &ro)
	base = runtime.NumGoroutine()
	mgr2, err := rec.Resume(m2, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mgr2.ReplayedWindows != 3 {
		t.Fatalf("replayed %d windows, want 3", mgr2.ReplayedWindows)
	}
	awaitGoroutines(t, base+1, "after Resume")
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, base, "after the resumed Manager's Close")
}

// TestFaultReachesFence fails the write, then the fsync, of a window's
// record on each path. The error must reach the window's fence, and the
// log must stay broken: once the filesystem is back, the next window
// fails too, and without touching it.
func TestFaultReachesFence(t *testing.T) {
	cfg := corpus.Figure5Config{Items: 12, RPerItem: 2, SPerItem: 2}
	for _, op := range []string{"write", "sync"} {
		for _, toWriter := range []bool{true, false} {
			t.Run(op+"/"+pathName(toWriter), func(t *testing.T) {
				fsys := wal.NewFaultFS(17)
				db, _, m := buildFig5(t, cfg, nil)
				mgr, err := wal.Attach(m, db.Catalog, fsys, crashDir, wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer mgr.Close()
				m.Committer = &pathCommitter{Manager: mgr, toWriter: toWriter}
				wins := genWindows(db, cfg, 3, 8)
				if _, err := m.ApplyBatch(wins[0]); err != nil {
					t.Fatal(err)
				}
				// The segment is open now: the next record is one write,
				// then one fsync.
				at := fsys.Ops() + 1
				if op == "sync" {
					at++
				}
				fsys.SetCrashAfter(at)
				fenced := byFence.Value()
				if _, err := m.ApplyBatch(wins[1]); !errors.Is(err, wal.ErrCrashed) {
					t.Fatalf("failed %s reached the fence as %v, want wal.ErrCrashed", op, err)
				}
				if got, want := byFence.Value()-fenced, boolInt(!toWriter); got != want {
					t.Fatalf("fence wrote %d records, want %d", got, want)
				}
				fsys.Reboot()
				ops := fsys.Ops()
				if _, err := m.ApplyBatch(wins[2]); err == nil {
					t.Fatal("the log took a commit after a failed one")
				}
				if fsys.Ops() != ops {
					t.Fatalf("a broken log touched the filesystem: %d ops, want %d", fsys.Ops(), ops)
				}
			})
		}
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestDurableFenceTakeBackWritesOnce holds each path to one record per
// window: wal.records moves by one, the fence counts only the records it
// took back, and recovery replays every window once.
func TestDurableFenceTakeBackWritesOnce(t *testing.T) {
	cfg := corpus.Figure5Config{Items: 12, RPerItem: 2, SPerItem: 2}
	const nWindows = 6
	for _, toWriter := range []bool{true, false} {
		t.Run(pathName(toWriter), func(t *testing.T) {
			fsys := wal.NewFaultFS(9)
			db, _, m := buildFig5(t, cfg, nil)
			mgr, err := wal.Attach(m, db.Catalog, fsys, crashDir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			m.Committer = &pathCommitter{Manager: mgr, toWriter: toWriter}
			for i, w := range genWindows(db, cfg, nWindows, 8) {
				recs, fenced := walRecords.Value(), byFence.Value()
				rep, err := m.ApplyBatch(w)
				if err != nil {
					t.Fatal(err)
				}
				if rep.LSN != uint64(i+1) {
					t.Fatalf("window %d acknowledged at LSN %d", i+1, rep.LSN)
				}
				if got := walRecords.Value() - recs; got != 1 {
					t.Fatalf("window %d: %d records written, want 1", i+1, got)
				}
				if got, want := byFence.Value()-fenced, boolInt(!toWriter); got != want {
					t.Fatalf("window %d: fence wrote %d records, want %d", i+1, got, want)
				}
			}
			m.Committer = mgr
			if err := mgr.Close(); err != nil {
				t.Fatal(err)
			}
			db2 := corpus.Figure5Database(cfg)
			rec, err := wal.BeginRecovery(db2.Catalog, db2.Store, fsys, crashDir)
			if err != nil {
				t.Fatal(err)
			}
			ro := rec.RestoreOptions()
			_, m2 := buildOn(t, db2, &ro)
			mgr2, err := rec.Resume(m2, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr2.Close()
			if mgr2.ReplayedWindows != nWindows || mgr2.RecoveredLSN != nWindows {
				t.Fatalf("replayed %d windows to LSN %d, want %d", mgr2.ReplayedWindows, mgr2.RecoveredLSN, nWindows)
			}
		})
	}
}

// syncTrackingFS counts the bytes written to every file and not yet
// covered by a completed fsync of that file, and the fsyncs of the log
// (every file but checkpoint temp files). Once held is set, every log
// fsync first sends it a channel and runs only when that is closed.
type syncTrackingFS struct {
	wal.FS
	mu       sync.Mutex
	unsynced map[string]int
	syncs    int
	held     chan chan struct{}
}

func (s *syncTrackingFS) OpenAppend(path string) (wal.File, error) {
	f, err := s.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &trackedFile{File: f, fs: s, path: path}, nil
}

func (s *syncTrackingFS) pending() (bytes, syncs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.unsynced {
		bytes += n
	}
	return bytes, s.syncs
}

type trackedFile struct {
	wal.File
	fs   *syncTrackingFS
	path string
}

func (f *trackedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.unsynced[f.path] += n
	f.fs.mu.Unlock()
	return n, err
}

// Sync counts the file synced only once the inner fsync has returned.
func (f *trackedFile) Sync() error {
	log := !strings.HasSuffix(f.path, ".tmp")
	if log && f.fs.held != nil {
		release := make(chan struct{})
		f.fs.held <- release
		<-release
	}
	f.fs.mu.Lock()
	n := f.fs.unsynced[f.path]
	f.fs.mu.Unlock()
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.fs.unsynced[f.path] -= n
	if log {
		f.fs.syncs++
	}
	f.fs.mu.Unlock()
	return nil
}

// TestDurableAckImpliesFsync holds every window's log fsync until the
// test has seen that the window is not yet acknowledged, then checks at
// the acknowledgement that no byte written waits for an fsync and that
// the window took exactly one: on the writer's path, on the fence's,
// and as the scheduler decides.
func TestDurableAckImpliesFsync(t *testing.T) {
	cfg := corpus.Figure5Config{Items: 12, RPerItem: 2, SPerItem: 2}
	const nWindows = 24
	for _, path := range []string{"writer", "fence", "scheduler"} {
		t.Run(path, func(t *testing.T) {
			fsys := &syncTrackingFS{FS: wal.NewFaultFS(21), unsynced: map[string]int{}}
			db, _, m := buildFig5(t, cfg, nil)
			mgr, err := wal.Attach(m, db.Catalog, fsys, crashDir, wal.Options{SegmentBytes: crashSegBytes})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			if path != "scheduler" {
				m.Committer = &pathCommitter{Manager: mgr, toWriter: path == "writer"}
			}
			fsys.held = make(chan chan struct{})
			type ack struct {
				lsn uint64
				err error
			}
			for i, w := range genWindows(db, cfg, nWindows, 8) {
				_, syncs := fsys.pending()
				acked := make(chan ack, 1)
				go func() {
					rep, err := m.ApplyBatch(w)
					if err != nil {
						acked <- ack{err: err}
						return
					}
					acked <- ack{lsn: rep.LSN}
				}()
				release := <-fsys.held
				select {
				case a := <-acked:
					close(release) // let the writer finish, so Close can stop it
					t.Fatalf("window %d acknowledged (LSN %d, err %v) while its fsync was held", i+1, a.lsn, a.err)
				case <-time.After(2 * time.Millisecond):
				}
				close(release)
				a := <-acked
				if a.err != nil {
					t.Fatal(a.err)
				}
				bytes, after := fsys.pending()
				if bytes != 0 {
					t.Fatalf("window %d acknowledged at LSN %d with %d bytes not yet synced", i+1, a.lsn, bytes)
				}
				if after-syncs != 1 {
					t.Fatalf("window %d took %d fsyncs, want 1", i+1, after-syncs)
				}
			}
			m.Committer = mgr
		})
	}
}

// TestDurableOverlapIsFenceWait holds wal.commit.exposed_ns to the time
// a window waited at its fence, and wal.commit.total_ns to the time from
// BeginWindow to the fence's return. The writer's fsync is held 20 ms:
// released before the fence starts, the commit is hidden (exposed well
// under total); released after, the fence waits it out (exposed at
// least most of the hold).
func TestDurableOverlapIsFenceWait(t *testing.T) {
	const hold = 20 * time.Millisecond
	cfg := corpus.Figure5Config{Items: 12, RPerItem: 2, SPerItem: 2}
	total, exposed := obs.C("wal.commit.total_ns"), obs.C("wal.commit.exposed_ns")
	for _, hidden := range []bool{true, false} {
		name := map[bool]string{true: "hidden", false: "exposed"}[hidden]
		t.Run(name, func(t *testing.T) {
			fsys := &syncTrackingFS{FS: wal.NewFaultFS(4), unsynced: map[string]int{}}
			db, _, m := buildFig5(t, cfg, nil)
			mgr, err := wal.Attach(m, db.Catalog, fsys, crashDir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			// A first window compiles the plans, so the timed one's fence
			// comes within microseconds of its BeginWindow.
			wins := genWindows(db, cfg, 2, 8)
			if _, err := m.ApplyBatch(wins[0]); err != nil {
				t.Fatal(err)
			}
			fsys.held = make(chan chan struct{})
			if hidden {
				m.Committer = &hiddenCommitter{Manager: mgr, fs: fsys, hold: hold}
			} else {
				m.Committer = &pathCommitter{Manager: mgr, toWriter: true}
			}
			w := wins[1]
			total0, exposed0 := total.Value(), exposed.Value()
			acked := make(chan error, 1)
			go func() {
				_, err := m.ApplyBatch(w)
				acked <- err
			}()
			if !hidden {
				release := <-fsys.held
				time.Sleep(hold)
				close(release)
			}
			if err := <-acked; err != nil {
				t.Fatal(err)
			}
			m.Committer = mgr
			tot, exp := time.Duration(total.Value()-total0), time.Duration(exposed.Value()-exposed0)
			if tot < hold || exp > tot {
				t.Fatalf("total %v, exposed %v: want total >= %v >= exposed", tot, exp, hold)
			}
			if hidden && exp > tot/2 {
				t.Fatalf("exposed %v of %v: a commit done before its fence is not hidden", exp, tot)
			}
			if !hidden && exp < hold/2 {
				t.Fatalf("exposed %v of %v: the fence's wait for the held fsync is not counted", exp, tot)
			}
		})
	}
}

// hiddenCommitter hands each record to the log writer, holds its fsync
// for hold, and returns the fence only once the fsync has completed.
type hiddenCommitter struct {
	*wal.Manager
	fs   *syncTrackingFS
	hold time.Duration
}

func (c *hiddenCommitter) BeginWindow(w delta.Coalesced, txns int) func() (uint64, error) {
	wait := c.Manager.BeginWindow(w, txns)
	release := <-c.fs.held
	time.Sleep(c.hold)
	_, syncs := c.fs.pending()
	close(release)
	for _, now := c.fs.pending(); now == syncs; _, now = c.fs.pending() {
		runtime.Gosched()
	}
	return wait
}
