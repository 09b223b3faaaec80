package wal

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/storage"
)

var (
	replayWindows  = obs.C("recovery.replay.windows")
	replayTxns     = obs.C("recovery.replay.txns")
	recomputeViews = obs.C("recovery.recompute.views")
)

// Pipelined-commit overlap accounting: total_ns is wall time from each
// window's BeginWindow to its fence returning; exposed_ns is the part
// the maintenance pipeline actually blocked on at the fence. overlap is
// the cumulative hidden fraction 1 − exposed/total — near 1.0 means the
// fsync fit entirely under propagation and view application. by_fence
// counts the records a fence took back from the hand-off and wrote on
// the window's own goroutine; the log writer wrote the rest.
var (
	obsCommitTotalNs   = obs.C("wal.commit.total_ns")
	obsCommitExposedNs = obs.C("wal.commit.exposed_ns")
	obsCommitOverlap   = obs.G("wal.commit.overlap")
	obsCommitByFence   = obs.C("wal.commit.by_fence")
)

// The hand-off's two bounds, from fig5-batch64-wal on a 2-CPU host
// (~370k windows over four 5 s and two 15 s runs of an instrumented
// build, with the record written in place):
const (
	// writerPoll is how long the log writer keeps looking for the next
	// window after writing one before it parks. The next window came 28–50
	// µs (p50), 107–143 µs (p99) and 180–192 µs (p99.9) after the writer
	// began to look, so back-to-back windows never wait for a wake-up; when
	// commits are sparse the writer parks after one or two windows' time.
	writerPoll = 200 * time.Microsecond
	// fenceSpin is how long a fence whose record the writer holds yields
	// before it parks: about one write and flush (~50 µs) and room for
	// their p99, the most the writer can have left. Such fences waited
	// under 1 µs (p50), 10–13 µs (p90) and 77–143 µs (p99); a longer wait
	// is a device stall, and parks.
	fenceSpin = 100 * time.Microsecond
)

// Pipeline is what a Manager journals: *maintain.Maintainer and
// *maintain.Sharded both provide it, and the Manager uses nothing else
// of either. A window is one record whichever it is.
type Pipeline interface {
	// CommitterSlot is where the Manager installs itself, and which
	// Close clears.
	CommitterSlot() *maintain.WindowCommitter
	// WindowSpanID is the current window's root span, which the
	// window's commit span hangs under.
	WindowSpanID() uint64
	// Snapshot is what a checkpoint holds: the view-set key, the rows of
	// the named base relations and every view's state.
	Snapshot(rels []string) (*maintain.Snapshot, error)
	// ReplayWindow applies one logged window, guards lifted, its trace
	// under parent.
	ReplayWindow(w delta.Coalesced, parent uint64) error
}

// Manager wires the log into a running pipeline: it is the pipeline's
// committer — handed each window's coalesced base deltas by ApplyBatch
// (a guarded window's once its verdict is in) — and it writes
// checkpoints. One Manager per pipeline, and one window in flight at a
// time: the pipeline joins a window's fence before it begins the next.
//
// A Manager keeps one log-writer goroutine from Attach (or Resume) to
// Close. BeginWindow posts the window into a one-slot hand-off; the
// writer, or else the window's own fence, takes it out, and whichever
// took it encodes, writes and fsyncs it. The log is touched only by
// the holder of the window in flight, so it needs no lock: the atomic
// hand-off orders one holder's writes before the next holder's reads.
type Manager struct {
	fsys FS
	dir  string
	opts Options
	log  *Log
	p    Pipeline
	cat  *catalog.Catalog

	slot    atomic.Pointer[commitReq] // the posted window, until taken
	wake    chan struct{}             // one token: a window was posted
	stop    chan struct{}             // closed by Close
	stopped chan struct{}             // closed by the writer as it exits

	// Recovery statistics, populated by Resume.
	RecoveredLSN    uint64
	ReplayedWindows int
	ReplayedTxns    int
	RecomputedViews int
}

// Attach starts durability for a running, freshly built pipeline: it
// opens the log directory (which must not already hold durable state —
// use Recover for that), writes an initial checkpoint of the current
// base relations and views, and installs itself as the pipeline's
// committer. cat must hold exactly the base relations; views are
// derived and never logged. Only windows maintained through p are
// logged: a mutation applied to the store behind the pipeline's back is
// not durable (and not maintained either).
func Attach(p Pipeline, cat *catalog.Catalog, fsys FS, dir string, opts Options) (*Manager, error) {
	if ok, err := HasState(fsys, dir); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("wal: %s already holds durable state; use Recover", dir)
	}
	log, err := OpenLog(fsys, dir, opts)
	if err != nil {
		return nil, err
	}
	mgr := &Manager{fsys: fsys, dir: dir, opts: opts, log: log, p: p, cat: cat}
	// The initial checkpoint is the recovery base for crashes that
	// happen before the first explicit checkpoint.
	if err := mgr.Checkpoint(nil); err != nil {
		return nil, err
	}
	mgr.install()
	return mgr, nil
}

// install starts the log writer and makes g the pipeline's committer.
func (g *Manager) install() {
	g.wake = make(chan struct{}, 1)
	g.stop = make(chan struct{})
	g.stopped = make(chan struct{})
	go g.run()
	*g.p.CommitterSlot() = g
}

// LastLSN returns the LSN of the last committed window.
func (g *Manager) LastLSN() uint64 { return g.log.LastLSN() }

// Commit implements maintain.WindowCommitter for a window that logs
// nothing (it coalesced to nothing, or a guard rejected it before any
// write): it writes nothing and returns the current durability point.
func (g *Manager) Commit(int) (uint64, error) { return g.log.LastLSN(), nil }

// commitReq is one window posted to the hand-off.
type commitReq struct {
	w    delta.Coalesced
	txns int
	lsn  uint64
	err  error
	done chan struct{} // closed by the log writer once lsn and err are set
}

// BeginWindow implements maintain.WindowCommitter: it posts the
// window's already-coalesced net base deltas to the log writer, waking
// it only if it is parked, so the encode/write/fsync runs under the
// window's propagation and view application instead of extending it.
//
// Durability contract: wait is the commit fence; the caller must block
// on it before acknowledging the window, so ack still implies durable.
// The fence first takes its record back if the writer has not taken it
// yet, and then writes it itself: a caller that joins the fence at once
// never waits for the writer to wake up. A crash after the fsync but
// before the ack leaves the log one window ahead of the acknowledged
// state; recovery then lands on lastAcked+1, which the recovery
// contract allows (the window was fully intended and its record is
// self-consistent).
func (g *Manager) BeginWindow(w delta.Coalesced, txns int) func() (uint64, error) {
	sp := obs.Trace.Start("wal.commit", g.p.WindowSpanID())
	t0 := time.Now()
	req := &commitReq{w: w, txns: txns, done: make(chan struct{})}
	g.slot.Store(req)
	select {
	case g.wake <- struct{}{}: // readies the writer if it is parked
	default: // a token is already waiting
	}
	return func() (uint64, error) {
		tw := time.Now()
		g.fence(req)
		end := time.Now()
		sp.Finish()
		total := end.Sub(t0).Nanoseconds()
		exposed := end.Sub(tw).Nanoseconds()
		obsCommitTotalNs.Add(total)
		obsCommitExposedNs.Add(exposed)
		if t, e := obsCommitTotalNs.Value(), obsCommitExposedNs.Value(); t > 0 {
			obsCommitOverlap.Set(1 - float64(e)/float64(t))
		}
		return req.lsn, req.err
	}
}

// fence returns once req is durable or has failed: at once if it takes
// req back from the hand-off and writes it here; otherwise the writer
// holds it, and the fence yields for up to fenceSpin (only with a second
// processor for the writer to run on) and then parks until the writer
// is done.
func (g *Manager) fence(req *commitReq) {
	if g.slot.CompareAndSwap(req, nil) {
		g.write(req)
		obsCommitByFence.Inc()
		return
	}
	if runtime.GOMAXPROCS(0) > 1 {
		for t0 := time.Now(); time.Since(t0) < fenceSpin; runtime.Gosched() {
			select {
			case <-req.done:
				return
			default:
			}
		}
	}
	<-req.done
}

// run is the log writer: it writes each window it takes from the
// hand-off, until Close.
func (g *Manager) run() {
	defer close(g.stopped)
	poll := false
	for {
		req := g.take(poll)
		if req == nil {
			return
		}
		g.write(req)
		close(req.done)
		// Having written one window, look for the next before parking:
		// back-to-back windows then never wait for a wake-up. With one
		// processor the poll would only take the CPU from the window.
		poll = runtime.GOMAXPROCS(0) > 1
	}
}

// take returns the next posted window, or nil once Close has begun.
// With poll it first looks for up to writerPoll, yielding between
// looks; then it parks until BeginWindow wakes it.
func (g *Manager) take(poll bool) *commitReq {
	if poll {
		for t0 := time.Now(); time.Since(t0) < writerPoll; runtime.Gosched() {
			if req := g.slot.Swap(nil); req != nil {
				return req
			}
		}
	}
	// A post after the last look leaves a token in wake; a token left
	// by a post the writer already took costs one more look.
	for {
		if req := g.slot.Swap(nil); req != nil {
			return req
		}
		select {
		case <-g.wake:
		case <-g.stop:
			return nil
		}
	}
}

// write makes req durable on the calling goroutine.
func (g *Manager) write(req *commitReq) {
	if len(req.w) == 0 {
		req.lsn = g.log.LastLSN()
		return
	}
	req.lsn, req.err = g.log.CommitWindow(req.w, req.txns)
}

// Checkpoint durably snapshots the base relations and every
// materialized view (with its sidecar and expression fingerprint) as of
// the last committed LSN, then prunes log segments the snapshot covers.
// extra is merged over the manager's standing Options.Meta.
func (g *Manager) Checkpoint(extra map[string]string) error {
	sp := obs.Trace.Start("wal.checkpoint", 0)
	defer sp.Finish()
	meta := map[string]string{}
	for k, v := range g.opts.Meta {
		meta[k] = v
	}
	for k, v := range extra {
		meta[k] = v
	}
	names := g.cat.Names()
	snap, err := g.p.Snapshot(names)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	c := &Checkpoint{LSN: g.log.LastLSN(), ViewSetKey: snap.ViewSetKey, Meta: meta}
	for i, name := range names {
		c.Rels = append(c.Rels, RelSnapshot{Name: name, Rows: snap.Base[i]})
	}
	for name, vs := range snap.Views {
		c.Views = append(c.Views, ViewSnapshot{
			Name:        name,
			Fingerprint: vs.Fingerprint,
			Rows:        vs.Rows,
			Live:        vs.Live,
			Stale:       vs.Stale,
		})
	}
	sortViews(c.Views)
	if err := WriteCheckpoint(g.fsys, g.dir, c); err != nil {
		return err
	}
	obs.Flight().Record(obs.EvCheckpoint, 0, c.LSN, 0, 0)
	return g.log.Prune(c.LSN)
}

func sortViews(vs []ViewSnapshot) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j].Name < vs[j-1].Name; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// Close detaches from the pipeline, stops the log writer and releases
// the log handle. The directory remains recoverable. No window may be
// in flight: the pipeline joins each window's fence before returning.
func (g *Manager) Close() error {
	if slot := g.p.CommitterSlot(); *slot == maintain.WindowCommitter(g) {
		*slot = nil
	}
	if g.stop != nil {
		close(g.stop)
		<-g.stopped
		g.stop = nil
	}
	return g.log.Close()
}

// HasState reports whether dir holds any durable state (segments or
// checkpoints).
func HasState(fsys FS, dir string) (bool, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		if isNotExist(err) {
			return false, nil
		}
		return false, err
	}
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			return true, nil
		}
		if _, ok := parseCkptName(n); ok {
			return true, nil
		}
	}
	return false, nil
}

// ReadMeta returns the newest checkpoint's metadata without touching
// any other state — callers use it to rebuild the catalog (e.g. from
// persisted DDL) before starting recovery proper.
func ReadMeta(fsys FS, dir string) (map[string]string, error) {
	c, err := LatestCheckpoint(fsys, dir)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("wal: %s holds no checkpoint", dir)
	}
	return c.Meta, nil
}

// Recovery is the two-phase recovery handle: BeginRecovery restores the
// base relations from the newest checkpoint; the caller then rebuilds
// its pipeline against the restored bases, seeding views from
// RestoreOptions, and calls Resume with it, which replays the log tail
// through the incremental pipeline and re-arms durability.
type Recovery struct {
	fsys FS
	dir  string
	ckpt *Checkpoint
	cat  *catalog.Catalog

	recomputed int
}

// BeginRecovery opens the newest checkpoint in dir and restores every
// checkpointed base relation into store (which must already hold
// relations of the same names and schemas, typically rebuilt from DDL).
func BeginRecovery(cat *catalog.Catalog, store *storage.Store, fsys FS, dir string) (*Recovery, error) {
	ckpt, err := LatestCheckpoint(fsys, dir)
	if err != nil {
		return nil, err
	}
	if ckpt == nil {
		return nil, fmt.Errorf("wal: %s holds no checkpoint", dir)
	}
	r := &Recovery{fsys: fsys, dir: dir, ckpt: ckpt, cat: cat}
	if err := r.RestoreBase(store); err != nil {
		return nil, err
	}
	return r, nil
}

// RestoreBase restores every checkpointed base relation into store, as
// BeginRecovery does into its own. A sharded pipeline's factory calls it
// on each shard's store; maintain.NewShardedRestored then keeps in each
// shard the rows that hash to it on the caller's partition column.
func (r *Recovery) RestoreBase(store *storage.Store) error {
	for _, rs := range r.ckpt.Rels {
		rel, ok := store.Get(rs.Name)
		if !ok {
			return fmt.Errorf("wal: recovery: relation %q not in store", rs.Name)
		}
		rel.Restore(rs.Rows)
		rel.RefreshStats()
	}
	return nil
}

// RestoreOptions returns the maintain.RestoreOptions that seed view
// materialization from the checkpoint: pass it to maintain.NewRestored
// or maintain.NewShardedRestored (or through the system builder). Views
// missing from the checkpoint or with stale fingerprints fall back to
// recomputation and are counted.
func (r *Recovery) RestoreOptions() maintain.RestoreOptions {
	byName := make(map[string]*ViewSnapshot, len(r.ckpt.Views))
	for i := range r.ckpt.Views {
		byName[r.ckpt.Views[i].Name] = &r.ckpt.Views[i]
	}
	return maintain.RestoreOptions{
		Source: func(name string) (*maintain.ViewState, bool) {
			v, ok := byName[name]
			if !ok {
				return nil, false
			}
			return &maintain.ViewState{
				Fingerprint: v.Fingerprint,
				Rows:        v.Rows,
				Live:        v.Live,
				Stale:       v.Stale,
			}, true
		},
		OnRecompute: func(name string) {
			r.recomputed++
			recomputeViews.Inc()
		},
	}
}

// Resume replays the committed log tail (records after the checkpoint
// LSN) through p.ReplayWindow — recovery IS incremental maintenance:
// each window's deltas propagate along the normal update tracks instead
// of views being recomputed — then installs itself as the pipeline's
// committer and returns the re-armed Manager. Replay lifts guards: every
// record was acknowledged, so it is applied even if an assertion added
// since would reject it.
func (r *Recovery) Resume(p Pipeline, opts Options) (*Manager, error) {
	sp := obs.Trace.Start("recovery.replay", 0)
	defer sp.Finish()
	log, err := OpenLog(r.fsys, r.dir, opts)
	if err != nil {
		return nil, err
	}
	if log.LastLSN() < r.ckpt.LSN {
		return nil, fmt.Errorf("wal: log tip %d behind checkpoint %d", log.LastLSN(), r.ckpt.LSN)
	}
	mgr := &Manager{fsys: r.fsys, dir: r.dir, opts: opts, log: log, p: p, cat: r.cat,
		RecomputedViews: r.recomputed}
	expect := r.ckpt.LSN
	// Records hold base relations only: their schemas are the catalog's.
	schemas := func(rel string) (*catalog.Schema, bool) {
		def, ok := r.cat.Get(rel)
		if !ok {
			return nil, false
		}
		return def.Schema, true
	}
	err = log.Replay(r.ckpt.LSN, schemas, func(rec Record) error {
		if rec.LSN != expect+1 {
			return fmt.Errorf("wal: replay gap: got %d, want %d", rec.LSN, expect+1)
		}
		expect = rec.LSN
		// Replayed windows parent under the recovery span, so a recovery
		// trace is connected just like a live window trace.
		if err := p.ReplayWindow(rec.Window, sp.ID()); err != nil {
			return fmt.Errorf("wal: replay record %d: %w", rec.LSN, err)
		}
		mgr.ReplayedWindows++
		mgr.ReplayedTxns += rec.Txns
		return nil
	})
	if err != nil {
		return nil, err
	}
	replayWindows.Add(int64(mgr.ReplayedWindows))
	replayTxns.Add(int64(mgr.ReplayedTxns))
	mgr.RecoveredLSN = log.LastLSN()
	obs.Flight().Record(obs.EvRecovery, 0, mgr.RecoveredLSN, uint64(mgr.ReplayedWindows), 0)
	mgr.install()
	return mgr, nil
}
