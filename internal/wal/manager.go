package wal

import (
	"fmt"
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

// Pipelined-commit overlap accounting: total_ns is wall time each
// window's commit spent encoding/writing/fsyncing on its background
// goroutine; exposed_ns is the part the maintenance pipeline actually
// blocked on at the fence. overlap is the cumulative hidden fraction
// 1 − exposed/total — near 1.0 means the fsync fit entirely under
// propagation and view application.
var (
	obsCommitTotalNs   = obs.C("wal.commit.total_ns")
	obsCommitExposedNs = obs.C("wal.commit.exposed_ns")
	obsCommitOverlap   = obs.G("wal.commit.overlap")
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
// checkpoints. One Manager per pipeline; commits are serialized by the
// pipeline's window barrier, so Manager itself takes no locks.
type Manager struct {
	fsys FS
	dir  string
	opts Options
	log  *Log
	col  *Collector
	p    Pipeline
	cat  *catalog.Catalog

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
	mgr := &Manager{fsys: fsys, dir: dir, opts: opts, log: log, col: NewCollector(cat), p: p, cat: cat}
	// The initial checkpoint is the recovery base for crashes that
	// happen before the first explicit checkpoint.
	if err := mgr.Checkpoint(nil); err != nil {
		return nil, err
	}
	*p.CommitterSlot() = mgr
	return mgr, nil
}

// LastLSN returns the LSN of the last committed window.
func (g *Manager) LastLSN() uint64 { return g.log.LastLSN() }

// Commit implements maintain.WindowCommitter for a window that logs
// nothing (it coalesced to nothing, or a guard rejected it before any
// write): it writes nothing and returns the current durability point.
func (g *Manager) Commit(int) (uint64, error) { return g.log.LastLSN(), nil }

// BeginWindow implements maintain.WindowCommitter: it starts making the
// window durable from its already-coalesced net base deltas on a
// background goroutine, so the encode/write/fsync runs under the
// window's propagation and view application instead of extending it.
//
// Durability contract: wait is the commit fence; the caller must block
// on it before acknowledging the window, so ack still implies durable.
// A crash after the background fsync but before the ack leaves the log
// one window ahead of the acknowledged state; recovery then lands on
// lastAcked+1, which the recovery contract allows (the window was fully
// intended and its record is self-consistent).
func (g *Manager) BeginWindow(w delta.Coalesced, txns int) func() (uint64, error) {
	sp := obs.Trace.Start("wal.commit", g.p.WindowSpanID())
	type result struct {
		lsn uint64
		err error
	}
	t0 := time.Now()
	done := make(chan result, 1)
	go func() {
		var r result
		if len(w) == 0 {
			r.lsn = g.log.LastLSN()
		} else {
			r.lsn, r.err = g.log.CommitWindow(w, txns)
		}
		done <- r
	}()
	return func() (uint64, error) {
		tw := time.Now()
		r := <-done
		end := time.Now()
		sp.Finish()
		total := end.Sub(t0).Nanoseconds()
		exposed := end.Sub(tw).Nanoseconds()
		obsCommitTotalNs.Add(total)
		obsCommitExposedNs.Add(exposed)
		if t, e := obsCommitTotalNs.Value(), obsCommitExposedNs.Value(); t > 0 {
			obsCommitOverlap.Set(1 - float64(e)/float64(t))
		}
		return r.lsn, r.err
	}
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

// Close detaches from the pipeline and releases the log handle. The
// directory remains recoverable.
func (g *Manager) Close() error {
	if slot := g.p.CommitterSlot(); *slot == maintain.WindowCommitter(g) {
		*slot = nil
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
// on each shard's store; maintain.NewShardedRestored then partitions it.
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
	mgr := &Manager{fsys: r.fsys, dir: r.dir, opts: opts, log: log, col: NewCollector(r.cat), p: p, cat: r.cat,
		RecomputedViews: r.recomputed}
	expect := r.ckpt.LSN
	err = log.Replay(r.ckpt.LSN, mgr.col.Schema, func(rec Record) error {
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
	*p.CommitterSlot() = mgr
	return mgr, nil
}
