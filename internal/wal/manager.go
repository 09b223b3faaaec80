package wal

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
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

// Manager wires the log into a running maintainer: it is the
// maintainer's Committer — handed each window's coalesced base deltas
// by ApplyBatch (a guarded window's once its verdict is in) — and it
// writes checkpoints. One
// Manager per maintainer; commits are serialized by the maintenance
// pipeline's window barrier, so Manager itself takes no locks.
type Manager struct {
	fsys  FS
	dir   string
	opts  Options
	log   *Log
	col   *Collector
	m     *maintain.Maintainer
	cat   *catalog.Catalog
	store *storage.Store

	// Recovery statistics, populated by Resume.
	RecoveredLSN    uint64
	ReplayedWindows int
	ReplayedTxns    int
	RecomputedViews int
}

// Attach starts durability for a running, freshly built maintainer: it
// opens the log directory (which must not already hold durable state —
// use Recover for that), writes an initial checkpoint of the current
// base relations and views, and installs itself as the maintainer's
// committer. cat must hold exactly the base relations; views are
// derived and never logged. Only windows maintained through m are
// logged: a mutation applied to the store behind the maintainer's back
// is not durable (and not maintained either).
func Attach(m *maintain.Maintainer, cat *catalog.Catalog, fsys FS, dir string, opts Options) (*Manager, error) {
	if ok, err := HasState(fsys, dir); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("wal: %s already holds durable state; use Recover", dir)
	}
	log, err := OpenLog(fsys, dir, opts)
	if err != nil {
		return nil, err
	}
	mgr := &Manager{
		fsys:  fsys,
		dir:   dir,
		opts:  opts,
		log:   log,
		col:   NewCollector(cat),
		m:     m,
		cat:   cat,
		store: m.Store,
	}
	// The initial checkpoint is the recovery base for crashes that
	// happen before the first explicit checkpoint.
	if err := mgr.Checkpoint(nil); err != nil {
		return nil, err
	}
	m.Committer = mgr
	return mgr, nil
}

// LastLSN returns the LSN of the last committed window.
func (g *Manager) LastLSN() uint64 { return g.log.LastLSN() }

// Log exposes the underlying log (tests and tools).
func (g *Manager) Log() *Log { return g.log }

// Commit implements maintain.Committer for a window that logs nothing
// (it coalesced to nothing, or a guard rejected it before any write):
// it writes nothing and returns the current durability point.
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
	sp := obs.Trace.Start("wal.commit", g.m.WindowSpanID())
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
	c := &Checkpoint{
		LSN:        g.log.LastLSN(),
		ViewSetKey: g.m.VS.Key(),
		Meta:       meta,
	}
	for _, name := range g.cat.Names() {
		r, ok := g.store.Get(name)
		if !ok {
			return fmt.Errorf("wal: checkpoint: unknown relation %q", name)
		}
		c.Rels = append(c.Rels, RelSnapshot{Name: name, Rows: r.Snapshot()})
	}
	for name, vs := range g.m.ViewStates() {
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

// Close detaches from the maintainer and releases the log handle. The
// directory remains recoverable.
func (g *Manager) Close() error {
	if g.m.Committer == maintain.WindowCommitter(g) {
		g.m.Committer = nil
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
// its DAG and view set against the restored bases and calls Resume with
// the new maintainer, which loads checkpointed views, replays the log
// tail through the incremental pipeline, and re-arms durability.
type Recovery struct {
	fsys  FS
	dir   string
	ckpt  *Checkpoint
	cat   *catalog.Catalog
	store *storage.Store

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
	for _, rs := range ckpt.Rels {
		r, ok := store.Get(rs.Name)
		if !ok {
			return nil, fmt.Errorf("wal: recovery: relation %q not in store", rs.Name)
		}
		r.Restore(rs.Rows)
		r.RefreshStats()
	}
	return &Recovery{fsys: fsys, dir: dir, ckpt: ckpt, cat: cat, store: store}, nil
}

// Meta returns the checkpoint's metadata.
func (r *Recovery) Meta() map[string]string { return r.ckpt.Meta }

// CheckpointLSN returns the LSN the restored snapshot is consistent as of.
func (r *Recovery) CheckpointLSN() uint64 { return r.ckpt.LSN }

// ViewSetKey returns the view-set key recorded in the checkpoint.
func (r *Recovery) ViewSetKey() string { return r.ckpt.ViewSetKey }

// RestoreOptions returns the maintain.RestoreOptions that seed view
// materialization from the checkpoint: pass it to maintain.NewRestored
// (or through the system builder). Views missing from the checkpoint or
// with stale fingerprints fall back to recomputation and are counted.
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
// LSN) through m.ApplyBatch — recovery IS incremental maintenance: each
// window's deltas propagate along the normal update tracks instead of
// views being recomputed — then installs itself as the maintainer's
// committer and returns the re-armed Manager. Replay bypasses m.Guards:
// every record was acknowledged, so it is applied even if an assertion
// added since would reject it.
func (r *Recovery) Resume(m *maintain.Maintainer, opts Options) (*Manager, error) {
	sp := obs.Trace.Start("recovery.replay", 0)
	defer sp.Finish()
	guards := m.Guards
	m.Guards = nil
	defer func() { m.Guards = guards }()
	log, err := OpenLog(r.fsys, r.dir, opts)
	if err != nil {
		return nil, err
	}
	if log.LastLSN() < r.ckpt.LSN {
		return nil, fmt.Errorf("wal: log tip %d behind checkpoint %d", log.LastLSN(), r.ckpt.LSN)
	}
	mgr := &Manager{
		fsys:            r.fsys,
		dir:             r.dir,
		opts:            opts,
		log:             log,
		col:             NewCollector(r.cat),
		m:               m,
		cat:             r.cat,
		store:           m.Store,
		RecomputedViews: r.recomputed,
	}
	// Replayed windows parent under the recovery span, so a recovery
	// trace is connected just like a live window trace.
	m.SetSpanParent(sp.ID())
	defer m.SetSpanParent(0)
	expect := r.ckpt.LSN
	err = log.Replay(r.ckpt.LSN, mgr.col.Schema, func(rec Record) error {
		if rec.LSN != expect+1 {
			return fmt.Errorf("wal: replay gap: got %d, want %d", rec.LSN, expect+1)
		}
		expect = rec.LSN
		updates := make(map[string]*delta.Delta, len(rec.Window))
		for _, rd := range rec.Window {
			updates[rd.Rel] = rd.Delta
		}
		if _, err := m.ApplyBatch([]txn.Transaction{{Updates: updates}}); err != nil {
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
	m.Committer = mgr
	return mgr, nil
}
