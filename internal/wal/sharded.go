package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Sharded durability layout under one root directory:
//
//	dir/shard-00/  per-shard wal.Manager state: segments + checkpoints
//	dir/shard-01/  ...
//	dir/coord/     coordinator log of raw records, one per window:
//	               body = uvarint shardCount | shardCount × uvarint LSN
//
// Commit protocol per window: every shard's own Manager fsyncs its
// sub-window into its segment first (in parallel, from the shard apply
// goroutines), then the coordinator appends one record holding the
// vector of shard LSNs and fsyncs it. A window is committed iff its
// coordinator record is durable; shard records beyond the last durable
// coordinator vector are uncommitted wreckage that recovery truncates
// (TruncateLogAfter) before replaying each shard — which is what makes
// replay land every shard on a mutually consistent cut.
const coordDirName = "coord"

func shardDirName(i int) string { return fmt.Sprintf("shard-%02d", i) }

var coordCommits = obs.C("wal.coord.commits")

// ShardedManager coordinates one wal.Manager per shard plus the
// coordinator log. It implements maintain.Committer and is installed as
// the Sharded maintainer's Coordinator; the per-shard Managers are
// installed as each shard maintainer's Committer by Attach/Resume.
type ShardedManager struct {
	fsys FS
	dir  string
	opts Options

	s       *maintain.Sharded
	mgrs    []*Manager
	coord   *Log
	lastVec []uint64

	// Recovery statistics, populated by ShardedRecovery.Resume (sums
	// over shards; RecoveredLSN is the coordinator's).
	RecoveredLSN    uint64
	ReplayedWindows int
	ReplayedTxns    int
	RecomputedViews int
}

// AttachSharded starts durability for a freshly built Sharded
// maintainer: one Manager (segments + initial checkpoint) per shard
// under dir/shard-NN, a coordinator log under dir/coord, and the
// group-commit wiring on both levels.
func AttachSharded(s *maintain.Sharded, fsys FS, dir string, opts Options) (*ShardedManager, error) {
	coordDir := join(dir, coordDirName)
	if ok, err := HasState(fsys, coordDir); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("wal: %s already holds durable state; use BeginShardedRecovery", dir)
	}
	n := s.NumShards()
	sm := &ShardedManager{fsys: fsys, dir: dir, opts: opts, s: s, lastVec: make([]uint64, n)}
	for i := 0; i < n; i++ {
		m, cat := s.Shard(i)
		mgr, err := Attach(m, cat, fsys, join(dir, shardDirName(i)), opts)
		if err != nil {
			return nil, fmt.Errorf("wal: shard %d: %w", i, err)
		}
		sm.mgrs = append(sm.mgrs, mgr)
	}
	coord, err := OpenLog(fsys, coordDir, opts)
	if err != nil {
		return nil, err
	}
	sm.coord = coord
	s.Coordinator = sm
	return sm, nil
}

// Commit implements maintain.Committer as the window coordinator: it
// snapshots every shard's durable LSN (the shards already fsynced their
// sub-windows) and appends the vector as one raw coordinator record.
// A window that advanced no shard reuses the previous record.
func (sm *ShardedManager) Commit(txns int) (uint64, error) {
	// The coordinator commit runs on the sharded window's goroutine;
	// parenting to the window root ties the LSN-vector record into the
	// same trace as the per-shard fsyncs it fences.
	sp := obs.Trace.Start("wal.coord.commit", sm.s.WindowSpanID())
	defer sp.Finish()
	vec := make([]uint64, len(sm.mgrs))
	changed := false
	for i, mgr := range sm.mgrs {
		vec[i] = mgr.LastLSN()
		if vec[i] != sm.lastVec[i] {
			changed = true
		}
	}
	if !changed {
		return sm.coord.LastLSN(), nil
	}
	if txns < 1 {
		txns = 1
	}
	body := encodeVector(vec)
	lsn, err := sm.coord.AppendRaw(body, txns)
	if err != nil {
		return 0, err
	}
	sm.lastVec = vec
	coordCommits.Inc()
	return lsn, nil
}

func encodeVector(vec []uint64) []byte {
	body := binary.AppendUvarint(nil, uint64(len(vec)))
	for _, v := range vec {
		body = binary.AppendUvarint(body, v)
	}
	return body
}

func decodeVector(body []byte) ([]uint64, error) {
	n, sz := binary.Uvarint(body)
	if sz <= 0 || n > 1<<16 {
		return nil, fmt.Errorf("wal: coordinator record: bad shard count")
	}
	body = body[sz:]
	vec := make([]uint64, n)
	for i := range vec {
		v, sz := binary.Uvarint(body)
		if sz <= 0 {
			return nil, fmt.Errorf("wal: coordinator record: truncated vector")
		}
		vec[i] = v
		body = body[sz:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("wal: coordinator record: %d trailing bytes", len(body))
	}
	return vec, nil
}

// LastLSN returns the coordinator's last committed window LSN.
func (sm *ShardedManager) LastLSN() uint64 { return sm.coord.LastLSN() }

// Shard returns shard i's Manager (tests and tools).
func (sm *ShardedManager) Shard(i int) *Manager { return sm.mgrs[i] }

// Checkpoint checkpoints every shard (each at its own durable LSN —
// always covered by the last coordinator vector, since checkpoints run
// between windows) and prunes the coordinator log down to its last
// record, the only one recovery reads.
func (sm *ShardedManager) Checkpoint(extra map[string]string) error {
	for i, mgr := range sm.mgrs {
		if err := mgr.Checkpoint(extra); err != nil {
			return fmt.Errorf("wal: shard %d checkpoint: %w", i, err)
		}
	}
	return sm.coord.Prune(sm.coord.LastLSN())
}

// Close releases every shard's hooks and log handles plus the
// coordinator's. The directory tree remains recoverable.
func (sm *ShardedManager) Close() error {
	var first error
	for _, mgr := range sm.mgrs {
		if err := mgr.Close(); err != nil && first == nil {
			first = err
		}
	}
	if sm.s != nil && sm.s.Coordinator == maintain.Committer(sm) {
		sm.s.Coordinator = nil
	}
	if err := sm.coord.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// HasShardedState reports whether dir holds sharded durable state.
func HasShardedState(fsys FS, dir string) (bool, error) {
	return HasState(fsys, join(dir, coordDirName))
}

// ShardTarget is one shard's recovery substrate: the catalog and store
// holding freshly rebuilt base relations (schemas only; contents are
// restored from the shard checkpoint).
type ShardTarget struct {
	Cat   *catalog.Catalog
	Store *storage.Store
}

// ShardedRecovery is the sharded two-phase recovery handle. The order
// matters and BeginShardedRecovery enforces it: read the last durable
// coordinator vector, truncate every shard log to its bound, then
// restore shard bases from their checkpoints. The caller rebuilds the
// per-shard maintainers (NewRestored with RestoreOptions(i)), assembles
// the Sharded, and calls Resume to replay each shard's tail and re-arm.
type ShardedRecovery struct {
	fsys FS
	dir  string
	opts Options

	coordLSN uint64
	bound    []uint64
	recs     []*Recovery
}

// BeginShardedRecovery opens dir's coordinator log (truncating any torn
// coordinator tail), decodes the last committed shard-LSN vector, cuts
// every shard log back to its bound, and restores each shard's base
// relations from its newest checkpoint into the matching target.
func BeginShardedRecovery(targets []ShardTarget, fsys FS, dir string, opts Options) (*ShardedRecovery, error) {
	coord, err := OpenLog(fsys, join(dir, coordDirName), opts)
	if err != nil {
		return nil, err
	}
	r := &ShardedRecovery{fsys: fsys, dir: dir, opts: opts, coordLSN: coord.LastLSN()}
	r.bound = make([]uint64, len(targets))
	err = coord.ReplayRaw(0, func(lsn uint64, txns int, body []byte) error {
		vec, err := decodeVector(body)
		if err != nil {
			return fmt.Errorf("record %d: %w", lsn, err)
		}
		if len(vec) != len(targets) {
			return fmt.Errorf("record %d: %d shards logged, %d targets", lsn, len(vec), len(targets))
		}
		r.bound = vec // the last record wins: it is the recovery bound
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := coord.Close(); err != nil {
		return nil, err
	}
	for i, tgt := range targets {
		shardDir := join(dir, shardDirName(i))
		if err := TruncateLogAfter(fsys, shardDir, r.bound[i]); err != nil {
			return nil, fmt.Errorf("wal: shard %d: %w", i, err)
		}
		rec, err := BeginRecovery(tgt.Cat, tgt.Store, fsys, shardDir)
		if err != nil {
			return nil, fmt.Errorf("wal: shard %d: %w", i, err)
		}
		r.recs = append(r.recs, rec)
	}
	return r, nil
}

// CoordLSN returns the coordinator's recovered LSN — the durability
// point the whole sharded system is consistent as of.
func (r *ShardedRecovery) CoordLSN() uint64 { return r.coordLSN }

// Bound returns shard i's committed-LSN bound from the coordinator.
func (r *ShardedRecovery) Bound(i int) uint64 { return r.bound[i] }

// Meta returns shard 0's checkpoint metadata (Options.Meta is written
// identically to every shard).
func (r *ShardedRecovery) Meta() map[string]string { return r.recs[0].Meta() }

// RestoreOptions returns shard i's view-restore source for
// maintain.NewRestored.
func (r *ShardedRecovery) RestoreOptions(i int) maintain.RestoreOptions {
	return r.recs[i].RestoreOptions()
}

// Resume replays every shard's committed log tail through its own
// maintainer (shard recovery IS shard-local incremental maintenance),
// verifies each shard landed exactly on its coordinator bound, rebuilds
// the merged spanning views, and re-arms the full commit wiring.
func (r *ShardedRecovery) Resume(s *maintain.Sharded) (*ShardedManager, error) {
	if s.NumShards() != len(r.recs) {
		return nil, fmt.Errorf("wal: resume: %d shards, %d recoveries", s.NumShards(), len(r.recs))
	}
	sm := &ShardedManager{
		fsys: r.fsys, dir: r.dir, opts: r.opts, s: s,
		lastVec:      append([]uint64{}, r.bound...),
		RecoveredLSN: r.coordLSN,
	}
	for i, rec := range r.recs {
		m, _ := s.Shard(i)
		mgr, err := rec.Resume(m, r.opts)
		if err != nil {
			return nil, fmt.Errorf("wal: shard %d: %w", i, err)
		}
		if mgr.LastLSN() != r.bound[i] {
			return nil, fmt.Errorf("wal: shard %d recovered to LSN %d, coordinator bound %d",
				i, mgr.LastLSN(), r.bound[i])
		}
		sm.ReplayedWindows += mgr.ReplayedWindows
		sm.ReplayedTxns += mgr.ReplayedTxns
		sm.RecomputedViews += mgr.RecomputedViews
		sm.mgrs = append(sm.mgrs, mgr)
	}
	s.RebuildMerged()
	coord, err := OpenLog(r.fsys, join(r.dir, coordDirName), r.opts)
	if err != nil {
		return nil, err
	}
	sm.coord = coord
	s.Coordinator = sm
	return sm, nil
}
