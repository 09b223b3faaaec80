package mvmaint

import (
	"fmt"

	"repro/internal/wal"
)

// AttachDurability starts write-ahead logging for a built system: every
// maintained window is group-committed to dir with one fsync, and an
// initial checkpoint makes the current state the recovery base. The
// directory must not already hold durable state — reopen one with
// Recover instead.
//
// The log is handed the deltas of the windows the system maintains
// (Execute, ExecuteTxn, M.ApplyBatch); it does not watch storage. DML
// run through DB.Exec after Build bypasses durability exactly as it
// already bypasses view maintenance: the rows change, but neither the
// views nor the log hear of it.
func (s *System) AttachDurability(fsys wal.FS, dir string, opts wal.Options) (*wal.Manager, error) {
	return wal.Attach(s.M, s.DB.Catalog, fsys, dir, opts)
}

// Recover rebuilds a durable system from dir: it restores base
// relations from the newest checkpoint into db (whose catalog must
// already hold the same base tables, typically re-created from DDL),
// builds the system with views seeded from the checkpoint where their
// expression fingerprints still match, replays the committed log tail
// through the incremental maintenance pipeline, and re-arms durability.
// Views are only recomputed when the checkpoint predates a view-set
// change (Manager.RecomputedViews counts them).
func Recover(db *DB, names []string, cfg Config, fsys wal.FS, dir string, opts wal.Options) (*System, *wal.Manager, error) {
	rec, err := wal.BeginRecovery(db.Catalog, db.Store, fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	ro := rec.RestoreOptions()
	sys, err := db.build(names, cfg, &ro)
	if err != nil {
		return nil, nil, fmt.Errorf("mvmaint: recovery build: %w", err)
	}
	mgr, err := rec.Resume(sys.M, opts)
	if err != nil {
		return nil, nil, err
	}
	return sys, mgr, nil
}
