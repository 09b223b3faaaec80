package mvmaint

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/maintain"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
)

// ShardedSystem is the multi-core sibling of System: the same declared
// views and assertions, maintained by N shard-local pipelines behind a
// hash partitioning of the base relations. The view-set optimizer runs
// once on the template DAG; every shard materializes the pinned winner
// over its own partition segment.
//
// The SQL DML front-end is not available here — TxnFromSQL derives
// deltas by consulting base-relation state, and no single shard holds
// all of it. Callers push pre-built transaction windows through
// ExecuteWindow, exactly like the batched maintenance pipeline.
type ShardedSystem struct {
	// Catalog is the template shard's catalog (schemas are identical on
	// every shard; use it to build deltas).
	Catalog *catalog.Catalog
	DAG     *dag.DAG
	// Decision is the optimizer's verdict, computed once and pinned on
	// every shard.
	Decision *core.Result
	ViewSet  tracks.ViewSet
	S        *maintain.Sharded

	names map[int]string // root eq ID -> declared name
}

// BuildSharded builds a sharded maintained system. factory must return
// a freshly populated, identical DB (same DDL, same rows, same declared
// views) on every call — one call per shard; determinism is verified.
// names select the views/assertions to maintain, as in Build. cfg's
// optimizer fields are honored once on the template; cfg.Shards and
// cfg.PartitionBy control the partitioning (PartitionBy empty picks the
// column automatically; an unshardable view set falls back to one shard
// with the reason recorded in S.Part).
func BuildSharded(factory func() (*DB, error), names []string, cfg Config) (*ShardedSystem, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("mvmaint: BuildSharded requires at least one view or assertion")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("mvmaint: BuildSharded requires Shards >= 1, got %d", cfg.Shards)
	}

	// Template build: expand the DAG once and run the view-set optimizer
	// on the full (unpartitioned) statistics.
	db, err := factory()
	if err != nil {
		return nil, fmt.Errorf("mvmaint: shard factory: %w", err)
	}
	d, trees, err := expand(db, names)
	if err != nil {
		return nil, err
	}
	res, err := optimize(d, cfg)
	if err != nil {
		return nil, err
	}
	rootNames, _, err := db.roots(d, names, trees)
	if err != nil {
		return nil, err
	}

	// Shard factory: rebuild the identical DB and DAG per shard.
	// NewSharded partitions each store and verifies DAG determinism.
	setupFactory := func() (*maintain.ShardSetup, error) {
		sdb, err := factory()
		if err != nil {
			return nil, err
		}
		sd, _, err := expand(sdb, names)
		if err != nil {
			return nil, err
		}
		return &maintain.ShardSetup{D: sd, Cat: sdb.Catalog, Store: sdb.Store}, nil
	}
	s, err := maintain.NewSharded(setupFactory, maintain.ShardedConfig{
		Shards:      cfg.Shards,
		PartitionBy: cfg.PartitionBy,
		VS:          res.Best.Set,
		Workers:     cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &ShardedSystem{
		Catalog:  db.Catalog,
		DAG:      s.D,
		Decision: res,
		ViewSet:  res.Best.Set,
		S:        s,
		names:    rootNames,
	}, nil
}

// ExecuteWindow maintains one window of transactions across all shards
// and returns the sharded batch report.
func (s *ShardedSystem) ExecuteWindow(txns []txn.Transaction) (*maintain.ShardedReport, error) {
	return s.S.ApplyBatch(txns)
}

// ViewRows returns the maintained, cross-shard contents of a declared
// view (merged for spanning aggregates, bag union otherwise).
func (s *ShardedSystem) ViewRows(name string) ([]storage.Row, error) {
	for id, n := range s.names {
		if n != name {
			continue
		}
		for _, e := range s.DAG.Roots {
			if e.ID == id {
				return s.S.Contents(e), nil
			}
		}
	}
	return nil, fmt.Errorf("mvmaint: %q is not a maintained view", name)
}

// Violations returns the total multiplicity of a declared assertion's
// violation view across all shards (0 means the constraint holds).
func (s *ShardedSystem) Violations(name string) (int64, error) {
	for id, n := range s.names {
		if n != name {
			continue
		}
		for _, e := range s.DAG.Roots {
			if e.ID == id {
				return s.S.Violations(e), nil
			}
		}
	}
	return 0, fmt.Errorf("mvmaint: %q is not a maintained view", name)
}

// Describe reports the partitioning decision, including any fallback.
func (s *ShardedSystem) Describe() string {
	return fmt.Sprintf("%d shards, %s", s.S.NumShards(), s.S.Part.Describe())
}
