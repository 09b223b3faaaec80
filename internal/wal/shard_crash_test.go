// Sharded crash-recovery fault injection: the every-crash-point matrix
// of crash_test.go run on a sharded pipeline. A sharded Figure 5 system
// journals through one wal.Manager — one record per window whatever the
// shard count, one checkpoint file — on a FaultFS, is killed at each
// mutating filesystem operation, rebooted and recovered into a pipeline
// of the same shard count. The recovered LSN must cover every
// acknowledged window and overshoot by at most the record in flight,
// and the recovered full-state bag (union of shard bases + every view)
// must equal the committed-prefix oracle at every shard count.
package wal_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

const (
	shardCrashDir = "swal"
	// shardSegBytes gives nearly every record a segment of its own, so
	// the matrix crashes inside rotations and checkpoint prunes too.
	shardSegBytes = 256
)

// shardMatrixCounts are the shard counts the sharded crash matrix
// enumerates; shard count 1 is the unsharded suite's.
var shardMatrixCounts = []int{2, 4, 8}

// fig5Factory is the deterministic shard factory: every call rebuilds
// the identical Figure 5 database and expanded DAG.
func fig5Factory(cfg corpus.Figure5Config) func() (*maintain.ShardSetup, error) {
	return func() (*maintain.ShardSetup, error) {
		db := corpus.Figure5Database(cfg)
		d, err := dag.FromTree(db.Figure5View(0))
		if err != nil {
			return nil, err
		}
		if _, err := d.Expand(rules.Default(), 400); err != nil {
			return nil, err
		}
		return &maintain.ShardSetup{D: d, Cat: db.Catalog, Store: db.Store}, nil
	}
}

// fig5VS materializes every non-leaf node, like buildOn.
func fig5VS(d *dag.DAG) tracks.ViewSet {
	vs := tracks.RootSet(d)
	for _, e := range d.NonLeafEqs() {
		vs[e.ID] = true
	}
	return vs
}

// fig5ShardedVS is the view set of the factory's DAG, which is the same
// on every call.
func fig5ShardedVS(t testing.TB, cfg corpus.Figure5Config) tracks.ViewSet {
	t.Helper()
	setup, err := fig5Factory(cfg)()
	if err != nil {
		t.Fatal(err)
	}
	return fig5VS(setup.D)
}

// buildShardedFig5 builds the sharded Figure 5 system partitioned on
// Item — every join and the revenue aggregate key on Item, so all views
// are shard-local and the partitioning must hold at full width. ro
// seeds the shards' views from a checkpoint, and factory then restores
// the checkpoint's base relations into every shard it builds.
func buildShardedFig5(t testing.TB, factory func() (*maintain.ShardSetup, error), vs tracks.ViewSet, shards, workers int, ro maintain.RestoreOptions) *maintain.Sharded {
	t.Helper()
	s, err := maintain.NewShardedRestored(factory, maintain.ShardedConfig{
		Shards:      shards,
		PartitionBy: "Item",
		VS:          vs,
		Workers:     workers,
	}, ro)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != shards {
		t.Fatalf("wanted %d shards, got %s", shards, s.Part.Describe())
	}
	return s
}

// runDurableSharded attaches durability and pushes the windows through,
// checkpointing every ckptEvery windows. It returns the LSNs
// acknowledged before the first error.
func runDurableSharded(s *maintain.Sharded, cat *catalog.Catalog, fsys wal.FS, dir string, windows [][]txn.Transaction, ckptEvery int) ([]uint64, error) {
	mgr, err := wal.Attach(s, cat, fsys, dir, wal.Options{SegmentBytes: shardSegBytes})
	if err != nil {
		return nil, err
	}
	var acked []uint64
	for i, w := range windows {
		rep, err := s.ApplyBatch(w)
		if err != nil {
			return acked, err
		}
		acked = append(acked, rep.LSN)
		if ckptEvery > 0 && (i+1)%ckptEvery == 0 {
			if err := mgr.Checkpoint(nil); err != nil {
				return acked, err
			}
		}
	}
	return acked, mgr.Close()
}

// verifyShardedRecovery recovers the sharded system from fsys and
// asserts the sharded recovery contract: recovered LSN within
// [lastAcked, lastAcked+1], no view recomputed, full recovered state
// (union of shard bases plus every materialized view) equal to the
// committed-prefix oracle, and correct continued maintenance of the
// remaining workload.
func verifyShardedRecovery(t *testing.T, fsys *wal.FaultFS, dir string, cfg corpus.Figure5Config, n, workers, nWindows, batch int, acked []uint64) {
	t.Helper()
	factory := fig5Factory(cfg)
	setup, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := wal.BeginRecovery(setup.Cat, setup.Store, fsys, dir)
	if err != nil {
		// A crash inside Attach's initial checkpoint can leave no durable
		// state at all; acceptable only if nothing was ever acknowledged.
		if len(acked) == 0 && strings.Contains(err.Error(), "no checkpoint") {
			return
		}
		t.Fatalf("BeginRecovery: %v (after %d acked windows)", err, len(acked))
	}
	// Every shard starts from the checkpoint's base relations; the first
	// is the setup BeginRecovery restored.
	vs := fig5VS(setup.D)
	restored := func() (*maintain.ShardSetup, error) {
		if su := setup; su != nil {
			setup = nil
			return su, nil
		}
		su, err := factory()
		if err == nil {
			err = rec.RestoreBase(su.Store)
		}
		return su, err
	}
	s2 := buildShardedFig5(t, restored, vs, n, workers, rec.RestoreOptions())
	mgr, err := rec.Resume(s2, wal.Options{SegmentBytes: shardSegBytes})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer mgr.Close()
	if mgr.RecomputedViews != 0 {
		t.Fatalf("RecomputedViews = %d, want 0: the checkpointed view set is current", mgr.RecomputedViews)
	}

	prefix := int(mgr.RecoveredLSN)
	lastAcked := 0
	if len(acked) > 0 {
		lastAcked = int(acked[len(acked)-1])
	}
	if prefix < lastAcked || prefix > lastAcked+1 {
		t.Fatalf("recovered LSN %d outside [%d,%d]", prefix, lastAcked, lastAcked+1)
	}
	if prefix > nWindows {
		t.Fatalf("recovered LSN %d beyond the %d-window workload", prefix, nWindows)
	}

	// Oracle: an unsharded in-memory system applying exactly the
	// committed prefix of the same deterministic workload.
	odb, od, om := buildFig5(t, cfg, 1, nil)
	owins := genWindows(odb, cfg, nWindows, batch)
	for i := 0; i < prefix; i++ {
		if _, err := om.ApplyBatch(owins[i]); err != nil {
			t.Fatalf("oracle window %d: %v", i+1, err)
		}
	}
	names := odb.Catalog.Names()
	diffSharded := func(stage string) {
		snap, err := s2.Snapshot(names)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			orel, _ := odb.Store.Get(name)
			if d := bagDiff("base "+name, bag(snap.Base[i]), bag(orel.Snapshot())); d != "" {
				dumpOnFailureNow(t, fsys)
				t.Fatalf("%s (prefix %d): %s", stage, prefix, d)
			}
		}
		for _, e := range od.NonLeafEqs() {
			if d := bagDiff(fmt.Sprintf("view %s", e), bag(s2.Contents(e)), bag(om.Contents(e))); d != "" {
				dumpOnFailureNow(t, fsys)
				t.Fatalf("%s (prefix %d): %s", stage, prefix, d)
			}
		}
	}
	diffSharded("recovered state != committed-prefix oracle")

	// The recovered sharded system keeps working: finish the workload on
	// both systems and compare again, then check drift against the
	// recompute oracle over the union of the shard bases.
	gdb := corpus.Figure5Database(cfg)
	rwins := genWindows(gdb, cfg, nWindows, batch)
	for i := prefix; i < nWindows; i++ {
		if _, err := s2.ApplyBatch(rwins[i]); err != nil {
			t.Fatalf("post-recovery window %d: %v", i+1, err)
		}
		if _, err := om.ApplyBatch(owins[i]); err != nil {
			t.Fatalf("oracle window %d: %v", i+1, err)
		}
	}
	diffSharded("post-recovery maintenance diverged")
	for _, e := range s2.D.NonLeafEqs() {
		drift, err := s2.Drift(e)
		if err != nil {
			t.Fatal(err)
		}
		if drift != "" {
			t.Fatalf("post-recovery drift at %s: %s", e, drift)
		}
	}
}

// TestShardedCrashRecoveryEveryPoint enumerates every mutating
// filesystem operation of a checkpointed sharded durable run — record
// appends and fsyncs, segment rotations, checkpoint writes and prunes —
// and crashes at each one with torn tails and bit flips, at every shard
// count of the matrix. The operations are the same at every count (one
// record per window, one checkpoint file); what differs is the recovery,
// which partitions the restored bases and seeds each shard's views.
// Denser shard counts use a stride.
func TestShardedCrashRecoveryEveryPoint(t *testing.T) {
	cfg := corpus.Figure5Config{Items: 12, RPerItem: 2, SPerItem: 2}
	const nWindows, batch, ckptEvery = 24, 4, 1
	workerCycle := []int{1, 2, 4, 8}
	vs := fig5ShardedVS(t, cfg)
	for _, n := range shardMatrixCounts {
		n := n
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			// Reference run without a crash: counts fault points and pins
			// the window↔LSN mapping the oracle depends on.
			ref := wal.NewFaultFS(1)
			s := buildShardedFig5(t, fig5Factory(cfg), vs, n, 1, maintain.RestoreOptions{})
			gdb := corpus.Figure5Database(cfg)
			acked, err := runDurableSharded(s, gdb.Catalog, ref, shardCrashDir, genWindows(gdb, cfg, nWindows, batch), ckptEvery)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			for i, lsn := range acked {
				if lsn != uint64(i+1) {
					t.Fatalf("window %d acked at LSN %d: must be 1:1", i+1, lsn)
				}
			}
			total := ref.Ops()
			if total < nWindows*2 {
				t.Fatalf("suspiciously few fault points: %d", total)
			}
			t.Logf("%d fault-injection points", total)

			stride := 1
			if n > 2 {
				stride = 3
			}
			if testing.Short() {
				stride = 7
			}
			for crashAt := 1; crashAt <= total; crashAt += stride {
				crashAt := crashAt
				t.Run(fmt.Sprintf("op%04d", crashAt), func(t *testing.T) {
					workers := workerCycle[crashAt%len(workerCycle)]
					fsys := wal.NewFaultFS(uint64(crashAt)*2654435761 + uint64(n))
					fsys.TornTail = true
					fsys.FlipBit = true
					fsys.SetCrashAfter(crashAt)
					t.Cleanup(func() { dumpOnFailure(t, fsys) })
					s := buildShardedFig5(t, fig5Factory(cfg), vs, n, workers, maintain.RestoreOptions{})
					wdb := corpus.Figure5Database(cfg)
					acked, err := runDurableSharded(s, wdb.Catalog, fsys, shardCrashDir, genWindows(wdb, cfg, nWindows, batch), ckptEvery)
					if err == nil {
						t.Fatalf("crash scheduled at op %d never fired", crashAt)
					}
					if !errors.Is(err, wal.ErrCrashed) {
						t.Fatalf("crash surfaced as %v, want wal.ErrCrashed", err)
					}
					fsys.Reboot()
					verifyShardedRecovery(t, fsys, shardCrashDir, cfg, n, workers, nWindows, batch, acked)
				})
			}
		})
	}
}

// TestShardedRecoveryAfterCleanClose recovers a cleanly closed sharded
// system at each shard count: full replay to the final LSN, no view
// recomputed, state identical to the full-run oracle.
func TestShardedRecoveryAfterCleanClose(t *testing.T) {
	cfg := corpus.Figure5Config{Items: 12, RPerItem: 2, SPerItem: 2}
	const nWindows, batch = 5, 4
	vs := fig5ShardedVS(t, cfg)
	for _, n := range shardMatrixCounts {
		n := n
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			fsys := wal.NewFaultFS(uint64(7 + n))
			t.Cleanup(func() { dumpOnFailure(t, fsys) })
			s := buildShardedFig5(t, fig5Factory(cfg), vs, n, 2, maintain.RestoreOptions{})
			gdb := corpus.Figure5Database(cfg)
			acked, err := runDurableSharded(s, gdb.Catalog, fsys, shardCrashDir, genWindows(gdb, cfg, nWindows, batch), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(acked) != nWindows {
				t.Fatalf("acked %d of %d windows", len(acked), nWindows)
			}
			verifyShardedRecovery(t, fsys, shardCrashDir, cfg, n, 2, nWindows, batch, acked)
		})
	}
}

// syncCountingFS counts the fsyncs of every file but checkpoint temp
// files: the log's.
type syncCountingFS struct {
	wal.FS
	syncs atomic.Int64
}

func (c *syncCountingFS) OpenAppend(path string) (wal.File, error) {
	f, err := c.FS.OpenAppend(path)
	if err != nil || strings.HasSuffix(path, ".tmp") {
		return f, err
	}
	return countedFile{File: f, syncs: &c.syncs}, nil
}

type countedFile struct {
	wal.File
	syncs *atomic.Int64
}

func (f countedFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// TestShardedWindowIsOneRecord holds the journal to one record per
// window at every shard count, as for an unsharded maintainer: a window
// fsyncs once and takes the next LSN, and a window that coalesces to
// nothing fsyncs never and reports the LSN that already covers it.
func TestShardedWindowIsOneRecord(t *testing.T) {
	cfg := corpus.Figure5Config{Items: 12, RPerItem: 2, SPerItem: 2}
	const nWindows, batch = 6, 8
	vs := fig5ShardedVS(t, cfg)
	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			s := buildShardedFig5(t, fig5Factory(cfg), vs, n, 1, maintain.RestoreOptions{})
			db := corpus.Figure5Database(cfg)
			fsys := &syncCountingFS{FS: wal.NewFaultFS(1)}
			mgr, err := wal.Attach(s, db.Catalog, fsys, "wal", wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			apply := func(label string, w []txn.Transaction, wantSyncs int64, wantLSN uint64) {
				t.Helper()
				before := fsys.syncs.Load()
				rep, err := s.ApplyBatch(w)
				if err != nil {
					t.Fatal(err)
				}
				if got := fsys.syncs.Load() - before; got != wantSyncs || rep.LSN != wantLSN {
					t.Fatalf("%s: %d fsyncs, LSN %d; want %d at LSN %d", label, got, rep.LSN, wantSyncs, wantLSN)
				}
			}
			for i, w := range genWindows(db, cfg, nWindows, batch) {
				apply(fmt.Sprintf("window %d", i+1), w, 1, uint64(i+1))
			}
			// A sale inserted and deleted in one window nets to nothing.
			sale := value.Tuple{value.NewString("sx-void"), value.NewString("item000"), value.NewInt(1)}
			ins, del := delta.New(db.Catalog.MustGet("S").Schema), delta.New(db.Catalog.MustGet("S").Schema)
			ins.Insert(sale, 1)
			del.Delete(sale, 1)
			apply("empty window", []txn.Transaction{
				{Updates: map[string]*delta.Delta{"S": ins}},
				{Updates: map[string]*delta.Delta{"S": del}},
			}, 0, nWindows)
		})
	}
}
