// Window-causal trace connectivity: a durable batch-64 run must produce
// spans that all link back to their window's root — a sharded window
// parents each shard pipeline's window to its own, and a window's commit
// fsync runs on the log writer's goroutine or on the fence's, so any
// break in parent threading shows up here as an orphan.
package wal_test

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/wal"
)

// windowFamily names the spans that must be transitively parented to a
// window root. Spans outside the family (wal.checkpoint,
// recovery.replay) are legitimate roots of their own.
var windowFamily = map[string]bool{
	"maintain.batch":       true,
	"maintain.propagate":   true,
	"maintain.apply_base":  true,
	"maintain.apply_views": true,
	"wal.commit":           true,
}

// TestWindowTraceConnected runs the unsharded case (shards=1, a
// *maintain.Maintainer, whose root is its maintain.batch span) and a
// four-shard Sharded (root maintain.window). Windows alternate between
// the log writer's path and the fence's, so both commit paths are held
// to the rule.
func TestWindowTraceConnected(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runWindowTraceConnected(t, shards)
		})
	}
}

func runWindowTraceConnected(t *testing.T, shards int) {
	// Spans with IDs above the marker belong to this run; everything
	// older in the global ring is ignored.
	marker := obs.Trace.Start("test.marker", 0)
	markerID := marker.ID()
	marker.Finish()

	cfg := corpus.Figure5Config{Items: 12, RPerItem: 2, SPerItem: 2}
	var (
		db    *corpus.Database
		p     wal.Pipeline
		apply func([]txn.Transaction) error
		root  string
	)
	if shards == 1 {
		var m *maintain.Maintainer
		db, _, m = buildFig5(t, cfg, nil)
		p, root = m, "maintain.batch"
		apply = func(w []txn.Transaction) error { _, err := m.ApplyBatch(w); return err }
	} else {
		s := buildShardedFig5(t, fig5Factory(cfg), fig5ShardedVS(t, cfg), shards, maintain.RestoreOptions{})
		db, p, root = corpus.Figure5Database(cfg), s, "maintain.window"
		apply = func(w []txn.Transaction) error { _, err := s.ApplyBatch(w); return err }
	}
	const nWindows, batch = 6, 64
	windows := genWindows(db, cfg, nWindows, batch)
	dir := t.TempDir()
	mgr, err := wal.Attach(p, db.Catalog, wal.OSFS{}, dir, wal.Options{SegmentBytes: crashSegBytes})
	if err != nil {
		t.Fatal(err)
	}
	fenced := byFence.Value()
	for i, w := range windows {
		*p.CommitterSlot() = &pathCommitter{Manager: mgr, toWriter: i%2 == 0}
		if err := apply(w); err != nil {
			t.Fatal(err)
		}
	}
	if got := byFence.Value() - fenced; got != nWindows/2 {
		t.Fatalf("fence wrote %d of %d records, want every other one", got, nWindows)
	}
	*p.CommitterSlot() = mgr
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	spans, dropped := obs.Trace.Spans()
	byID := map[uint64]obs.Span{}
	roots := 0
	for _, sp := range spans {
		if sp.ID <= markerID {
			continue
		}
		byID[sp.ID] = sp
		if sp.Name == root && sp.Parent == 0 {
			roots++
		}
	}
	if roots != nWindows {
		t.Fatalf("got %d %s roots, want %d (dropped=%d)", roots, root, nWindows, dropped)
	}

	counts := map[string]int{}
	commitRoots := map[uint64]bool{}
	for _, sp := range byID {
		if !windowFamily[sp.Name] || sp.Name == root && sp.Parent == 0 {
			continue
		}
		counts[sp.Name]++
		if sp.Parent == 0 {
			t.Fatalf("orphan %s span %d: no parent", sp.Name, sp.ID)
		}
		if sp.Name == "wal.commit" {
			if p := byID[sp.Parent]; p.Name != root || p.Parent != 0 {
				t.Fatalf("wal.commit span %d hangs under %s %d, want its window's %s", sp.ID, p.Name, sp.Parent, root)
			}
			commitRoots[sp.Parent] = true
		}
		cur := sp
		for hops := 0; cur.Parent != 0; hops++ {
			if hops > 32 {
				t.Fatalf("span %s %d: parent chain does not terminate", sp.Name, sp.ID)
			}
			p, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %s %d: parent %d missing from this run's spans", cur.Name, cur.ID, cur.Parent)
			}
			cur = p
		}
		if cur.Name != root {
			t.Fatalf("span %s %d roots at %q, want %s", sp.Name, sp.ID, cur.Name, root)
		}
	}

	// The cross-goroutine paths must actually have been exercised: one
	// commit per window, each under a window of its own, whatever the
	// shard count and whichever side wrote the record.
	if counts["maintain.propagate"] == 0 || counts["wal.commit"] != nWindows || len(commitRoots) != nWindows {
		t.Fatalf("missing expected span families: %v, commits under %d roots", counts, len(commitRoots))
	}
}
