// Window-causal trace connectivity: a sharded durable batch-64 run must
// produce spans that all link back to their window's root — shard
// pipelines run on their own goroutines and the window's commit fsync
// runs on the committer's, so any break in parent threading shows up
// here as an orphan.
package wal_test

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/wal"
)

// windowFamily names the spans that must be transitively parented to a
// maintain.window root. Spans outside the family (wal.checkpoint,
// recovery.replay) are legitimate roots of their own.
var windowFamily = map[string]bool{
	"maintain.batch":       true,
	"maintain.propagate":   true,
	"maintain.apply_base":  true,
	"maintain.apply_views": true,
	"wal.commit":           true,
}

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
	s := buildShardedFig5(t, fig5Factory(cfg), fig5ShardedVS(t, cfg), shards, maintain.RestoreOptions{})
	db := corpus.Figure5Database(cfg)
	const nWindows, batch = 6, 64
	windows := genWindows(db, cfg, nWindows, batch)
	dir := t.TempDir()
	mgr, err := wal.Attach(s, db.Catalog, wal.OSFS{}, dir, wal.Options{SegmentBytes: crashSegBytes})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range windows {
		if _, err := s.ApplyBatch(w); err != nil {
			t.Fatal(err)
		}
	}
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
		if sp.Name == "maintain.window" {
			roots++
		}
	}
	if roots != nWindows {
		t.Fatalf("got %d maintain.window roots, want %d (dropped=%d)", roots, nWindows, dropped)
	}

	counts := map[string]int{}
	for _, sp := range byID {
		if !windowFamily[sp.Name] {
			continue
		}
		counts[sp.Name]++
		if sp.Parent == 0 {
			t.Fatalf("orphan %s span %d: no parent", sp.Name, sp.ID)
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
		if cur.Name != "maintain.window" {
			t.Fatalf("span %s %d roots at %q, want maintain.window", sp.Name, sp.ID, cur.Name)
		}
	}

	// The cross-goroutine paths must actually have been exercised: one
	// commit per window, whatever the shard count.
	if counts["maintain.batch"] == 0 || counts["wal.commit"] != nWindows {
		t.Fatalf("missing expected span families: %v", counts)
	}
}
