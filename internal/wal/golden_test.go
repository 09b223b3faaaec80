package wal_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/wal"
)

// The unsharded WAL image: five Figure 5 windows of four transactions, a
// checkpoint after the third, a tail of two records.
const walGoldenDir = "testdata/fig5wal"

var walGoldenCfg = corpus.Figure5Config{Items: 8, RPerItem: 2, SPerItem: 2}

const walGoldenWindows, walGoldenBatch, walGoldenCkpt = 5, 4, 3

// updating reports whether the run rewrites golden images (the -update
// flag feed_test.go registers).
func updating() bool {
	f := flag.Lookup("update")
	return f != nil && f.Value.String() == "true"
}

// TestWALGolden pins the unsharded WAL's on-disk format at both ends,
// as TestFeedLogGolden pins the changefeed's. Writing: the fixed run
// must leave files byte-identical to the committed image. Reading: the
// committed image, recovered through BeginRecovery and Resume, must
// reach the state of the same windows applied in memory by replaying
// its two-record tail, with no view recomputed. Regenerate with -update
// only for a deliberate format change, or when the rules change the
// DAG whose every node the checkpoint holds (the factorized aggregate
// push added five views: the checkpoint changed, the log segment did
// not).
func TestWALGolden(t *testing.T) {
	dir := t.TempDir()
	db, _, m := buildFig5(t, walGoldenCfg, nil)
	windows := genWindows(db, walGoldenCfg, walGoldenWindows, walGoldenBatch)
	if _, err := runDurable(db, m, wal.OSFS{}, dir, windows, walGoldenCkpt, crashSegBytes); err != nil {
		t.Fatal(err)
	}
	got := readImage(t, dir)
	if updating() {
		if err := os.RemoveAll(walGoldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(walGoldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range got {
			if err := os.WriteFile(filepath.Join(walGoldenDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	want := readImage(t, walGoldenDir)
	if len(got) != len(want) {
		t.Fatalf("the run wrote %d files, the golden image has %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || !bytes.Equal(g, w) {
			t.Fatalf("%s differs from the golden image (%d vs %d bytes)", name, len(g), len(w))
		}
	}

	// Recover a copy of the committed image.
	rdir := t.TempDir()
	for name, data := range want {
		if err := os.WriteFile(filepath.Join(rdir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db2 := corpus.Figure5Database(walGoldenCfg)
	rec, err := wal.BeginRecovery(db2.Catalog, db2.Store, wal.OSFS{}, rdir)
	if err != nil {
		t.Fatal(err)
	}
	ro := rec.RestoreOptions()
	_, m2 := buildOn(t, db2, &ro)
	mgr, err := rec.Resume(m2, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if mgr.RecoveredLSN != walGoldenWindows || mgr.ReplayedWindows != walGoldenWindows-walGoldenCkpt || mgr.RecomputedViews != 0 {
		t.Fatalf("recovered to LSN %d replaying %d windows, %d views recomputed; want LSN %d, %d windows, 0",
			mgr.RecoveredLSN, mgr.ReplayedWindows, mgr.RecomputedViews, walGoldenWindows, walGoldenWindows-walGoldenCkpt)
	}
	odb, _, om := buildFig5(t, walGoldenCfg, nil)
	for i, w := range genWindows(odb, walGoldenCfg, walGoldenWindows, walGoldenBatch) {
		if _, err := om.ApplyBatch(w); err != nil {
			t.Fatalf("oracle window %d: %v", i+1, err)
		}
	}
	if diff := diffStates(db2.Catalog, db2.Store, m2, odb.Store, om); diff != "" {
		t.Fatalf("recovered golden image != the windows applied in memory: %s", diff)
	}
}

// readImage reads every file of a WAL directory by name.
func readImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := wal.OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	if len(out) == 0 {
		t.Fatalf("%s holds no files", dir)
	}
	return out
}
