// Crash-recovery fault injection. Every test here runs a real maintained
// Figure 5 system on a FaultFS, kills it at a chosen mutating-operation
// index (torn tails and bit flips enabled), reboots, recovers, and checks
// the recovered state is byte-for-byte the committed prefix of the
// workload — the state an oracle system reaches by applying exactly that
// prefix in memory. Because recovery replays the log tail through the
// incremental maintenance pipeline, the tests also assert that no view
// fell back to recomputation while the checkpointed view set is current.
package wal_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

const (
	crashDir      = "wal"
	crashSegBytes = 4096 // tiny segments so every run crosses a rotation
	// denseSegBytes gives nearly every record a segment of its own, so a
	// matrix crashes inside rotations and checkpoint prunes too.
	denseSegBytes = 256
)

// buildFig5 assembles a maintained Figure 5 system with every non-leaf
// equivalence node materialized (root plus intermediates, so recovery
// exercises several views per window). ro seeds views from a checkpoint.
func buildFig5(t testing.TB, cfg corpus.Figure5Config, ro *maintain.RestoreOptions) (*corpus.Database, *dag.DAG, *maintain.Maintainer) {
	t.Helper()
	db := corpus.Figure5Database(cfg)
	d, m := buildOn(t, db, ro)
	return db, d, m
}

// buildOn expands the DAG and materializes the view set over an existing
// database — in recovery, over the base relations a checkpoint restored.
func buildOn(t testing.TB, db *corpus.Database, ro *maintain.RestoreOptions) (*dag.DAG, *maintain.Maintainer) {
	t.Helper()
	d, err := dag.FromTree(db.Figure5View(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 400); err != nil {
		t.Fatal(err)
	}
	vs := tracks.RootSet(d)
	for _, e := range d.NonLeafEqs() {
		vs[e.ID] = true
	}
	var m *maintain.Maintainer
	if ro != nil {
		m, err = maintain.NewRestored(d, db.Store, cost.PageIO{}, vs, *ro)
	} else {
		m, err = maintain.New(d, db.Store, cost.PageIO{}, vs)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d, m
}

// fig5Gen deterministically generates the crash workload: 80% hot-item
// price modifications, 20% new-sale inserts. It never consults database
// state — only a sequence counter — so any prefix of its output can be
// regenerated independently for the oracle and the recovered system.
type fig5Gen struct {
	sSchema *catalog.Schema
	tSchema *catalog.Schema
	hot     []string
	price   map[string]int64
	seq     int
	modT    *txn.Type
	insS    *txn.Type
}

func genWindows(db *corpus.Database, cfg corpus.Figure5Config, nWindows, batch int) [][]txn.Transaction {
	g := &fig5Gen{
		sSchema: db.Catalog.MustGet("S").Schema,
		tSchema: db.Catalog.MustGet("T").Schema,
		price:   map[string]int64{},
		modT: &txn.Type{Name: ">T", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "T", Kind: txn.Modify, Size: 1, Cols: []string{"Price"}}}},
		insS: &txn.Type{Name: "+S", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "S", Kind: txn.Insert, Size: 1}}},
	}
	hotN := 8
	if hotN > cfg.Items {
		hotN = cfg.Items
	}
	for i := 0; i < hotN; i++ {
		item := fmt.Sprintf("item%03d", i)
		g.hot = append(g.hot, item)
		g.price[item] = int64(10 + i%7) // matches Figure5Database seeding
	}
	out := make([][]txn.Transaction, nWindows)
	for w := range out {
		out[w] = make([]txn.Transaction, batch)
		for i := range out[w] {
			out[w][i] = g.next()
		}
	}
	return out
}

func (g *fig5Gen) next() txn.Transaction {
	seq := g.seq
	g.seq++
	if seq%5 == 4 { // new sale
		item := g.hot[(seq*3)%len(g.hot)]
		d := delta.New(g.sSchema)
		d.Insert(value.Tuple{
			value.NewString(fmt.Sprintf("sx%06d", seq)),
			value.NewString(item),
			value.NewInt(int64(1 + seq%5)),
		}, 1)
		return txn.Transaction{Type: g.insS, Updates: map[string]*delta.Delta{"S": d}}
	}
	item := g.hot[seq%len(g.hot)]
	old := g.price[item]
	next := int64(10 + (seq*7+3)%97)
	if next == old {
		next++
	}
	g.price[item] = next
	d := delta.New(g.tSchema)
	d.Modify(
		value.Tuple{value.NewString(item), value.NewInt(old)},
		value.Tuple{value.NewString(item), value.NewInt(next)},
		1)
	return txn.Transaction{Type: g.modT, Updates: map[string]*delta.Delta{"T": d}}
}

// runDurable attaches durability with segBytes-byte segments and pushes
// the windows through the batched pipeline, checkpointing every
// ckptEvery windows. It returns the LSNs of the windows whose commit was
// acknowledged before the first error — the lower bound on what
// recovery must reproduce.
func runDurable(db *corpus.Database, m *maintain.Maintainer, fsys wal.FS, dir string, windows [][]txn.Transaction, ckptEvery, segBytes int) ([]uint64, error) {
	mgr, err := wal.Attach(m, db.Catalog, fsys, dir, wal.Options{SegmentBytes: segBytes})
	if err != nil {
		return nil, err
	}
	var acked []uint64
	for i, w := range windows {
		rep, err := m.ApplyBatch(w)
		if err != nil {
			mgr.Close() // stop the log writer; the crash is the error to report
			return acked, err
		}
		acked = append(acked, rep.LSN)
		if ckptEvery > 0 && (i+1)%ckptEvery == 0 {
			if err := mgr.Checkpoint(nil); err != nil {
				mgr.Close()
				return acked, err
			}
		}
	}
	return acked, mgr.Close()
}

func bag(rows []storage.Row) map[string]int64 {
	out := map[string]int64{}
	for _, r := range rows {
		k := string(value.AppendKey(nil, r.Tuple))
		out[k] += r.Count
		if out[k] == 0 {
			delete(out, k)
		}
	}
	return out
}

func bagDiff(label string, a, b map[string]int64) string {
	for k, n := range a {
		if b[k] != n {
			return fmt.Sprintf("%s: key %x count %d vs %d", label, k, n, b[k])
		}
	}
	for k, n := range b {
		if a[k] != n {
			return fmt.Sprintf("%s: key %x count %d vs %d", label, k, a[k], n)
		}
	}
	return ""
}

// diffStates compares base relations and materialized views of two
// systems as signed bags; "" means identical.
func diffStates(cat *catalog.Catalog, ast *storage.Store, am *maintain.Maintainer, bst *storage.Store, bm *maintain.Maintainer) string {
	for _, name := range cat.Names() {
		ar, ok := ast.Get(name)
		if !ok {
			return fmt.Sprintf("relation %s missing", name)
		}
		br, ok := bst.Get(name)
		if !ok {
			return fmt.Sprintf("relation %s missing from oracle", name)
		}
		if d := bagDiff(name, bag(ar.Snapshot()), bag(br.Snapshot())); d != "" {
			return d
		}
	}
	avs, bvs := am.ViewStates(), bm.ViewStates()
	if len(avs) != len(bvs) {
		return fmt.Sprintf("view count %d vs %d", len(avs), len(bvs))
	}
	for name, a := range avs {
		b, ok := bvs[name]
		if !ok {
			return fmt.Sprintf("view %s missing from oracle", name)
		}
		if d := bagDiff("view "+name, bag(a.Rows), bag(b.Rows)); d != "" {
			return d
		}
	}
	return ""
}

// dumpOnFailure persists the surviving FaultFS contents under
// $WAL_FAILURE_DIR so CI can upload the exact image that failed.
func dumpOnFailure(t *testing.T, fsys *wal.FaultFS) {
	t.Helper()
	if !t.Failed() {
		return
	}
	dir := os.Getenv("WAL_FAILURE_DIR")
	if dir == "" {
		return
	}
	sub := filepath.Join(dir, strings.NewReplacer("/", "_", " ", "_").Replace(t.Name()))
	if err := fsys.DumpTo(sub); err != nil {
		t.Logf("failed to dump WAL state: %v", err)
	} else {
		t.Logf("surviving WAL state dumped to %s", sub)
	}
	dumpFlight(t, sub)
}

// dumpFlight writes the flight recorder's current ring next to a failed
// test's WAL image: the black box says what the pipeline was doing
// (windows, routes, fsyncs, GC) around the failing fault point.
func dumpFlight(t *testing.T, sub string) {
	t.Helper()
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return
	}
	path := filepath.Join(sub, "flight.bin")
	if err := obs.Flight().DumpToFile(path); err != nil {
		t.Logf("failed to dump flight recorder: %v", err)
	} else {
		t.Logf("flight recorder dumped to %s", path)
	}
}

// verifyRecovery recovers from fsys and asserts the recovery contract:
//   - the recovered LSN covers every acknowledged commit and overshoots
//     by at most the one record that was in flight at crash time;
//   - base relations and every view equal the committed-prefix oracle;
//   - no view was recomputed (unless forceRecompute simulates a stale
//     checkpoint, in which case all of them were — and state still
//     converges);
//   - the recovered system keeps maintaining correctly: the rest of the
//     workload lands on identical state and zero drift.
func verifyRecovery(t *testing.T, fsys *wal.FaultFS, dir string, cfg corpus.Figure5Config, nWindows, batch, segBytes int, acked []uint64, forceRecompute bool) {
	t.Helper()
	db2 := corpus.Figure5Database(cfg)
	rec, err := wal.BeginRecovery(db2.Catalog, db2.Store, fsys, dir)
	if err != nil {
		// A crash inside Attach's initial checkpoint can leave no durable
		// state at all; acceptable only if nothing was ever acknowledged.
		if len(acked) == 0 && strings.Contains(err.Error(), "no checkpoint") {
			return
		}
		t.Fatalf("BeginRecovery: %v (after %d acked windows)", err, len(acked))
	}
	ro := rec.RestoreOptions()
	if forceRecompute {
		ro.Source = func(string) (*maintain.ViewState, bool) { return nil, false }
	}
	d2, m2 := buildOn(t, db2, &ro)
	mgr, err := rec.Resume(m2, wal.Options{SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer mgr.Close()

	views := len(m2.ViewStates())
	if forceRecompute {
		if mgr.RecomputedViews != views {
			t.Fatalf("RecomputedViews = %d, want %d (source misses everything)", mgr.RecomputedViews, views)
		}
	} else if mgr.RecomputedViews != 0 {
		t.Fatalf("RecomputedViews = %d, want 0: checkpointed view set is current", mgr.RecomputedViews)
	}

	prefix := int(mgr.RecoveredLSN)
	lastAcked := 0
	if len(acked) > 0 {
		lastAcked = int(acked[len(acked)-1])
	}
	if prefix < lastAcked || prefix > lastAcked+1 {
		t.Fatalf("recovered LSN %d outside [%d,%d]: durability regressed or invented a commit", prefix, lastAcked, lastAcked+1)
	}
	if prefix > nWindows {
		t.Fatalf("recovered LSN %d beyond the %d-window workload", prefix, nWindows)
	}

	// Oracle: a fresh in-memory system applying exactly the committed
	// prefix of the same deterministic workload.
	odb, _, om := buildFig5(t, cfg, nil)
	owins := genWindows(odb, cfg, nWindows, batch)
	for i := 0; i < prefix; i++ {
		if _, err := om.ApplyBatch(owins[i]); err != nil {
			t.Fatalf("oracle window %d: %v", i+1, err)
		}
	}
	if diff := diffStates(db2.Catalog, db2.Store, m2, odb.Store, om); diff != "" {
		dumpOnFailureNow(t, fsys)
		t.Fatalf("recovered state != committed-prefix oracle (prefix %d): %s", prefix, diff)
	}

	// The recovered system keeps working: run the rest of the workload on
	// both systems, compare again, and check views against recomputation.
	rwins := genWindows(db2, cfg, nWindows, batch)
	for i := prefix; i < nWindows; i++ {
		if _, err := m2.ApplyBatch(rwins[i]); err != nil {
			t.Fatalf("post-recovery window %d: %v", i+1, err)
		}
		if _, err := om.ApplyBatch(owins[i]); err != nil {
			t.Fatalf("oracle window %d: %v", i+1, err)
		}
	}
	if diff := diffStates(db2.Catalog, db2.Store, m2, odb.Store, om); diff != "" {
		t.Fatalf("post-recovery maintenance diverged: %s", diff)
	}
	for _, e := range d2.NonLeafEqs() {
		drift, err := m2.Drift(e)
		if err != nil {
			t.Fatal(err)
		}
		if drift != "" {
			t.Fatalf("post-recovery drift at %s: %s", e, drift)
		}
	}
}

// dumpOnFailureNow dumps before t.Fatalf marks the test failed (the
// Cleanup-based dump only sees t.Failed() afterwards; both paths are
// kept so a dump happens exactly once per failing subtest).
func dumpOnFailureNow(t *testing.T, fsys *wal.FaultFS) {
	t.Helper()
	dir := os.Getenv("WAL_FAILURE_DIR")
	if dir == "" {
		return
	}
	sub := filepath.Join(dir, strings.NewReplacer("/", "_", " ", "_").Replace(t.Name()))
	if err := fsys.DumpTo(sub); err == nil {
		t.Logf("surviving WAL state dumped to %s", sub)
	}
	dumpFlight(t, sub)
}

// TestCrashRecoveryEveryPoint enumerates every mutating filesystem
// operation of a checkpointed durable run and crashes at each one, with
// torn tails and bit flips.
func TestCrashRecoveryEveryPoint(t *testing.T) {
	crashEveryPoint(t, 8, 3, crashSegBytes, 5)
}

// TestCrashRecoveryEveryPointDense is the same matrix on the dense
// schedule: 24 windows, a checkpoint after every one and 256-byte
// segments, so crash points fall inside record appends, rotations,
// checkpoint writes and prunes all through the run.
func TestCrashRecoveryEveryPointDense(t *testing.T) {
	crashEveryPoint(t, 24, 1, denseSegBytes, 7)
}

// crashEveryPoint runs nWindows windows of 4, checkpointing every
// ckptEvery windows on segBytes-byte segments, once without a crash to
// count the fault points and then crashed at each of them (every
// shortStride-th under -short), and verifies each recovery.
func crashEveryPoint(t *testing.T, nWindows, ckptEvery, segBytes, shortStride int) {
	cfg := corpus.Figure5Config{Items: 12, RPerItem: 2, SPerItem: 2}
	const batch = 4

	// Reference run without a crash: counts the fault points and pins the
	// window↔LSN mapping the prefix oracle depends on.
	ref := wal.NewFaultFS(1)
	db, _, m := buildFig5(t, cfg, nil)
	acked, err := runDurable(db, m, ref, crashDir, genWindows(db, cfg, nWindows, batch), ckptEvery, segBytes)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for i, lsn := range acked {
		if lsn != uint64(i+1) {
			t.Fatalf("window %d acked at LSN %d: windows and LSNs must be 1:1", i+1, lsn)
		}
	}
	total := ref.Ops()
	if total < nWindows*2 {
		t.Fatalf("suspiciously few fault points: %d", total)
	}
	t.Logf("%d fault-injection points", total)

	stride := 1
	if testing.Short() {
		stride = shortStride
	}
	for crashAt := 1; crashAt <= total; crashAt += stride {
		crashAt := crashAt
		t.Run(fmt.Sprintf("op%03d", crashAt), func(t *testing.T) {
			fsys := wal.NewFaultFS(uint64(crashAt)*2654435761 + 1)
			fsys.TornTail = true
			fsys.FlipBit = true
			fsys.SetCrashAfter(crashAt)
			t.Cleanup(func() { dumpOnFailure(t, fsys) })
			db, _, m := buildFig5(t, cfg, nil)
			acked, err := runDurable(db, m, fsys, crashDir, genWindows(db, cfg, nWindows, batch), ckptEvery, segBytes)
			if err == nil {
				t.Fatalf("crash scheduled at op %d never fired", crashAt)
			}
			if !errors.Is(err, wal.ErrCrashed) {
				t.Fatalf("crash surfaced as %v, want wal.ErrCrashed", err)
			}
			if !fsys.Crashed() {
				t.Fatal("filesystem not down after injected crash")
			}
			fsys.Reboot()
			verifyRecovery(t, fsys, crashDir, cfg, nWindows, batch, segBytes, acked, false)
		})
	}
}

// TestCrashRecoveryProperty samples random crash points of random-seeded
// schedules — the property-test companion to the exhaustive enumeration,
// covering the seed-dependent torn-tail/bit-flip surface.
func TestCrashRecoveryProperty(t *testing.T) {
	cfg := corpus.Figure5Config{Items: 10, RPerItem: 2, SPerItem: 3}
	const nWindows, batch, ckptEvery = 6, 3, 2
	seeds := []uint64{11, 23, 47}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ref := wal.NewFaultFS(seed)
			db, _, m := buildFig5(t, cfg, nil)
			if _, err := runDurable(db, m, ref, crashDir, genWindows(db, cfg, nWindows, batch), ckptEvery, crashSegBytes); err != nil {
				t.Fatalf("reference run: %v", err)
			}
			total := ref.Ops()
			rng := seed
			next := func() uint64 { // splitmix64
				rng += 0x9e3779b97f4a7c15
				z := rng
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				return z ^ (z >> 31)
			}
			points := map[int]bool{}
			for _, p := range []int{1, 2, total / 4, total / 2, 3 * total / 4, total - 1, total} {
				if p >= 1 && p <= total {
					points[p] = true
				}
			}
			for i := 0; i < 4; i++ {
				points[1+int(next()%uint64(total))] = true
			}
			sorted := make([]int, 0, len(points))
			for p := range points {
				sorted = append(sorted, p)
			}
			sort.Ints(sorted)
			for _, crashAt := range sorted {
				crashAt := crashAt
				t.Run(fmt.Sprintf("op%03d", crashAt), func(t *testing.T) {
					fsys := wal.NewFaultFS(seed*1000003 + uint64(crashAt))
					fsys.TornTail = true
					fsys.FlipBit = true
					fsys.SetCrashAfter(crashAt)
					t.Cleanup(func() { dumpOnFailure(t, fsys) })
					db, _, m := buildFig5(t, cfg, nil)
					acked, err := runDurable(db, m, fsys, crashDir, genWindows(db, cfg, nWindows, batch), ckptEvery, crashSegBytes)
					if err == nil {
						t.Fatalf("crash scheduled at op %d never fired", crashAt)
					}
					if !errors.Is(err, wal.ErrCrashed) {
						t.Fatalf("crash surfaced as %v, want wal.ErrCrashed", err)
					}
					fsys.Reboot()
					verifyRecovery(t, fsys, crashDir, cfg, nWindows, batch, crashSegBytes, acked, false)
				})
			}
		})
	}
}

// TestRecoveryAfterCleanClose recovers a cleanly closed system: full
// replay, zero recomputed views, state identical to the full-run oracle.
func TestRecoveryAfterCleanClose(t *testing.T) {
	cfg := corpus.Figure5Config{Items: 12, RPerItem: 2, SPerItem: 2}
	const nWindows, batch = 6, 4
	fsys := wal.NewFaultFS(5)
	t.Cleanup(func() { dumpOnFailure(t, fsys) })
	db, _, m := buildFig5(t, cfg, nil)
	acked, err := runDurable(db, m, fsys, crashDir, genWindows(db, cfg, nWindows, batch), 0, crashSegBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(acked) != nWindows {
		t.Fatalf("acked %d of %d windows", len(acked), nWindows)
	}
	verifyRecovery(t, fsys, crashDir, cfg, nWindows, batch, crashSegBytes, acked, false)
}

// TestRecoveryRecomputeFallback simulates a checkpoint that predates the
// current view set: every view misses the restore source, gets counted
// as recomputed, and the system still converges to the oracle.
func TestRecoveryRecomputeFallback(t *testing.T) {
	cfg := corpus.Figure5Config{Items: 12, RPerItem: 2, SPerItem: 2}
	const nWindows, batch = 6, 4
	fsys := wal.NewFaultFS(99)
	t.Cleanup(func() { dumpOnFailure(t, fsys) })
	db, _, m := buildFig5(t, cfg, nil)
	acked, err := runDurable(db, m, fsys, crashDir, genWindows(db, cfg, nWindows, batch), 0, crashSegBytes)
	if err != nil {
		t.Fatal(err)
	}
	verifyRecovery(t, fsys, crashDir, cfg, nWindows, batch, crashSegBytes, acked, true)
}
