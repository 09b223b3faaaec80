package maintain_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
)

// mirror is one of the two identically-seeded engine instances the
// equivalence property compares: its own database, maintainer and the
// nodes whose contents are checked.
type mirror struct {
	cfg     corpus.Config
	db      *corpus.Database
	m       *maintain.Maintainer
	checked []*dag.EqNode // root first, then the marked additional views
}

// buildMirror constructs a database, random view DAG and maintainer from
// a seed. Two calls with the same seed consume identical random streams
// and therefore build structurally identical instances.
func buildMirror(t *testing.T, seed int64) *mirror {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := corpus.Config{
		Departments:  3 + rng.Intn(5),
		EmpsPerDept:  2 + rng.Intn(3),
		ADeptsEveryN: 2,
	}
	db := corpus.NewDatabase(cfg)
	view := corpus.RandomView(rng, db)
	d, err := dag.FromTree(view)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 300); err != nil {
		t.Fatal(err)
	}
	vs := tracks.RootSet(d)
	checked := []*dag.EqNode{d.Root}
	for _, e := range d.NonLeafEqs() {
		if !d.IsRoot(e) && rng.Intn(2) == 0 {
			vs[e.ID] = true
			checked = append(checked, e)
		}
	}
	m, err := maintain.New(d, db.Store, cost.PageIO{}, vs)
	if err != nil {
		t.Fatalf("view %s: %v", view.Label(), err)
	}
	return &mirror{cfg: cfg, db: db, m: m, checked: checked}
}

func rowsEqual(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Count != b[i].Count || a[i].Tuple.Compare(b[i].Tuple) != 0 {
			return false
		}
	}
	return true
}

func sortedContents(m *maintain.Maintainer, e *dag.EqNode) []storage.Row {
	// Contents rows alias view storage and die at the view's next
	// mutation; these snapshots are compared across later windows, so
	// they must own their tuples.
	rows := m.Contents(e)
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		out[i] = storage.Row{Tuple: r.Tuple.Clone(), Count: r.Count}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Tuple.Compare(out[j].Tuple) < 0
	})
	return out
}

// TestApplyBatchEquivalence is the batching soundness property: for
// random views, random view sets and random transaction windows, the
// batched pipeline (all window sizes, all worker counts) leaves every
// materialized view byte-identical to per-transaction maintenance, and
// both agree with full recomputation.
func TestApplyBatchEquivalence(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 6
	}
	windowSizes := []int{1, 2, 3, 5, 8, 16, 64}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			seed := int64(7000 + trial)
			serial := buildMirror(t, seed) // per-transaction baseline
			batched := buildMirror(t, seed)
			batched.m.Workers = 1 + trial%8
			if len(serial.checked) != len(batched.checked) {
				t.Fatalf("mirrors diverged: %d vs %d checked nodes",
					len(serial.checked), len(batched.checked))
			}

			txnRng := rand.New(rand.NewSource(seed*31 + 7))
			steps := 0
			for w := 0; w < 4; w++ {
				size := windowSizes[txnRng.Intn(len(windowSizes))]
				var window []txn.Transaction
				for i := 0; i < size; i++ {
					ty, updates := corpus.RandomTxn(txnRng, serial.db, serial.cfg, trial*1000+steps)
					steps++
					if ty == nil {
						continue
					}
					// Per-transaction reference. Apply is a one-transaction ApplyBatch
					// window, so it shares the body under test; the independent check
					// is the recompute oracle (Drift) below.
					if _, err := serial.m.Apply(ty, updates); err != nil {
						t.Fatalf("window %d: serial %s: %v", w, ty.Name, err)
					}
					window = append(window, txn.Transaction{Type: ty, Updates: updates})
				}
				rep, err := batched.m.ApplyBatch(window)
				if err != nil {
					t.Fatalf("window %d (%d txns): %v", w, len(window), err)
				}
				if rep.Size != len(window) {
					t.Fatalf("window %d: report size %d, want %d", w, rep.Size, len(window))
				}
				for i := range serial.checked {
					es, eb := serial.checked[i], batched.checked[i]
					if es.ID != eb.ID {
						t.Fatalf("mirrors diverged: node ids %d vs %d", es.ID, eb.ID)
					}
					want := sortedContents(serial.m, es)
					got := sortedContents(batched.m, eb)
					if !rowsEqual(got, want) {
						t.Fatalf("window %d (%d txns, %d workers): node %s diverged\nbatched: %v\nserial:  %v",
							w, len(window), batched.m.Workers, eb, got, want)
					}
					drift, err := batched.m.Drift(eb)
					if err != nil {
						t.Fatal(err)
					}
					if drift != "" {
						t.Fatalf("window %d: node %s drifted from oracle (%s)", w, eb, drift)
					}
				}
			}
		})
	}
}

// TestApplyBatchWorkerIOIndependence pins the accounting invariant: the
// worker count changes wall-clock behaviour only — the page I/Os charged
// for a window are identical whether views are applied sequentially or
// by a pool.
func TestApplyBatchWorkerIOIndependence(t *testing.T) {
	seed := int64(9090)
	gen := buildMirror(t, seed) // generates and serially applies the stream
	one := buildMirror(t, seed)
	many := buildMirror(t, seed)
	one.m.Workers = 1
	many.m.Workers = 8

	txnRng := rand.New(rand.NewSource(555))
	for w := 0; w < 6; w++ {
		var window []txn.Transaction
		for i := 0; i < 8; i++ {
			ty, updates := corpus.RandomTxn(txnRng, gen.db, gen.cfg, w*100+i)
			if ty == nil {
				continue
			}
			// Apply (a one-transaction window) only advances the generator's
			// database here; nothing is compared against it.
			if _, err := gen.m.Apply(ty, updates); err != nil {
				t.Fatal(err)
			}
			window = append(window, txn.Transaction{Type: ty, Updates: updates})
		}
		if _, err := one.m.ApplyBatch(window); err != nil {
			t.Fatal(err)
		}
		if _, err := many.m.ApplyBatch(window); err != nil {
			t.Fatal(err)
		}
		if a, b := one.db.Store.IO.Snapshot(), many.db.Store.IO.Snapshot(); a != b {
			t.Fatalf("window %d: worker count changed I/O accounting:\n1 worker:  %s\n8 workers: %s",
				w, a.String(), b.String())
		}
	}
}

// TestApplyBatchAnnihilation pins the headline batching property: a
// window whose updates cancel out nets to an empty delta, so the
// pipeline spends zero page I/Os and leaves everything untouched.
func TestApplyBatchAnnihilation(t *testing.T) {
	mir := buildMirror(t, 4242)
	empDef := mir.db.Catalog.MustGet("Emp")
	hire := value.Tuple{
		value.NewString("ghost"),
		value.NewString(corpus.DeptName(0)),
		value.NewInt(123),
	}
	ins := delta.New(empDef.Schema)
	ins.Insert(hire, 1)
	del := delta.New(empDef.Schema)
	del.Delete(hire, 1)
	tyIns := &txn.Type{Name: "+Emp", Weight: 1, Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Insert, Size: 1}}}
	tyDel := &txn.Type{Name: "-Emp", Weight: 1, Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Delete, Size: 1}}}

	before := sortedContents(mir.m, mir.checked[0])
	io0 := mir.db.Store.IO.Snapshot()
	rep, err := mir.m.ApplyBatch([]txn.Transaction{
		{Type: tyIns, Updates: map[string]*delta.Delta{"Emp": ins}},
		{Type: tyDel, Updates: map[string]*delta.Delta{"Emp": del}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Merged) != 0 {
		t.Fatalf("annihilating window left a net delta: %v", rep.Merged)
	}
	if got := mir.db.Store.IO.Snapshot().Sub(io0); got.Total() != 0 {
		t.Fatalf("annihilating window charged I/O: %s", got)
	}
	if after := sortedContents(mir.m, mir.checked[0]); !rowsEqual(before, after) {
		t.Fatalf("annihilating window changed the root view")
	}
	if drift, _ := mir.m.Drift(mir.checked[0]); drift != "" {
		t.Fatalf("root drifted: %s", drift)
	}
}
