package maintain_test

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/expr"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/tracks"
	"repro/internal/txn"
)

// diffView builds "department names with employees, minus the type-A
// departments" as a bag difference, plus a duplicate elimination root.
func diffView(db *corpus.Database) algebra.Node {
	emp := algebra.Scan(db.Catalog.MustGet("Emp"))
	adepts := algebra.Scan(db.Catalog.MustGet("ADepts"))
	names := algebra.NewProject(
		[]algebra.ProjectItem{{E: expr.C("Emp.DName"), As: "DName"}}, emp)
	aNames := algebra.NewProject(
		[]algebra.ProjectItem{{E: expr.C("ADepts.DName"), As: "DName"}}, adepts)
	return algebra.NewDistinct(algebra.NewDiff(names, aNames))
}

// unionView builds the bag union of employee and type-A department names.
func unionView(db *corpus.Database) algebra.Node {
	emp := algebra.Scan(db.Catalog.MustGet("Emp"))
	adepts := algebra.Scan(db.Catalog.MustGet("ADepts"))
	names := algebra.NewProject(
		[]algebra.ProjectItem{{E: expr.C("Emp.DName"), As: "DName"}}, emp)
	aNames := algebra.NewProject(
		[]algebra.ProjectItem{{E: expr.C("ADepts.DName"), As: "DName"}}, adepts)
	return algebra.NewUnion(names, aNames)
}

func setOpsEngine(t *testing.T, view algebra.Node, db *corpus.Database, markAll bool) (*maintain.Maintainer, *dag.DAG) {
	t.Helper()
	d, err := dag.FromTree(view)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 200); err != nil {
		t.Fatal(err)
	}
	vs := tracks.RootSet(d)
	if markAll {
		for _, e := range d.NonLeafEqs() {
			vs[e.ID] = true
		}
	}
	m, err := maintain.New(d, db.Store, cost.PageIO{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func TestDiffDistinctThroughEngine(t *testing.T) {
	for _, markAll := range []bool{false, true} {
		db := corpus.NewDatabase(corpus.Config{Departments: 5, EmpsPerDept: 2, ADeptsEveryN: 2})
		m, d := setOpsEngine(t, diffView(db), db, markAll)

		hire := &txn.Type{Name: "+Emp", Weight: 1,
			Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Insert, Size: 1}}}
		fire := &txn.Type{Name: "-Emp", Weight: 1,
			Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Delete, Size: 1}}}
		classify := &txn.Type{Name: "+ADepts", Weight: 1,
			Updates: []txn.RelUpdate{{Rel: "ADepts", Kind: txn.Insert, Size: 1}}}

		steps := []struct {
			ty  *txn.Type
			rel string
			d   func() *delta.Delta
		}{
			{hire, "Emp", func() *delta.Delta {
				return db.EmpInsertDelta("h1", "d-new", 100)
			}},
			{classify, "ADepts", func() *delta.Delta {
				// d0001 is not type A initially (every 2nd starting at 0).
				return db.ADeptsInsertDelta(corpus.DeptName(1))
			}},
			{fire, "Emp", func() *delta.Delta {
				del, err := db.EmpDeleteDelta(3, 0)
				if err != nil {
					t.Fatal(err)
				}
				return del
			}},
			{fire, "Emp", func() *delta.Delta {
				del, err := db.EmpDeleteDelta(3, 1) // last employee of d3
				if err != nil {
					t.Fatal(err)
				}
				return del
			}},
		}
		for i, s := range steps {
			// Apply is a one-transaction ApplyBatch window; Drift below (here and
			// in the union test) compares against the recompute oracle.
			if _, err := m.Apply(s.ty, map[string]*delta.Delta{s.rel: s.d()}); err != nil {
				t.Fatalf("markAll=%v step %d: %v", markAll, i, err)
			}
			drift, err := m.Drift(d.Root)
			if err != nil {
				t.Fatal(err)
			}
			if drift != "" {
				t.Fatalf("markAll=%v step %d: diff view drifted: %s", markAll, i, drift)
			}
		}
	}
}

func TestUnionThroughEngine(t *testing.T) {
	for _, markAll := range []bool{false, true} {
		db := corpus.NewDatabase(corpus.Config{Departments: 4, EmpsPerDept: 2, ADeptsEveryN: 2})
		m, d := setOpsEngine(t, unionView(db), db, markAll)
		both := &txn.Type{Name: "both", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "Emp", Kind: txn.Insert, Size: 1},
			{Rel: "ADepts", Kind: txn.Insert, Size: 1},
		}}
		updates := map[string]*delta.Delta{
			"Emp":    db.EmpInsertDelta("u1", corpus.DeptName(1), 42),
			"ADepts": db.ADeptsInsertDelta(corpus.DeptName(3)),
		}
		if _, err := m.Apply(both, updates); err != nil {
			t.Fatalf("markAll=%v: %v", markAll, err)
		}
		drift, err := m.Drift(d.Root)
		if err != nil {
			t.Fatal(err)
		}
		if drift != "" {
			t.Fatalf("markAll=%v: union view drifted: %s", markAll, drift)
		}
	}
}
