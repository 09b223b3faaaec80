package exec

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// randomTree builds a random algebra tree over the corporate schema whose
// schema retains Emp.DName (so a department filter is always meaningful).
func randomTree(rng *rand.Rand, db *corpus.Database) algebra.Node {
	emp := algebra.Scan(db.Catalog.MustGet("Emp"))
	dept := algebra.Scan(db.Catalog.MustGet("Dept"))
	adepts := algebra.Scan(db.Catalog.MustGet("ADepts"))
	var tree algebra.Node = emp
	if rng.Intn(2) == 0 {
		if rng.Intn(2) == 0 {
			tree = algebra.NewJoin([]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}}, tree, dept)
		} else {
			tree = algebra.NewJoin([]algebra.JoinCond{{Left: "Emp.DName", Right: "ADepts.DName"}}, tree, adepts)
		}
	}
	for i := 0; i < rng.Intn(3); i++ {
		switch rng.Intn(4) {
		case 0:
			if !tree.Schema().Has("Emp.Salary") {
				continue
			}
			tree = algebra.NewSelect(
				expr.Compare(expr.GE, expr.C("Emp.Salary"), expr.IntLit(int64(rng.Intn(200)))), tree)
		case 1:
			if !tree.Schema().Has("Emp.Salary") {
				continue
			}
			items := []algebra.ProjectItem{{E: expr.C("Emp.DName")}, {E: expr.C("Emp.Salary")}}
			tree = algebra.NewProject(items, tree)
		case 2:
			tree = algebra.NewDistinct(tree)
		case 3:
			if tree.Schema().Has("Emp.Salary") {
				tree = algebra.NewAggregate(
					[]string{"Emp.DName"},
					[]algebra.AggSpec{
						{Func: algebra.Sum, Arg: expr.C("Emp.Salary"), As: "S"},
						{Func: algebra.Min, Arg: expr.C("Emp.Salary"), As: "Lo"},
					}, tree)
			}
		}
	}
	return tree
}

// TestEvalFilteredRandomTrees: on random trees, the pushed filtered plan
// must agree with evaluate-then-filter, and charged evaluation must agree
// with free evaluation.
func TestEvalFilteredRandomTrees(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		db := corpus.NewDatabase(corpus.Config{
			Departments: 2 + rng.Intn(4), EmpsPerDept: 1 + rng.Intn(4), ADeptsEveryN: 2,
		})
		tree := randomTree(rng, db)
		free := NewFree(db.Store)
		charged := New(db.Store)
		// Pick a filter column present in the schema.
		var cols []string
		if tree.Schema().Has("Emp.DName") {
			cols = []string{"Emp.DName"}
		} else {
			continue
		}
		key := value.Tuple{value.NewString(corpus.DeptName(rng.Intn(4)))}

		fast, err := charged.EvalFiltered(tree, cols, key)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, algebra.Render(tree))
		}
		slow, err := free.evalThenFilter(tree, cols, key)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(fast, slow) {
			t.Fatalf("trial %d: pushed filter diverges\n%s\nfast=%v\nslow=%v",
				trial, algebra.Render(tree), fast.Sorted(), slow.Sorted())
		}
		// Full evaluation: charged vs free must be identical results.
		a, err := charged.Eval(tree)
		if err != nil {
			t.Fatal(err)
		}
		b, err := free.Eval(tree)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(a, b) {
			t.Fatalf("trial %d: charged and free evaluation disagree", trial)
		}
	}
}

// TestFilteredChargesNeverExceedFullScan: sanity on the cost accounting —
// a pushed point query should not cost more than scanning everything
// (each base relation fully) plus index pages.
func TestFilteredChargesNeverExceedFullScan(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		db := corpus.NewDatabase(corpus.Config{Departments: 5, EmpsPerDept: 4, ADeptsEveryN: 2})
		tree := randomTree(rng, db)
		if !tree.Schema().Has("Emp.DName") {
			continue
		}
		ev := New(db.Store)
		db.Store.IO.Reset()
		if _, err := ev.EvalFiltered(tree, []string{"Emp.DName"},
			value.Tuple{value.NewString(corpus.DeptName(1))}); err != nil {
			t.Fatal(err)
		}
		got := db.Store.IO.Total()
		// Upper bound: scan of all base tuples + a generous index allowance.
		bound := int64(5 + 20 + 3 + 50)
		if got > bound {
			t.Errorf("trial %d: filtered eval charged %d I/Os (> %d)\n%s",
				trial, got, bound, algebra.Render(tree))
		}
	}
}

// TestEvalErrorsSurface: evaluating against a store missing the relation
// errors rather than panicking.
func TestEvalErrorsSurface(t *testing.T) {
	db := corpus.NewDatabase(corpus.Config{Departments: 2, EmpsPerDept: 2})
	emp := algebra.Scan(db.Catalog.MustGet("Emp"))
	db.Store.Drop("Emp")
	ev := NewFree(db.Store)
	if _, err := ev.Eval(emp); err == nil {
		t.Error("missing relation should error")
	}
	if _, err := ev.EvalFiltered(emp, []string{"Emp.DName"},
		value.Tuple{value.NewString("x")}); err == nil {
		t.Error("missing relation should error on filtered path too")
	}
	if _, err := ev.EvalFiltered(emp, []string{"Emp.DName"}, value.Tuple{}); err == nil {
		t.Error("arity mismatch should error")
	}
}

// TestRowSlabKeepsEarlierAnswers: one evaluator answering every query
// into one growing row slab (as the maintainer's does within a window)
// must give, row for row and in the same order, what a fresh evaluator
// gives — and an answer must still read the same after later queries
// have reused the join scratch and grown the slab past it.
func TestRowSlabKeepsEarlierAnswers(t *testing.T) {
	db := corpus.NewDatabase(corpus.Config{Departments: 6, EmpsPerDept: 5, ADeptsEveryN: 2})
	var slab []storage.Row
	shared := NewFree(db.Store).WithRows(&slab)
	type answer struct {
		tree algebra.Node
		key  value.Tuple
		got  *Result
	}
	var kept []answer
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(11000 + trial)))
		tree := randomTree(rng, db)
		if !tree.Schema().Has("Emp.DName") {
			continue
		}
		key := value.Tuple{value.NewString(corpus.DeptName(rng.Intn(7)))}
		got, err := shared.EvalFiltered(tree, []string{"Emp.DName"}, key)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, answer{tree, key, got})
		full, err := shared.Eval(tree)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, answer{tree, nil, full})
	}
	if len(slab) == 0 {
		t.Fatal("no query went through the slab")
	}
	for i, a := range kept {
		var want *Result
		var err error
		if a.key == nil {
			want, err = NewFree(db.Store).Eval(a.tree)
		} else {
			want, err = NewFree(db.Store).EvalFiltered(a.tree, []string{"Emp.DName"}, a.key)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(a.got.Rows) != len(want.Rows) {
			t.Fatalf("answer %d: %d rows, want %d\n%s", i, len(a.got.Rows), len(want.Rows), algebra.Render(a.tree))
		}
		for j := range want.Rows {
			if !a.got.Rows[j].Tuple.Equal(want.Rows[j].Tuple) || a.got.Rows[j].Count != want.Rows[j].Count {
				t.Fatalf("answer %d row %d: %v, want %v\n%s", i, j, a.got.Rows[j], want.Rows[j], algebra.Render(a.tree))
			}
		}
	}
}
