package exec

import (
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

func smallDB() *corpus.Database {
	return corpus.NewDatabase(corpus.Config{Departments: 5, EmpsPerDept: 3, ADeptsEveryN: 2})
}

func TestEvalScanSelectProject(t *testing.T) {
	db := smallDB()
	ev := NewFree(db.Store)
	emp := algebra.Scan(db.Catalog.MustGet("Emp"))
	res, err := ev.Eval(emp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 15 {
		t.Fatalf("Emp card = %d, want 15", res.Card())
	}
	sel := algebra.NewSelect(
		expr.Compare(expr.EQ, expr.C("Emp.DName"), expr.StrLit(corpus.DeptName(0))),
		emp,
	)
	res, err = ev.Eval(sel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 3 {
		t.Fatalf("selected card = %d, want 3", res.Card())
	}
	proj := algebra.NewProject(
		[]algebra.ProjectItem{{E: expr.C("Emp.DName")}},
		emp,
	)
	res, err = ev.Eval(proj)
	if err != nil {
		t.Fatal(err)
	}
	// Bag projection merges: 5 distinct departments, counts of 3.
	if res.Card() != 5 || res.Total() != 15 {
		t.Fatalf("projected card = %d total = %d, want 5/15", res.Card(), res.Total())
	}
}

func TestEvalJoin(t *testing.T) {
	db := smallDB()
	ev := NewFree(db.Store)
	join := algebra.NewJoin(
		[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
		algebra.Scan(db.Catalog.MustGet("Emp")),
		algebra.Scan(db.Catalog.MustGet("Dept")),
	)
	res, err := ev.Eval(join)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 15 {
		t.Fatalf("join card = %d, want 15", res.Card())
	}
	if res.Schema.Len() != 6 {
		t.Fatalf("join schema width = %d, want 6", res.Schema.Len())
	}
}

func TestEvalJoinResidual(t *testing.T) {
	db := smallDB()
	ev := NewFree(db.Store)
	join := algebra.NewJoin(
		[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
		algebra.Scan(db.Catalog.MustGet("Emp")),
		algebra.Scan(db.Catalog.MustGet("Dept")),
	)
	join.Residual = expr.Compare(expr.GT, expr.C("Dept.Budget"), expr.C("Emp.Salary"))
	res, err := ev.Eval(join)
	if err != nil {
		t.Fatal(err)
	}
	// Budgets are far above salaries, so the residual keeps everything.
	if res.Card() != 15 {
		t.Fatalf("residual join card = %d", res.Card())
	}
}

func TestEvalAggregate(t *testing.T) {
	db := smallDB()
	ev := NewFree(db.Store)
	res, err := ev.Eval(db.SumOfSals())
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 5 {
		t.Fatalf("SumOfSals card = %d, want 5", res.Card())
	}
	for _, row := range res.Rows {
		if got := row.Tuple[1].AsInt(); got != 3*corpus.BaseSalary {
			t.Errorf("salary sum = %d, want %d", got, 3*corpus.BaseSalary)
		}
	}
}

func TestEvalAggregateFunctions(t *testing.T) {
	db := smallDB()
	ev := NewFree(db.Store)
	agg := algebra.NewAggregate(
		[]string{"Emp.DName"},
		[]algebra.AggSpec{
			{Func: algebra.Count, As: "n"},
			{Func: algebra.Min, Arg: expr.C("Emp.Salary"), As: "lo"},
			{Func: algebra.Max, Arg: expr.C("Emp.Salary"), As: "hi"},
			{Func: algebra.Avg, Arg: expr.C("Emp.Salary"), As: "avg"},
		},
		algebra.Scan(db.Catalog.MustGet("Emp")),
	)
	res, err := ev.Eval(agg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 5 {
		t.Fatalf("groups = %d", res.Card())
	}
	row := res.Sorted()[0]
	if row.Tuple[1].AsInt() != 3 {
		t.Errorf("COUNT = %v", row.Tuple[1])
	}
	if row.Tuple[2].AsInt() != corpus.BaseSalary || row.Tuple[3].AsInt() != corpus.BaseSalary {
		t.Errorf("MIN/MAX = %v/%v", row.Tuple[2], row.Tuple[3])
	}
	if row.Tuple[4].AsFloat() != corpus.BaseSalary {
		t.Errorf("AVG = %v", row.Tuple[4])
	}
}

// TestAggregateMultiplicityIsOneStep: the recompute oracle folds a row of
// multiplicity n into an integer SUM as n·v, as the incremental fold
// does, not as n additions — a row of 1<<40 copies aggregates at once.
func TestAggregateMultiplicityIsOneStep(t *testing.T) {
	def := &catalog.TableDef{Name: "T", Schema: catalog.NewSchema(
		catalog.Column{Qualifier: "T", Name: "g", Type: value.Int},
		catalog.Column{Qualifier: "T", Name: "v", Type: value.Int},
	)}
	st := storage.NewStore()
	rel, err := st.Create(def)
	if err != nil {
		t.Fatal(err)
	}
	const n = int64(1) << 40
	rel.Load([]storage.Row{{Tuple: value.Tuple{value.NewInt(1), value.NewInt(3)}, Count: n}})
	agg := algebra.NewAggregate([]string{"T.g"}, []algebra.AggSpec{
		{Func: algebra.Sum, Arg: expr.C("T.v"), As: "s"},
		{Func: algebra.Count, Arg: expr.C("T.v"), As: "n"},
	}, algebra.Scan(def))
	done := make(chan *Result, 1)
	go func() {
		res, err := NewFree(st).Eval(agg)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res == nil {
			return
		}
		if len(res.Rows) != 1 || res.Rows[0].Tuple[1].AsInt() != 3<<40 || res.Rows[0].Tuple[2].AsInt() != n {
			t.Errorf("rows = %v, want one group with SUM %d and COUNT %d", res.Rows, int64(3)<<40, n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SUM over one row of multiplicity 1<<40 did not return within 10 s")
	}
}

func TestProblemDeptInitiallyEmpty(t *testing.T) {
	db := smallDB()
	ev := NewFree(db.Store)
	res, err := ev.Eval(db.ProblemDept())
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 0 {
		t.Fatalf("ProblemDept should start empty, got %d rows", res.Card())
	}
}

func TestProblemDeptDetectsOverspend(t *testing.T) {
	db := smallDB()
	// Push one employee's salary above the whole budget.
	rel := db.Store.MustGet("Emp")
	old := value.Tuple{
		value.NewString(corpus.EmpName(2, 0)),
		value.NewString(corpus.DeptName(2)),
		value.NewInt(corpus.BaseSalary),
	}
	newT := old.Clone()
	newT[2] = value.NewInt(10_000)
	rel.ApplyBatch([]storage.Mutation{{Old: old, New: newT}})

	ev := NewFree(db.Store)
	res, err := ev.Eval(db.ProblemDept())
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 1 {
		t.Fatalf("ProblemDept card = %d, want 1", res.Card())
	}
	if got := res.Rows[0].Tuple[0].S; got != corpus.DeptName(2) {
		t.Errorf("problem dept = %q", got)
	}
}

// TestBothFigure1TreesAgree evaluates both expression trees of Figure 1
// and checks they produce the same result (they are equivalent).
func TestBothFigure1TreesAgree(t *testing.T) {
	db := smallDB()
	rel := db.Store.MustGet("Emp")
	old := value.Tuple{
		value.NewString(corpus.EmpName(1, 1)),
		value.NewString(corpus.DeptName(1)),
		value.NewInt(corpus.BaseSalary),
	}
	newT := old.Clone()
	newT[2] = value.NewInt(50_000)
	rel.ApplyBatch([]storage.Mutation{{Old: old, New: newT}})

	ev := NewFree(db.Store)
	a, err := ev.Eval(db.ProblemDept())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Eval(db.ProblemDeptAlt())
	if err != nil {
		t.Fatal(err)
	}
	if a.Card() != 1 || b.Card() != 1 {
		t.Fatalf("cards = %d/%d, want 1/1", a.Card(), b.Card())
	}
	// Same department name; schemas differ in column provenance but the
	// DName value must agree.
	da := a.Rows[0].Tuple[a.Schema.MustResolve("Dept.DName")]
	dbv := b.Rows[0].Tuple[b.Schema.MustResolve("Emp.DName")]
	if da.S != dbv.S {
		t.Errorf("trees disagree: %q vs %q", da.S, dbv.S)
	}
}

func TestDistinctUnionDiff(t *testing.T) {
	db := smallDB()
	ev := NewFree(db.Store)
	emp := algebra.Scan(db.Catalog.MustGet("Emp"))
	proj := algebra.NewProject([]algebra.ProjectItem{{E: expr.C("Emp.DName")}}, emp)
	dis := algebra.NewDistinct(proj)
	res, err := ev.Eval(dis)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 5 || res.Total() != 5 {
		t.Fatalf("distinct = %d/%d", res.Card(), res.Total())
	}
	uni := algebra.NewUnion(proj, proj)
	res, err = ev.Eval(uni)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() != 30 {
		t.Fatalf("union total = %d, want 30", res.Total())
	}
	diff := algebra.NewDiff(uni, proj)
	res, err = ev.Eval(diff)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() != 15 {
		t.Fatalf("diff total = %d, want 15", res.Total())
	}
	empty := algebra.NewDiff(proj, proj)
	res, err = ev.Eval(empty)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 0 {
		t.Fatalf("self-diff should be empty, got %d", res.Card())
	}
}

// TestFilteredCostsMatchPaperQueries reproduces the I/O costs of the
// paper's Example 3.2 queries on the full-size instance: Q4e (sum of
// salaries of one department, posed on the aggregate over Emp) costs 11;
// Q3e (posed on the Emp⋈Dept equivalence node) costs 13; a Dept lookup
// (Q2Re/Q5Re) costs 2.
func TestFilteredCostsMatchPaperQueries(t *testing.T) {
	db := corpus.NewDatabase(corpus.PaperConfig())
	ev := New(db.Store)
	dname := value.Tuple{value.NewString(corpus.DeptName(7))}

	// Q4e: aggregate over Emp, filtered by department.
	db.Store.IO.Reset()
	res, err := ev.EvalFiltered(db.SumOfSals(), []string{"Emp.DName"}, dname)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 1 {
		t.Fatalf("Q4e rows = %d", res.Card())
	}
	if got := db.Store.IO.Total(); got != 11 {
		t.Errorf("Q4e cost = %d, want 11 (%v)", got, db.Store.IO)
	}

	// Q3e: join Emp⋈Dept filtered by department: 11 + 2.
	join := algebra.NewJoin(
		[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
		algebra.Scan(db.Catalog.MustGet("Emp")),
		algebra.Scan(db.Catalog.MustGet("Dept")),
	)
	db.Store.IO.Reset()
	res, err = ev.EvalFiltered(join, []string{"Dept.DName"}, dname)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 10 {
		t.Fatalf("Q3e rows = %d, want 10", res.Card())
	}
	if got := db.Store.IO.Total(); got != 13 {
		t.Errorf("Q3e cost = %d, want 13 (%v)", got, db.Store.IO)
	}

	// Q2Re/Q5Re: single Dept tuple by key: 2.
	db.Store.IO.Reset()
	res, err = ev.EvalFiltered(
		algebra.Scan(db.Catalog.MustGet("Dept")),
		[]string{"Dept.DName"}, dname)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 1 {
		t.Fatalf("Dept lookup rows = %d", res.Card())
	}
	if got := db.Store.IO.Total(); got != 2 {
		t.Errorf("Dept lookup cost = %d, want 2 (%v)", got, db.Store.IO)
	}
}

// TestEvalFilteredMatchesEvalThenFilter is the correctness property: the
// pushed-down plan must return exactly what filter-after-evaluate does.
func TestEvalFilteredMatchesEvalThenFilter(t *testing.T) {
	db := smallDB()
	ev := NewFree(db.Store)
	views := []algebra.Node{
		db.ProblemDept(),
		db.ProblemDeptAlt(),
		db.SumOfSals(),
		db.ADeptsStatus(),
	}
	cols := []string{"Dept.DName"}
	sumCols := []string{"Emp.DName"}
	for vi, v := range views {
		fcols := cols
		if vi == 2 {
			fcols = sumCols
		}
		for d := 0; d < 5; d++ {
			key := value.Tuple{value.NewString(corpus.DeptName(d))}
			fast, err := ev.EvalFiltered(v, fcols, key)
			if err != nil {
				t.Fatalf("view %d dept %d: %v", vi, d, err)
			}
			slow, err := ev.evalThenFilter(v, fcols, key)
			if err != nil {
				t.Fatalf("view %d dept %d oracle: %v", vi, d, err)
			}
			if !sameRows(fast, slow) {
				t.Errorf("view %d dept %d: pushed plan diverges from oracle:\nfast=%v\nslow=%v",
					vi, d, fast.Sorted(), slow.Sorted())
			}
		}
	}
}

func sameRows(a, b *Result) bool {
	as, bs := a.Sorted(), b.Sorted()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if !as[i].Tuple.Equal(bs[i].Tuple) || as[i].Count != bs[i].Count {
			return false
		}
	}
	return true
}
