package corpus_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/exec"
)

func TestPaperConfigStatistics(t *testing.T) {
	db := corpus.NewDatabase(corpus.PaperConfig())
	dept := db.Store.MustGet("Dept")
	emp := db.Store.MustGet("Emp")
	if dept.Card() != 1000 {
		t.Errorf("departments = %d", dept.Card())
	}
	if emp.Card() != 10000 {
		t.Errorf("employees = %d", emp.Card())
	}
	// "a uniform distribution of employees to departments": fan-out 10.
	st := emp.Def.Stats
	if got := st.Fanout["DName"]; got != 10 {
		t.Errorf("Fanout[DName] = %g, want 10", got)
	}
	if dept.Def.Stats.DistinctOf("DName") != 1000 {
		t.Error("DName should be unique in Dept")
	}
	adepts := db.Store.MustGet("ADepts")
	if adepts.Card() != 20 {
		t.Errorf("ADepts = %d, want 20 (1 in 50)", adepts.Card())
	}
}

func TestBudgetsKeepViewEmpty(t *testing.T) {
	db := corpus.NewDatabase(corpus.Config{Departments: 10, EmpsPerDept: 7})
	res, err := exec.NewFree(db.Store).Eval(db.ProblemDept())
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 0 {
		t.Errorf("ProblemDept should start empty (constraint rarely violated), got %d", res.Card())
	}
}

func TestWorkloadDeltasAgainstCurrentState(t *testing.T) {
	db := corpus.NewDatabase(corpus.Config{Departments: 3, EmpsPerDept: 2})
	d, err := db.EmpSalaryDelta(1, 0, 555)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 1 || !d.Changes[0].IsModify() {
		t.Fatalf("delta = %v", d.Changes)
	}
	if d.Changes[0].Old[2].AsInt() != corpus.BaseSalary {
		t.Error("old side should carry the current salary")
	}
	// Apply, then a second delta must see the new state.
	db.Store.MustGet("Emp").ApplyBatch(d.ToMutations())
	d2, err := db.EmpSalaryDelta(1, 0, 777)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Changes[0].Old[2].AsInt() != 555 {
		t.Errorf("second delta old salary = %v, want 555", d2.Changes[0].Old[2])
	}
	if _, err := db.EmpSalaryDelta(99, 0, 1); err == nil {
		t.Error("missing employee should error")
	}
}

func TestFigure5DatabaseShape(t *testing.T) {
	cfg := corpus.DefaultFigure5Config()
	db := corpus.Figure5Database(cfg)
	if db.Store.MustGet("T").Card() != cfg.Items {
		t.Error("T should have one row per item")
	}
	if db.Store.MustGet("R").Card() != cfg.Items*cfg.RPerItem {
		t.Error("R cardinality wrong")
	}
	if !db.Store.MustGet("T").Def.HasKey([]string{"Item"}) {
		t.Error("Item must be a key of T")
	}
	if db.Store.MustGet("R").Def.HasKey([]string{"Item"}) {
		t.Error("Item must NOT be a key of R (Figure 5's condition)")
	}
	res, err := exec.NewFree(db.Store).Eval(db.Figure5View(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != cfg.Items {
		t.Errorf("revenue groups = %d, want %d", res.Card(), cfg.Items)
	}
}
