package maintain_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/expr"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
)

// scenario bundles a paper-size database, the expanded DAG and the
// Figure 2 node handles.
type scenario struct {
	db     *corpus.Database
	d      *dag.DAG
	n3, n4 *dag.EqNode
}

func newScenario(t *testing.T, cfg corpus.Config) *scenario {
	t.Helper()
	db := corpus.NewDatabase(cfg)
	d, err := dag.FromTree(db.ProblemDept())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 200); err != nil {
		t.Fatal(err)
	}
	s := &scenario{db: db, d: d}
	s.n3 = d.FindEq(db.SumOfSals())
	join := algebra.NewJoin(
		[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
		algebra.Scan(db.Catalog.MustGet("Emp")),
		algebra.Scan(db.Catalog.MustGet("Dept")),
	)
	s.n4 = d.FindEq(join)
	if s.n3 == nil || s.n4 == nil {
		t.Fatal("missing N3/N4 in DAG")
	}
	return s
}

func (s *scenario) maintainer(t *testing.T, extra ...*dag.EqNode) *maintain.Maintainer {
	t.Helper()
	vs := tracks.RootSet(s.d)
	for _, e := range extra {
		vs[e.ID] = true
	}
	m, err := maintain.New(s.d, s.db.Store, cost.PageIO{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (s *scenario) empTxn(t *testing.T, i, j int, sal int64) (*txn.Type, map[string]*delta.Delta) {
	t.Helper()
	d, err := s.db.EmpSalaryDelta(i, j, sal)
	if err != nil {
		t.Fatal(err)
	}
	return txn.PaperTypes()[0], map[string]*delta.Delta{"Emp": d}
}

func (s *scenario) deptTxn(t *testing.T, i int, budget int64) (*txn.Type, map[string]*delta.Delta) {
	t.Helper()
	d, err := s.db.DeptBudgetDelta(i, budget)
	if err != nil {
		t.Fatal(err)
	}
	return txn.PaperTypes()[1], map[string]*delta.Delta{"Dept": d}
}

func (s *scenario) checkDrift(t *testing.T, m *maintain.Maintainer, nodes ...*dag.EqNode) {
	t.Helper()
	for _, e := range append([]*dag.EqNode{s.d.Root}, nodes...) {
		drift, err := m.Drift(e)
		if err != nil {
			t.Fatal(err)
		}
		if drift != "" {
			t.Fatalf("view %s drifted from recomputation: %s", e, drift)
		}
	}
}

// TestMeasuredIOMatchesPaperTables runs the actual maintenance engine on
// the full-size paper instance and checks that the *measured* page I/Os
// equal the paper's §3.6 combined table: 13/11 for no additional views,
// 5/2 for {N3}, 16/32 for {N4} — through Apply and through an explicit
// one-transaction ApplyBatch window alike. The window arm is the one
// that needs single-transaction coalescing to keep modifications
// paired: torn into delete+insert, {N4} measures 17/33.
func TestMeasuredIOMatchesPaperTables(t *testing.T) {
	cases := []struct {
		name              string
		extra             func(*scenario) []*dag.EqNode
		wantEmp, wantDept int64
	}{
		{"empty", func(s *scenario) []*dag.EqNode { return nil }, 13, 11},
		{"N3", func(s *scenario) []*dag.EqNode { return []*dag.EqNode{s.n3} }, 5, 2},
		{"N4", func(s *scenario) []*dag.EqNode { return []*dag.EqNode{s.n4} }, 16, 32},
	}
	entries := []struct {
		name  string
		apply func(*maintain.Maintainer, *txn.Type, map[string]*delta.Delta) (*maintain.BatchReport, error)
	}{
		{"Apply", (*maintain.Maintainer).Apply},
		{"ApplyBatch", func(m *maintain.Maintainer, ty *txn.Type, up map[string]*delta.Delta) (*maintain.BatchReport, error) {
			return m.ApplyBatch([]txn.Transaction{{Type: ty, Updates: up}})
		}},
	}
	for _, c := range cases {
		for _, entry := range entries {
			t.Run(c.name+"/"+entry.name, func(t *testing.T) {
				s := newScenario(t, corpus.PaperConfig())
				extra := c.extra(s)
				m := s.maintainer(t, extra...)

				ty, up := s.empTxn(t, 3, 4, 250)
				rep, err := entry.apply(m, ty, up)
				if err != nil {
					t.Fatal(err)
				}
				if got := rep.PaperTotal(); got != c.wantEmp {
					t.Errorf(">Emp measured = %d, want %d (query %v, view %v)",
						got, c.wantEmp, rep.QueryIO, rep.ViewIO)
				}
				s.checkDrift(t, m, extra...)

				ty, up = s.deptTxn(t, 7, 123456)
				rep, err = entry.apply(m, ty, up)
				if err != nil {
					t.Fatal(err)
				}
				if got := rep.PaperTotal(); got != c.wantDept {
					t.Errorf(">Dept measured = %d, want %d (query %v, view %v)",
						got, c.wantDept, rep.QueryIO, rep.ViewIO)
				}
				s.checkDrift(t, m, extra...)
			})
		}
	}
}

// TestLongTransactionSequenceStaysConsistent drives a mixed sequence of
// salary changes, budget changes, hires and departures through the {N3}
// strategy and checks the views never drift from full recomputation, and
// the assertion view flags exactly the overspent departments.
func TestLongTransactionSequenceStaysConsistent(t *testing.T) {
	s := newScenario(t, corpus.Config{Departments: 20, EmpsPerDept: 5})
	m := s.maintainer(t, s.n3)
	empT, deptT := txn.PaperTypes()[0], txn.PaperTypes()[1]
	hire := &txn.Type{Name: "+Emp", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Insert, Size: 1}}}
	fire := &txn.Type{Name: "-Emp", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Delete, Size: 1}}}

	apply := func(ty *txn.Type, d *delta.Delta, rel string) {
		t.Helper()
		if _, err := m.Apply(ty, map[string]*delta.Delta{rel: d}); err != nil {
			t.Fatal(err)
		}
		s.checkDrift(t, m, s.n3)
	}

	for step := 0; step < 30; step++ {
		switch step % 4 {
		case 0:
			d, err := s.db.EmpSalaryDelta(step%20, step%5, int64(100+37*step))
			if err != nil {
				t.Fatal(err)
			}
			apply(empT, d, "Emp")
		case 1:
			d, err := s.db.DeptBudgetDelta(step%20, int64(1000+step))
			if err != nil {
				t.Fatal(err)
			}
			apply(deptT, d, "Dept")
		case 2:
			apply(hire, s.db.EmpInsertDelta(
				"newbie"+corpus.EmpName(step, 0), corpus.DeptName(step%20), 90), "Emp")
		default:
			d, err := s.db.EmpDeleteDelta(step%20, (step+1)%5)
			if err != nil {
				t.Skip("employee already deleted in a previous round")
			}
			apply(fire, d, "Emp")
		}
	}
}

// TestViolationAppearsInRootView: pushing a department over budget makes
// the maintained ProblemDept view non-empty; restoring the salary empties
// it again.
func TestViolationAppearsInRootView(t *testing.T) {
	s := newScenario(t, corpus.Config{Departments: 5, EmpsPerDept: 3})
	m := s.maintainer(t, s.n3)
	empT := txn.PaperTypes()[0]

	d, err := s.db.EmpSalaryDelta(2, 0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(empT, map[string]*delta.Delta{"Emp": d}); err != nil {
		t.Fatal(err)
	}
	rows := m.Contents(s.d.Root)
	if len(rows) != 1 {
		t.Fatalf("ProblemDept rows = %d, want 1", len(rows))
	}
	if got := rows[0].Tuple[0].S; got != corpus.DeptName(2) {
		t.Errorf("violating department = %q", got)
	}
	s.checkDrift(t, m, s.n3)

	d, err = s.db.EmpSalaryDelta(2, 0, corpus.BaseSalary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(empT, map[string]*delta.Delta{"Emp": d}); err != nil {
		t.Fatal(err)
	}
	if rows := m.Contents(s.d.Root); len(rows) != 0 {
		t.Fatalf("ProblemDept should be empty again, has %d rows", len(rows))
	}
	s.checkDrift(t, m, s.n3)
}

// TestGroupBirthAndDeathThroughEngine: hiring the first employee of a new
// department and firing a department's last employee keep the N3 view and
// sidecar correct.
func TestGroupBirthAndDeathThroughEngine(t *testing.T) {
	s := newScenario(t, corpus.Config{Departments: 3, EmpsPerDept: 1})
	m := s.maintainer(t, s.n3)
	hire := &txn.Type{Name: "+Emp", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Insert, Size: 1}}}
	fire := &txn.Type{Name: "-Emp", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Delete, Size: 1}}}

	// Hire into a brand-new department (no Dept row: the join view stays
	// empty but N3 gains a group).
	if _, err := m.Apply(hire, map[string]*delta.Delta{
		"Emp": s.db.EmpInsertDelta("solo", "d-new", 500),
	}); err != nil {
		t.Fatal(err)
	}
	s.checkDrift(t, m, s.n3)
	n3rel, _ := m.ViewRel(s.n3)
	if n3rel.Card() != 4 {
		t.Errorf("N3 card = %d, want 4 (3 departments + d-new)", n3rel.Card())
	}

	// Fire the only employee of department 0: its group must vanish.
	d, err := s.db.EmpDeleteDelta(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(fire, map[string]*delta.Delta{"Emp": d}); err != nil {
		t.Fatal(err)
	}
	s.checkDrift(t, m, s.n3)
	if n3rel.Card() != 3 {
		t.Errorf("N3 card = %d after death, want 3", n3rel.Card())
	}
}

// TestNullSumGroupThroughEngine: a group born in a window whose SUM
// arguments are all NULL has SUM NULL, as recomputation says, not 0; it
// stays NULL through a window that gives it only another NULL argument,
// and its first non-NULL argument sets it.
func TestNullSumGroupThroughEngine(t *testing.T) {
	s := newScenario(t, corpus.Config{Departments: 3, EmpsPerDept: 1})
	m := s.maintainer(t, s.n3)
	hire := &txn.Type{Name: "+Emp", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Insert, Size: 1}}}
	empSchema := s.db.Catalog.MustGet("Emp").Schema
	hired := 0
	window := func(salaries ...value.Value) {
		t.Helper()
		var w []txn.Transaction
		for _, sal := range salaries {
			hired++
			d := delta.New(empSchema)
			d.Insert(value.Tuple{value.NewString(fmt.Sprintf("null%d", hired)), value.NewString("d-null"), sal}, 1)
			w = append(w, txn.Transaction{Type: hire, Updates: map[string]*delta.Delta{"Emp": d}})
		}
		if _, err := m.ApplyBatch(w); err != nil {
			t.Fatal(err)
		}
		s.checkDrift(t, m, s.n3)
	}
	sumOf := func() value.Value {
		t.Helper()
		for _, r := range m.Contents(s.n3) {
			if r.Tuple[0].S == "d-null" {
				return r.Tuple[1]
			}
		}
		t.Fatal("no d-null group in N3")
		return value.Value{}
	}

	window(value.NewNull(), value.NewNull())
	if v := sumOf(); !v.IsNull() {
		t.Fatalf("SUM of a group born with NULL salaries only = %v, want NULL", v)
	}
	window(value.NewNull())
	if v := sumOf(); !v.IsNull() {
		t.Fatalf("SUM after another NULL salary = %v, want NULL", v)
	}
	window(value.NewInt(70))
	if v := sumOf(); v != value.NewInt(70) {
		t.Fatalf("SUM after the first salary = %v, want 70", v)
	}
}

// TestSignedZeroGroupsThroughEngine: a view grouped by a FLOAT column
// keeps +0.0 and −0.0 apart, as the recomputation oracle does — one
// window inserts a row into each, the next deletes one of them.
func TestSignedZeroGroupsThroughEngine(t *testing.T) {
	def := &catalog.TableDef{Name: "T", Schema: catalog.NewSchema(
		catalog.Column{Qualifier: "T", Name: "g", Type: value.Float},
		catalog.Column{Qualifier: "T", Name: "x", Type: value.Int},
	)}
	store := storage.NewStore()
	if _, err := store.Create(def); err != nil {
		t.Fatal(err)
	}
	d, err := dag.FromTree(algebra.NewAggregate([]string{"T.g"},
		[]algebra.AggSpec{{Func: algebra.Sum, Arg: expr.C("T.x"), As: "s"}}, algebra.Scan(def)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := maintain.New(d, store, cost.PageIO{}, tracks.RootSet(d))
	if err != nil {
		t.Fatal(err)
	}
	rows := []value.Tuple{
		{value.NewFloat(0), value.NewInt(1)},
		{value.NewFloat(math.Copysign(0, -1)), value.NewInt(2)},
	}
	ins := &txn.Type{Name: "+T", Weight: 1, Updates: []txn.RelUpdate{{Rel: "T", Kind: txn.Insert, Size: 1}}}
	del := &txn.Type{Name: "-T", Weight: 1, Updates: []txn.RelUpdate{{Rel: "T", Kind: txn.Delete, Size: 1}}}
	one := func(ty *txn.Type, r value.Tuple) txn.Transaction {
		u := delta.New(def.Schema)
		if ty == ins {
			u.Insert(r, 1)
		} else {
			u.Delete(r, 1)
		}
		return txn.Transaction{Type: ty, Updates: map[string]*delta.Delta{"T": u}}
	}
	for w, window := range [][]txn.Transaction{
		{one(ins, rows[0]), one(ins, rows[1])},
		{one(del, rows[1])},
	} {
		if _, err := m.ApplyBatch(window); err != nil {
			t.Fatal(err)
		}
		if drift, err := m.Drift(d.Root); err != nil || drift != "" {
			t.Fatalf("window %d: drift %q %v", w, drift, err)
		}
		if got := len(m.Contents(d.Root)); got != 2-w {
			t.Fatalf("window %d: %d groups, want %d", w, got, 2-w)
		}
	}
}

// TestEstimatedVsMeasuredAgreeAcrossScales: the structural agreement
// between the cost model and the engine must hold across database sizes,
// not just the paper's 1000×10 instance.
func TestEstimatedVsMeasuredAgreeAcrossScales(t *testing.T) {
	for _, cfg := range []corpus.Config{
		{Departments: 10, EmpsPerDept: 3},
		{Departments: 50, EmpsPerDept: 20},
	} {
		s := newScenario(t, cfg)
		c := tracks.NewCosting(s.d, cost.PageIO{})
		vs := tracks.NewViewSet(s.d.Root, s.n3)
		m := s.maintainer(t, s.n3)

		ty, up := s.empTxn(t, 1, 1, 500)
		best, _ := c.CostViewSet(vs, ty)
		rep, err := m.Apply(ty, up)
		if err != nil {
			t.Fatal(err)
		}
		if float64(rep.PaperTotal()) != best.Total() {
			t.Errorf("cfg %+v: measured %d != estimated %g", cfg, rep.PaperTotal(), best.Total())
		}
		s.checkDrift(t, m, s.n3)
	}
}
