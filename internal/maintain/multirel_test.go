package maintain_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/delta"
	"repro/internal/txn"
)

// TestMultiRelationTransaction drives a single transaction that updates
// Emp AND Dept simultaneously (the ΔL⋈R ∪ L⋈ΔR ∪ ΔL⋈ΔR decomposition
// through the engine) and checks consistency.
func TestMultiRelationTransaction(t *testing.T) {
	s := newScenario(t, corpus.Config{Departments: 6, EmpsPerDept: 3})
	m := s.maintainer(t, s.n3)
	both := &txn.Type{
		Name: ">Both", Weight: 1,
		Updates: []txn.RelUpdate{
			{Rel: "Emp", Kind: txn.Modify, Size: 1, Cols: []string{"Salary"}},
			{Rel: "Dept", Kind: txn.Modify, Size: 1, Cols: []string{"Budget"}},
		},
	}
	de, err := s.db.EmpSalaryDelta(2, 1, 450)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := s.db.DeptBudgetDelta(2, 300) // same department: deltas interact
	if err != nil {
		t.Fatal(err)
	}
	// Apply is a one-transaction ApplyBatch window; checkDrift compares
	// against the recompute oracle after each call in this file.
	if _, err := m.Apply(both, map[string]*delta.Delta{"Emp": de, "Dept": dd}); err != nil {
		t.Fatal(err)
	}
	s.checkDrift(t, m, s.n3)
	// The budget cut below the raised payroll makes d2 a problem dept.
	rows := m.Contents(s.d.Root)
	if len(rows) != 1 || rows[0].Tuple[0].S != corpus.DeptName(2) {
		t.Fatalf("ProblemDept = %v, want exactly d0002", rows)
	}

	// A second combined transaction on different departments.
	de, err = s.db.EmpSalaryDelta(4, 0, 120)
	if err != nil {
		t.Fatal(err)
	}
	dd, err = s.db.DeptBudgetDelta(5, 9999)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(both, map[string]*delta.Delta{"Emp": de, "Dept": dd}); err != nil {
		t.Fatal(err)
	}
	s.checkDrift(t, m, s.n3)
}

// TestMultiRelationWithN4 exercises a join whose inputs both changed,
// where the join view itself is materialized (deltas must combine into
// one batch for N4).
func TestMultiRelationWithN4(t *testing.T) {
	s := newScenario(t, corpus.Config{Departments: 4, EmpsPerDept: 2})
	m := s.maintainer(t, s.n4)
	both := &txn.Type{
		Name: ">Both", Weight: 1,
		Updates: []txn.RelUpdate{
			{Rel: "Emp", Kind: txn.Modify, Size: 1, Cols: []string{"Salary"}},
			{Rel: "Dept", Kind: txn.Modify, Size: 1, Cols: []string{"Budget"}},
		},
	}
	de, err := s.db.EmpSalaryDelta(1, 0, 777)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := s.db.DeptBudgetDelta(1, 123)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(both, map[string]*delta.Delta{"Emp": de, "Dept": dd}); err != nil {
		t.Fatal(err)
	}
	s.checkDrift(t, m, s.n4)
}
