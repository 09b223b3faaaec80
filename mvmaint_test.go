package mvmaint_test

import (
	"fmt"
	"strings"
	"testing"

	mvmaint "repro"
	"repro/internal/txn"
)

// paperDB builds the paper's corporate database through the SQL front
// end, at a reduced scale for fast tests.
func paperDB(t testing.TB, departments, empsPerDept int) *mvmaint.DB {
	t.Helper()
	db := mvmaint.Open()
	db.MustExec(`
CREATE TABLE Dept (DName VARCHAR(20) PRIMARY KEY, MName VARCHAR(20), Budget INT);
CREATE TABLE Emp (EName VARCHAR(20) PRIMARY KEY, DName VARCHAR(20), Salary INT);
CREATE INDEX dept_dname ON Dept (DName);
CREATE INDEX emp_dname ON Emp (DName);
CREATE INDEX emp_ename ON Emp (EName);
`)
	var b strings.Builder
	for i := 0; i < departments; i++ {
		fmt.Fprintf(&b, "INSERT INTO Dept VALUES ('d%03d', 'm%03d', %d);\n",
			i, i, empsPerDept*100+500)
		for j := 0; j < empsPerDept; j++ {
			fmt.Fprintf(&b, "INSERT INTO Emp VALUES ('e%03d_%02d', 'd%03d', 100);\n", i, j, i)
		}
	}
	db.MustExec(b.String())
	db.MustExec(`
CREATE VIEW ProblemDept (DName) AS
SELECT Dept.DName FROM Emp, Dept
WHERE Dept.DName = Emp.DName
GROUP BY Dept.DName, Budget
HAVING SUM(Salary) > Budget;

CREATE ASSERTION DeptConstraint CHECK
  (NOT EXISTS (SELECT * FROM ProblemDept));
`)
	return db
}

func paperWorkload() []*txn.Type {
	return []*txn.Type{
		{Name: ">Emp", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "Emp", Kind: txn.Modify, Size: 1, Cols: []string{"Salary"}}}},
		{Name: ">Dept", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "Dept", Kind: txn.Modify, Size: 1, Cols: []string{"Budget"}}}},
	}
}

// TestEndToEndSQLWorkflow drives the whole pipeline from SQL: the
// optimizer must pick the SumOfSals-shaped auxiliary view, transactions
// must maintain it, and the assertion must fire and roll back violators.
func TestEndToEndSQLWorkflow(t *testing.T) {
	db := paperDB(t, 20, 5)
	sys, err := db.Build([]string{"DeptConstraint"}, mvmaint.Config{
		Workload: paperWorkload(),
		Method:   mvmaint.Exhaustive,
	})
	if err != nil {
		t.Fatal(err)
	}
	views := sys.AdditionalViews()
	if len(views) != 1 || !strings.Contains(views[0], "Aggregate") || !strings.Contains(views[0], "(Emp)") {
		t.Fatalf("chosen additional views = %v, want the aggregate over Emp", views)
	}

	// A benign raise passes.
	out, err := sys.Execute(`UPDATE Emp SET Salary = 120 WHERE EName = 'e003_01'`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("benign raise flagged: %+v", out.Violations)
	}

	// An absurd raise violates and is rolled back.
	out, err = sys.Execute(`UPDATE Emp SET Salary = 1000000 WHERE EName = 'e003_01'`)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() || !out.RolledBack {
		t.Fatalf("violation not rejected: %+v", out)
	}

	// The salary is back to 120 after rollback.
	res, err := db.Query(`SELECT Salary FROM Emp WHERE EName = 'e003_01'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 1 || res.Rows[0].Tuple[0].AsInt() != 120 {
		t.Errorf("salary after rollback = %v", res.Rows)
	}

	// Budget cuts that cause violations are also rejected.
	out, err = sys.Execute(`UPDATE Dept SET Budget = 1 WHERE DName = 'd007'`)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() || !out.RolledBack {
		t.Fatalf("budget-cut violation not rejected: %+v", out)
	}

	// Explain is presentable. Method: Exhaustive searches the lattice by
	// branch-and-bound on one worker, and says so.
	ex := sys.Explain()
	for _, want := range []string{"method: exhaustive branch-and-bound", "chosen view set", ">Emp", ">Dept"} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q:\n%s", want, ex)
		}
	}
}

// TestMethodsAgreeOnPaperExample: every optimization method lands on a
// set at least as good as the baseline, and exhaustive/shielded/greedy
// agree here.
func TestMethodsAgreeOnPaperExample(t *testing.T) {
	methods := []mvmaint.Method{
		mvmaint.Exhaustive, mvmaint.Shielded, mvmaint.Greedy,
		mvmaint.SingleTree, mvmaint.HeuristicMarking, mvmaint.NoAdditional,
	}
	costs := map[mvmaint.Method]float64{}
	for _, method := range methods {
		db := paperDB(t, 10, 4)
		sys, err := db.Build([]string{"ProblemDept"}, mvmaint.Config{
			Workload: paperWorkload(),
			Method:   method,
		})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		costs[method] = sys.Decision.Best.Weighted
	}
	base := costs[mvmaint.NoAdditional]
	for _, method := range methods[:5] {
		if costs[method] > base+1e-9 {
			t.Errorf("%v cost %g worse than baseline %g", method, costs[method], base)
		}
	}
	if costs[mvmaint.Shielded] != costs[mvmaint.Exhaustive] ||
		costs[mvmaint.Greedy] != costs[mvmaint.Exhaustive] {
		t.Errorf("methods disagree: %v", costs)
	}
}

// TestInsertsAndDeletesThroughSystem exercises hire/fire DML with
// maintenance.
func TestInsertsAndDeletesThroughSystem(t *testing.T) {
	db := paperDB(t, 5, 2)
	sys, err := db.Build([]string{"ProblemDept"}, mvmaint.Config{
		Workload: append(paperWorkload(),
			&txn.Type{Name: "+Emp", Weight: 1, Updates: []txn.RelUpdate{
				{Rel: "Emp", Kind: txn.Insert, Size: 1}}},
		),
		Method: mvmaint.Exhaustive,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(`INSERT INTO Emp VALUES ('fresh', 'd002', 90)`); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(`DELETE FROM Emp WHERE EName = 'e001_00'`); err != nil {
		t.Fatal(err)
	}
	// The maintained ProblemDept agrees with recomputation.
	rows, err := sys.ViewRows("ProblemDept")
	if err != nil {
		t.Fatal(err)
	}
	recomputed, err := db.Query(`SELECT Dept.DName FROM Emp, Dept
WHERE Dept.DName = Emp.DName GROUP BY Dept.DName, Budget HAVING SUM(Salary) > Budget`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != recomputed.Card() {
		t.Errorf("maintained %d rows, recomputed %d", len(rows), recomputed.Card())
	}
}

func TestBuildErrors(t *testing.T) {
	db := paperDB(t, 2, 2)
	if _, err := db.Build(nil, mvmaint.Config{Workload: paperWorkload()}); err == nil {
		t.Error("Build with no views should fail")
	}
	if _, err := db.Build([]string{"ProblemDept"}, mvmaint.Config{}); err == nil {
		t.Error("Build with no workload should fail")
	}
	if _, err := db.Build([]string{"Nope"}, mvmaint.Config{Workload: paperWorkload()}); err == nil {
		t.Error("Build with unknown view should fail")
	}
}

func TestQueryFacade(t *testing.T) {
	db := paperDB(t, 3, 2)
	res, err := db.Query(`SELECT DName, SUM(Salary) AS s FROM Emp GROUP BY DName`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 3 {
		t.Errorf("groups = %d", res.Card())
	}
	if _, err := db.Query(`UPDATE Emp SET Salary = 1`); err == nil {
		t.Error("Query should reject DML")
	}
}

// TestReoptimizeAfterDrift: shrinking every department to one employee
// removes the SumOfSals advantage; Reoptimize detects it and drops the
// auxiliary view.
func TestReoptimizeAfterDrift(t *testing.T) {
	db := paperDB(t, 12, 6)
	cfg := mvmaint.Config{Workload: paperWorkload(), Method: mvmaint.Exhaustive}
	sys, err := db.Build([]string{"ProblemDept"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.AdditionalViews()) != 1 {
		t.Fatalf("expected SumOfSals initially, got %v", sys.AdditionalViews())
	}

	// Fire everyone but one employee per department: fan-out drops to 1,
	// where materializing the aggregate no longer pays (ablation A1).
	for i := 0; i < 12; i++ {
		for j := 1; j < 6; j++ {
			db.MustExec(fmt.Sprintf(`DELETE FROM Emp WHERE EName = 'e%03d_%02d'`, i, j))
		}
	}
	changed, err := sys.Reoptimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatalf("reoptimization should change the view set; still %v", sys.AdditionalViews())
	}
	if len(sys.AdditionalViews()) != 0 {
		t.Errorf("at fan-out 1 no additional view should be kept: %v", sys.AdditionalViews())
	}
	// The system still maintains correctly after the swap.
	out, err := sys.Execute(`UPDATE Emp SET Salary = 140 WHERE EName = 'e004_00'`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Errorf("post-reoptimize transaction flagged: %+v", out.Violations)
	}
	rows, err := sys.ViewRows("ProblemDept")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("ProblemDept should be empty, has %d rows", len(rows))
	}

	// Reoptimizing again with unchanged data is a no-op.
	changed, err = sys.Reoptimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("second reoptimization should be stable")
	}
}
