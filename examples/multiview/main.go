// Multiview: maintaining a set of views (the paper's Section 6).
//
// Two views and an assertion share subexpressions; the multi-rooted
// expression DAG represents them in one memo, the optimizer chooses one
// additional view set serving all of them, and shared deltas are computed
// once per transaction.
//
// Run: go run ./examples/multiview
package main

import (
	"fmt"
	"log"
	"strings"

	mvmaint "repro"
	"repro/internal/txn"
)

func main() {
	log.SetFlags(0)
	db := mvmaint.Open()
	db.MustExec(`
CREATE TABLE Dept (DName VARCHAR(20) PRIMARY KEY, MName VARCHAR(20), Budget INT);
CREATE TABLE Emp  (EName VARCHAR(20) PRIMARY KEY, DName VARCHAR(20), Salary INT);
CREATE INDEX dept_dname ON Dept (DName);
CREATE INDEX emp_dname  ON Emp (DName);
CREATE INDEX emp_ename  ON Emp (EName);
`)
	var b strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "INSERT INTO Dept VALUES ('d%02d', 'm%02d', 1200);\n", i, i)
		for j := 0; j < 6; j++ {
			fmt.Fprintf(&b, "INSERT INTO Emp VALUES ('e%02d_%d', 'd%02d', 100);\n", i, j, i)
		}
	}
	db.MustExec(b.String())

	// Three top-level definitions over the same subexpressions:
	//   - DeptPayroll: salary totals per department (a reporting view)
	//   - BigSpenders: departments spending over 80% of budget
	//   - DeptConstraint: nobody may exceed the budget (assertion)
	db.MustExec(`
CREATE VIEW DeptPayroll (DName, Total) AS
SELECT Dept.DName, SUM(Salary)
FROM Emp, Dept
WHERE Dept.DName = Emp.DName
GROUP BY Dept.DName, Budget;

CREATE VIEW BigSpenders (DName) AS
SELECT Dept.DName
FROM Emp, Dept
WHERE Dept.DName = Emp.DName
GROUP BY Dept.DName, Budget
HAVING SUM(Salary) * 5 > Budget * 4;

CREATE VIEW ProblemDept (DName) AS
SELECT Dept.DName
FROM Emp, Dept
WHERE Dept.DName = Emp.DName
GROUP BY Dept.DName, Budget
HAVING SUM(Salary) > Budget;

CREATE ASSERTION DeptConstraint CHECK
  (NOT EXISTS (SELECT * FROM ProblemDept));
`)

	sys, err := db.Build(
		[]string{"DeptPayroll", "BigSpenders", "DeptConstraint"},
		mvmaint.Config{
			Workload: []*txn.Type{
				{Name: ">Emp", Weight: 3, Updates: []txn.RelUpdate{
					{Rel: "Emp", Kind: txn.Modify, Size: 1, Cols: []string{"Salary"}}}},
				{Name: ">Dept", Weight: 1, Updates: []txn.RelUpdate{
					{Rel: "Dept", Kind: txn.Modify, Size: 1, Cols: []string{"Budget"}}}},
			},
			Method: mvmaint.Greedy, // the multi-rooted DAG is larger; greedy is instant
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== multi-view optimizer decision ===")
	fmt.Print(sys.Explain())

	fmt.Println("\n=== transactions maintaining all three top-level views at once ===")
	for _, sql := range []string{
		`UPDATE Emp SET Salary = 400 WHERE EName = 'e05_0'`, // d05 reaches 75% of budget
		`UPDATE Emp SET Salary = 200 WHERE EName = 'e05_1'`, // ... now 83%: a BigSpender
		`UPDATE Emp SET Salary = 2000 WHERE EName = 'e09_0'`, // would violate: rejected
	} {
		out, err := sys.Execute(sql)
		if err != nil {
			log.Fatal(err)
		}
		status := "OK"
		if out.RolledBack {
			status = "REJECTED"
		}
		fmt.Printf("%-55s %s (%d page I/Os)\n", sql, status, out.Report.PaperTotal())
	}

	spenders, err := sys.ViewRows("BigSpenders")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBigSpenders: %d department(s)\n", len(spenders))
	for _, r := range spenders {
		fmt.Printf("  %s\n", r.Tuple)
	}
	payroll, err := sys.ViewRows("DeptPayroll")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DeptPayroll tracks %d departments (all maintained in one pass)\n", len(payroll))
}
