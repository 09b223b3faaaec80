// Assertions: SQL-92 integrity constraint checking as view maintenance.
//
// The paper's DeptConstraint ("a department's expense should not exceed
// its budget") is declared with CREATE ASSERTION ... CHECK (NOT EXISTS
// ...). The system maintains the constraint's view incrementally — made
// cheap by the auxiliary SumOfSals view the optimizer picks — and
// rejects any transaction that would violate it before writing anything.
//
// Run: go run ./examples/assertions
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
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "INSERT INTO Dept VALUES ('d%02d', 'm%02d', 1000);\n", i, i)
		for j := 0; j < 5; j++ {
			fmt.Fprintf(&b, "INSERT INTO Emp VALUES ('e%02d_%d', 'd%02d', 100);\n", i, j, i)
		}
	}
	db.MustExec(b.String())

	// The paper's view + assertion, verbatim.
	db.MustExec(`
CREATE VIEW ProblemDept (DName) AS
SELECT Dept.DName
FROM Emp, Dept
WHERE Dept.DName = Emp.DName
GROUP BY Dept.DName, Budget
HAVING SUM(Salary) > Budget;

CREATE ASSERTION DeptConstraint CHECK
  (NOT EXISTS (SELECT * FROM ProblemDept));
`)

	sys, err := db.Build([]string{"DeptConstraint"}, mvmaint.Config{
		Workload: []*txn.Type{
			{Name: ">Emp", Weight: 4, Updates: []txn.RelUpdate{
				{Rel: "Emp", Kind: txn.Modify, Size: 1, Cols: []string{"Salary"}}}},
			{Name: ">Dept", Weight: 1, Updates: []txn.RelUpdate{
				{Rel: "Dept", Kind: txn.Modify, Size: 1, Cols: []string{"Budget"}}}},
			{Name: "+Emp", Weight: 2, Updates: []txn.RelUpdate{
				{Rel: "Emp", Kind: txn.Insert, Size: 1}}},
		},
		Method: mvmaint.Exhaustive,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== optimizer decision for the assertion ===")
	fmt.Print(sys.Explain())

	run := func(sql string) {
		out, err := sys.Execute(sql)
		if err != nil {
			log.Fatal(err)
		}
		status := "OK"
		if !out.OK() {
			status = out.Violations[0].String()
			if out.RolledBack {
				status += " -> REJECTED"
			}
		}
		fmt.Printf("%-58s %s (%d page I/Os)\n", sql, status, out.Report.PaperTotal())
	}

	fmt.Println("\n=== transactions under the constraint ===")
	run(`UPDATE Emp SET Salary = 150 WHERE EName = 'e07_2'`) // fine
	run(`INSERT INTO Emp VALUES ('intern', 'd03', 80)`)      // fine
	run(`UPDATE Emp SET Salary = 900 WHERE EName = 'e07_2'`) // would overspend d07
	run(`UPDATE Dept SET Budget = 400 WHERE DName = 'd11'`)  // budget cut below payroll
	run(`UPDATE Dept SET Budget = 5000 WHERE DName = 'd11'`) // generous raise: fine
	run(`DELETE FROM Emp WHERE EName = 'e07_2'`)             // fine

	// Because violators are rejected the database still satisfies the constraint.
	res, err := db.Query(`SELECT Dept.DName FROM Emp, Dept
WHERE Dept.DName = Emp.DName GROUP BY Dept.DName, Budget HAVING SUM(Salary) > Budget`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconstraint verified by recomputation: %d violating departments\n", res.Card())
}
