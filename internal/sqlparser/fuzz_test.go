package sqlparser

import "testing"

// FuzzParseSQL checks the parse → print → reparse round trip: whatever
// the parser accepts, the printer must render back to SQL the parser
// accepts again, and the second print must equal the first (the printer
// is a fixed point, so no information is lost or invented between
// passes).
func FuzzParseSQL(f *testing.F) {
	seeds := []string{
		"CREATE TABLE Emp (EName VARCHAR(20) PRIMARY KEY, DName VARCHAR(20), Salary INT)",
		"CREATE TABLE Dept (DName VARCHAR(20), Budget INT, PRIMARY KEY (DName))",
		"CREATE INDEX EmpDName ON Emp (DName)",
		"CREATE VIEW SumOfSals (DName, SalSum) AS SELECT DName, SUM(Salary) FROM Emp GROUP BY DName",
		"CREATE VIEW ProblemDept AS SELECT e.DName FROM Emp e, Dept d WHERE e.DName = d.DName AND e.Salary > 100",
		"CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (SELECT DName FROM SumOfSals WHERE SalSum > 100))",
		"SELECT DISTINCT DName AS n, COUNT(*) FROM Emp WHERE NOT Salary <= 10 GROUP BY DName HAVING SUM(Salary) > 0",
		"SELECT * FROM Emp UNION ALL SELECT * FROM Emp EXCEPT ALL SELECT * FROM Emp",
		"SELECT Salary + 1 * 2 - 3 / 4 FROM Emp WHERE TRUE OR FALSE AND NULL = ' quo''ted '",
		"INSERT INTO Emp VALUES ('a', 'b', 100), ('c', 'd', -2.5)",
		"DELETE FROM Emp WHERE Salary < 0",
		"UPDATE Emp SET Salary = Salary * 2, DName = 'x' WHERE EName = 'e'; SELECT * FROM Emp",
		"SELECT a FROM t GROUPBY a",
		"UPDATE T SET f = 1e308 * 10.0 - 2.5E-3 + 1e+5 WHERE k = 1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmts, err := Parse(input)
		if err != nil || len(stmts) == 0 {
			t.Skip()
		}
		printed := Format(stmts)
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed SQL does not reparse: %v\ninput:   %q\nprinted: %q", err, input, printed)
		}
		reprinted := Format(again)
		if reprinted != printed {
			t.Fatalf("print is not a fixed point:\ninput:  %q\nfirst:  %q\nsecond: %q", input, printed, reprinted)
		}
	})
}
