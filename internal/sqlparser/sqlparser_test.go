package sqlparser_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// paperSchemaSQL is the corporate schema written in the SQL subset.
const paperSchemaSQL = `
CREATE TABLE Dept (DName VARCHAR(20) PRIMARY KEY, MName VARCHAR(20), Budget INT);
CREATE TABLE Emp (EName VARCHAR(20) PRIMARY KEY, DName VARCHAR(20), Salary INT);
CREATE INDEX dept_dname ON Dept (DName);
CREATE INDEX emp_dname ON Emp (DName);
`

// problemDeptSQL is the paper's Example 1.1 view, verbatim modulo
// whitespace.
const problemDeptSQL = `
CREATE VIEW ProblemDept (DName) AS
SELECT Dept.DName
FROM Emp, Dept
WHERE Dept.DName = Emp.DName
GROUP BY Dept.DName, Budget
HAVING SUM(Salary) > Budget
`

const sumOfSalsSQL = `
CREATE VIEW SumOfSals (DName, SalSum) AS
SELECT DName, SUM(Salary)
FROM Emp
GROUP BY DName
`

const assertionSQL = `
CREATE ASSERTION DeptConstraint CHECK
  (NOT EXISTS (SELECT * FROM ProblemDept))
`

func TestParsePaperSchema(t *testing.T) {
	stmts, err := sqlparser.Parse(paperSchemaSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("parsed %d statements, want 4", len(stmts))
	}
	ct, ok := stmts[0].(*sqlparser.CreateTable)
	if !ok {
		t.Fatalf("statement 0 is %T", stmts[0])
	}
	if ct.Name != "Dept" || len(ct.Columns) != 3 {
		t.Errorf("Dept parse = %+v", ct)
	}
	if !ct.Columns[0].PrimaryKey {
		t.Error("DName should be primary key")
	}
	def := sqlparser.TableDefFrom(ct)
	if !def.HasKey([]string{"DName"}) {
		t.Error("translated def should key on DName")
	}
	if def.Schema.Cols[2].Type != value.Int {
		t.Error("Budget should be INT")
	}
	ci, ok := stmts[2].(*sqlparser.CreateIndex)
	if !ok || ci.Table != "Dept" || ci.Columns[0] != "DName" {
		t.Errorf("index parse = %+v", stmts[2])
	}
}

// translatorOverCorpus builds a translator aligned with the corpus
// catalog (same schema the paper uses).
func translatorOverCorpus(db *corpus.Database) *sqlparser.Translator {
	return sqlparser.NewTranslator(db.Catalog)
}

// TestProblemDeptTranslationEvaluatesLikeCorpus parses the paper's SQL
// and checks the translated algebra computes the same answer as the
// hand-built corpus tree.
func TestProblemDeptTranslationEvaluatesLikeCorpus(t *testing.T) {
	db := corpus.NewDatabase(corpus.Config{Departments: 5, EmpsPerDept: 3})
	// Create a violation so the view is non-empty.
	rel := db.Store.MustGet("Emp")
	old := value.Tuple{
		value.NewString(corpus.EmpName(1, 0)),
		value.NewString(corpus.DeptName(1)),
		value.NewInt(corpus.BaseSalary),
	}
	newT := old.Clone()
	newT[2] = value.NewInt(99_999)
	rel.ApplyBatch([]storage.Mutation{{Old: old, New: newT}})

	stmt, err := sqlparser.ParseOne(problemDeptSQL)
	if err != nil {
		t.Fatal(err)
	}
	cv := stmt.(*sqlparser.CreateView)
	tr := translatorOverCorpus(db)
	tree, err := tr.TranslateView(cv)
	if err != nil {
		t.Fatal(err)
	}

	ev := exec.NewFree(db.Store)
	got, err := ev.Eval(tree)
	if err != nil {
		t.Fatalf("eval translated: %v\n%s", err, algebra.Render(tree))
	}
	want, err := ev.Eval(db.ProblemDept())
	if err != nil {
		t.Fatal(err)
	}
	if got.Card() != want.Card() || got.Card() != 1 {
		t.Fatalf("translated card = %d, corpus card = %d, want 1", got.Card(), want.Card())
	}
	if got.Rows[0].Tuple[0].S != corpus.DeptName(1) {
		t.Errorf("translated view found %q", got.Rows[0].Tuple[0].S)
	}
	// Output schema honors the view column list.
	if got.Schema.Len() != 1 || got.Schema.Cols[0].Name != "DName" {
		t.Errorf("view schema = %s, want (DName)", got.Schema)
	}
}

func TestSumOfSalsTranslation(t *testing.T) {
	db := corpus.NewDatabase(corpus.Config{Departments: 4, EmpsPerDept: 2})
	stmt, err := sqlparser.ParseOne(sumOfSalsSQL)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := translatorOverCorpus(db).TranslateView(stmt.(*sqlparser.CreateView))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.NewFree(db.Store).Eval(tree)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 4 {
		t.Fatalf("SumOfSals card = %d", res.Card())
	}
	if res.Schema.Cols[1].Name != "SalSum" {
		t.Errorf("renamed column = %q, want SalSum", res.Schema.Cols[1].Name)
	}
	for _, row := range res.Rows {
		if row.Tuple[1].AsInt() != 2*corpus.BaseSalary {
			t.Errorf("sum = %v", row.Tuple[1])
		}
	}
}

func TestAssertionTranslation(t *testing.T) {
	db := corpus.NewDatabase(corpus.Config{Departments: 3, EmpsPerDept: 2})
	tr := translatorOverCorpus(db)
	pd, err := sqlparser.ParseOne(problemDeptSQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.TranslateView(pd.(*sqlparser.CreateView)); err != nil {
		t.Fatal(err)
	}
	as, err := sqlparser.ParseOne(assertionSQL)
	if err != nil {
		t.Fatal(err)
	}
	ca, ok := as.(*sqlparser.CreateAssertion)
	if !ok || ca.Name != "DeptConstraint" {
		t.Fatalf("assertion parse = %+v", as)
	}
	tree, err := tr.TranslateAssertion(ca)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.NewFree(db.Store).Eval(tree)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 0 {
		t.Errorf("assertion view should start empty, has %d rows", res.Card())
	}
}

// TestADeptsStatusSQL: Example 3.1's three-way join with aggregation.
func TestADeptsStatusSQL(t *testing.T) {
	db := corpus.NewDatabase(corpus.Config{Departments: 6, EmpsPerDept: 2, ADeptsEveryN: 2})
	sql := `
CREATE VIEW ADeptsStatus (DName, Budget, SumSal) AS
SELECT Dept.DName, Budget, SUM(Salary)
FROM Emp, Dept, ADepts
WHERE Dept.DName = Emp.DName AND Emp.DName = ADepts.DName
GROUP BY Dept.DName, Budget`
	stmt, err := sqlparser.ParseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := translatorOverCorpus(db).TranslateView(stmt.(*sqlparser.CreateView))
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.NewFree(db.Store).Eval(tree)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.NewFree(db.Store).Eval(db.ADeptsStatus())
	if err != nil {
		t.Fatal(err)
	}
	if got.Card() != want.Card() || got.Card() != 3 {
		t.Fatalf("translated %d rows, corpus %d, want 3", got.Card(), want.Card())
	}
}

func TestInsertDeleteUpdateDeltas(t *testing.T) {
	db := corpus.NewDatabase(corpus.Config{Departments: 2, EmpsPerDept: 2})
	tr := translatorOverCorpus(db)

	stmt, err := sqlparser.ParseOne(`INSERT INTO Emp VALUES ('x', 'd0000', 500), ('y', 'd0001', 600)`)
	if err != nil {
		t.Fatal(err)
	}
	def, _ := db.Catalog.Get("Emp")
	d, err := sqlparser.InsertDelta(def, stmt.(*sqlparser.Insert))
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 2 || !d.Changes[0].IsInsert() {
		t.Fatalf("insert delta = %v", d.Changes)
	}

	rel := db.Store.MustGet("Emp")
	stmt, err = sqlparser.ParseOne(`DELETE FROM Emp WHERE DName = 'd0000'`)
	if err != nil {
		t.Fatal(err)
	}
	d, err = sqlparser.DeleteDelta(tr, rel, stmt.(*sqlparser.Delete))
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 2 {
		t.Fatalf("delete delta = %v", d.Changes)
	}

	stmt, err = sqlparser.ParseOne(`UPDATE Emp SET Salary = Salary + 50 WHERE EName = 'e0001_00'`)
	if err != nil {
		t.Fatal(err)
	}
	upd := stmt.(*sqlparser.Update)
	d, err = sqlparser.UpdateDelta(tr, rel, upd)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 1 || !d.Changes[0].IsModify() {
		t.Fatalf("update delta = %v", d.Changes)
	}
	if got := d.Changes[0].New[2].AsInt(); got != corpus.BaseSalary+50 {
		t.Errorf("new salary = %d", got)
	}
	if cols := sqlparser.ModifiedColumns(upd); len(cols) != 1 || cols[0] != "Salary" {
		t.Errorf("modified columns = %v", cols)
	}
}

// TestUpdateToNaNIsAChange: a NaN compares equal to every number, but an
// UPDATE that writes one over a number, or a number over one, changes
// the row and must yield its modification.
func TestUpdateToNaNIsAChange(t *testing.T) {
	stmt, err := sqlparser.ParseOne(`CREATE TABLE T (k INT PRIMARY KEY, f FLOAT)`)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := storage.NewStore().Create(sqlparser.TableDefFrom(stmt.(*sqlparser.CreateTable)))
	if err != nil {
		t.Fatal(err)
	}
	rel.LoadTuples([]value.Tuple{{value.NewInt(1), value.NewFloat(1e300)}})
	tr := sqlparser.NewTranslator(catalog.New())
	update := func(sql string) float64 {
		t.Helper()
		stmt, err := sqlparser.ParseOne(sql)
		if err != nil {
			t.Fatal(err)
		}
		d, err := sqlparser.UpdateDelta(tr, rel, stmt.(*sqlparser.Update))
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Changes) != 1 || !d.Changes[0].IsModify() {
			t.Fatalf("%s: delta %v, want one modification", sql, d.Changes)
		}
		d.Coerce()
		rel.ApplyBatch(d.ToMutations())
		rows := rel.ScanFree()
		if len(rows) != 1 || rows[0].Count != 1 {
			t.Fatalf("%s: relation holds %v", sql, rows)
		}
		return rows[0].Tuple[1].AsFloat()
	}
	// f·f overflows to +Inf, and Inf − Inf is NaN.
	if f := update(`UPDATE T SET f = f * f - f * f WHERE k = 1`); !math.IsNaN(f) {
		t.Errorf("after the update to NaN, f = %g", f)
	}
	if f := update(`UPDATE T SET f = 3.5 WHERE k = 1`); f != 3.5 {
		t.Errorf("after the update back from NaN, f = %g", f)
	}
	// The same NaN from exponent literals: 1e308 · 10 overflows to +Inf.
	if f := update(`UPDATE T SET f = (1e308 * 10.0 - 1e308 * 10.0) WHERE k = 1`); !math.IsNaN(f) {
		t.Errorf("after the update to NaN from literals, f = %g", f)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT`,
		`SELECT x FROM`,
		`CREATE TABLE t (x BANANA)`,
		`SELECT x FROM a WHERE`,
		`INSERT INTO t VALUES (1,`,
		`CREATE VIEW v AS SELECT 'unterminated FROM t`,
		`DROP TABLE t`,
	}
	for _, sql := range bad {
		if _, err := sqlparser.Parse(sql); err == nil {
			t.Errorf("no error for %q", sql)
		}
	}
}

func TestTranslateErrors(t *testing.T) {
	db := corpus.NewDatabase(corpus.Config{Departments: 2, EmpsPerDept: 2})
	tr := translatorOverCorpus(db)
	bad := []string{
		`SELECT x FROM Nope`,
		`SELECT EName FROM Emp, Dept`, // cross product
		`SELECT EName FROM Emp HAVING SUM(Salary) > 1`,
		`SELECT Missing FROM Emp`,
	}
	for _, sql := range bad {
		stmt, err := sqlparser.ParseOne(sql)
		if err != nil {
			continue // some fail at parse, fine
		}
		sel, ok := stmt.(*sqlparser.SelectStmt)
		if !ok {
			continue
		}
		tree, err := tr.TranslateSelect(sel)
		if err != nil {
			continue
		}
		// Column resolution errors can surface at evaluation.
		if _, err := exec.NewFree(db.Store).Eval(tree); err == nil {
			t.Errorf("no error for %q", sql)
		}
	}
}

func TestCommentsAndCaseInsensitivity(t *testing.T) {
	sql := `
-- the paper's view, lower-cased keywords
create view V as
select DName, count(*) as n from Emp group by DName having count(*) > 0
`
	stmt, err := sqlparser.ParseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	cv := stmt.(*sqlparser.CreateView)
	if cv.Name != "V" || len(cv.Select.GroupBy) != 1 {
		t.Errorf("parse = %+v", cv)
	}
	if !strings.EqualFold(cv.Select.Items[1].As, "n") {
		t.Errorf("alias = %q", cv.Select.Items[1].As)
	}
}

// TestUnionExceptSQL: UNION ALL and EXCEPT ALL compound selects.
func TestUnionExceptSQL(t *testing.T) {
	db := corpus.NewDatabase(corpus.Config{Departments: 4, EmpsPerDept: 2, ADeptsEveryN: 2})
	tr := translatorOverCorpus(db)

	stmt, err := sqlparser.ParseOne(`
SELECT DName FROM Emp
UNION ALL
SELECT DName FROM ADepts`)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := tr.TranslateSelect(stmt.(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.NewFree(db.Store).Eval(tree)
	if err != nil {
		t.Fatal(err)
	}
	// 8 employee names (bag) + 2 ADepts names.
	if res.Total() != 10 {
		t.Errorf("union total = %d, want 10", res.Total())
	}

	stmt, err = sqlparser.ParseOne(`
SELECT DName FROM Emp
EXCEPT ALL
SELECT DName FROM ADepts`)
	if err != nil {
		t.Fatal(err)
	}
	tree, err = tr.TranslateSelect(stmt.(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	res, err = exec.NewFree(db.Store).Eval(tree)
	if err != nil {
		t.Fatal(err)
	}
	// d0 and d2 lose one copy each: 8 - 2 = 6.
	if res.Total() != 6 {
		t.Errorf("except total = %d, want 6", res.Total())
	}

	// Plain UNION (set semantics) is rejected with a helpful error.
	if _, err := sqlparser.ParseOne(`SELECT DName FROM Emp UNION SELECT DName FROM ADepts`); err == nil {
		t.Error("plain UNION should be rejected (only UNION ALL)")
	}
	// Arity mismatch is caught at translation.
	stmt, err = sqlparser.ParseOne(`SELECT DName, Salary FROM Emp UNION ALL SELECT DName FROM ADepts`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.TranslateSelect(stmt.(*sqlparser.SelectStmt)); err == nil {
		t.Error("arity mismatch should be rejected")
	}
}

// TestExponentLiterals: a number with an exponent is one Float literal,
// and it prints back in a form that reparses to the same value.
func TestExponentLiterals(t *testing.T) {
	stmt, err := sqlparser.ParseOne(`INSERT INTO T VALUES (1e308, 2.5E-3, 1e+5, 7E2)`)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1e308, 2.5e-3, 1e5, 700}
	row := stmt.(*sqlparser.Insert).Rows[0]
	if len(row) != len(want) {
		t.Fatalf("row %v, want %d literals", row, len(want))
	}
	for i, v := range row {
		if v.Kind != value.Float || v.F() != want[i] {
			t.Errorf("literal %d = %v, want Float %g", i, v, want[i])
		}
	}
	again, err := sqlparser.ParseOne(sqlparser.Format([]sqlparser.Statement{stmt}))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range again.(*sqlparser.Insert).Rows[0] {
		if v.Kind != value.Float || v.F() != want[i] {
			t.Errorf("reprinted literal %d = %v, want Float %g", i, v, want[i])
		}
	}
}
