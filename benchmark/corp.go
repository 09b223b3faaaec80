package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/txn"
)

// The corporate schema of the paper's Example 1.1: ProblemDept lists
// departments whose salaries exceed their budget, the assertion
// DeptConstraint demands it stay empty (so the checker runs in Reject
// mode), and SumOfSals is the auxiliary aggregate, declared as a view
// of its own so it can be served and subscribed to.
const corpSchema = `
CREATE TABLE Dept (DName VARCHAR(20) PRIMARY KEY, MName VARCHAR(20), Budget INT);
CREATE TABLE Emp  (EName VARCHAR(20) PRIMARY KEY, DName VARCHAR(20), Salary INT);
CREATE INDEX dept_dname ON Dept (DName);
CREATE INDEX emp_dname  ON Emp (DName);
CREATE VIEW ProblemDept (DName) AS
SELECT Dept.DName FROM Emp, Dept
WHERE Dept.DName = Emp.DName
GROUP BY Dept.DName, Budget
HAVING SUM(Salary) > Budget;
CREATE VIEW SumOfSals (DName, Total) AS
SELECT DName, SUM(Salary) FROM Emp GROUP BY DName;
CREATE ASSERTION DeptConstraint CHECK
  (NOT EXISTS (SELECT * FROM ProblemDept));
`

var corpNames = []string{"ProblemDept", "SumOfSals", "DeptConstraint"}

const (
	corpDepts      = 1000
	corpEmpPerDept = 10
	corpExtras     = 500 // benchmark-owned employees, hired and fired in FIFO order
	corpSalary0    = 100
	corpBudget0    = 2000
)

func corpDept(d int) string      { return fmt.Sprintf("d%04d", d) }
func corpEmp(d, j int) string    { return fmt.Sprintf("e%04d_%02d", d, j) }
func corpExtraName(k int) string { return fmt.Sprintf("x%07d", k) }
func corpExtraDept0(k int) int   { return (k * 7) % corpDepts }
func corpTypes() []*txn.Type {
	return []*txn.Type{
		{Name: ">Emp", Weight: 0.7, Updates: []txn.RelUpdate{
			{Rel: "Emp", Kind: txn.Modify, Size: 1, Cols: []string{"Salary"}}}},
		{Name: ">Dept", Weight: 0.1, Updates: []txn.RelUpdate{
			{Rel: "Dept", Kind: txn.Modify, Size: 1, Cols: []string{"Budget"}}}},
		{Name: "+Emp", Weight: 0.1, Updates: []txn.RelUpdate{
			{Rel: "Emp", Kind: txn.Insert, Size: 1}}},
		{Name: "-Emp", Weight: 0.1, Updates: []txn.RelUpdate{
			{Rel: "Emp", Kind: txn.Delete, Size: 1}}},
	}
}

// corpLoad renders 1 000 departments of 10 employees, plus the 500
// benchmark-owned employees the stream starts churning from.
func corpLoad() string {
	dept, emp := &bulkInsert{table: "Dept"}, &bulkInsert{table: "Emp"}
	for d := 0; d < corpDepts; d++ {
		dept.row("('%s', 'm%04d', %d)", corpDept(d), d, corpBudget0)
		for j := 0; j < corpEmpPerDept; j++ {
			emp.row("('%s', '%s', %d)", corpEmp(d, j), corpDept(d), corpSalary0)
		}
	}
	for k := 0; k < corpExtras; k++ {
		emp.row("('%s', '%s', %d)", corpExtraName(k), corpDept(corpExtraDept0(k)), corpSalary0)
	}
	return dept.String() + emp.String()
}

type corpKind uint8

const (
	corpSalary corpKind = iota // point salary change within budget
	corpRaise                  // salary change chosen to exceed the budget
	corpBudget
	corpHire
	corpFire
)

// corpOp is one generated statement with the model's verdict on it.
type corpOp struct {
	kind     corpKind
	sql      string
	dept     int
	rollback bool  // the assertion must reject it
	total    int64 // the department's salary total once the statement is done
}

type corpExtra struct {
	name   string
	dept   int
	salary int64
}

// corpGen draws the statement stream from the seed alone and keeps its
// own model of every salary, total and budget, so it knows for each
// statement whether the assertion has to roll it back. Mix: 70 % point
// salary updates (2 % of them raises built to break the budget), 10 %
// budget updates, and 20 % alternating strictly between hiring an
// employee and firing the oldest benchmark-owned one, which keeps the
// tables the size they started.
type corpGen struct {
	rng       *rand.Rand
	salary    [corpDepts * corpEmpPerDept]int64
	sum       [corpDepts]int64
	budget    [corpDepts]int64
	extras    []corpExtra // oldest first
	nextExtra int
	fireDue   bool
}

func newCorpGen(seed int64) *corpGen {
	g := &corpGen{rng: rand.New(rand.NewSource(seed)), nextExtra: corpExtras}
	for i := range g.salary {
		g.salary[i] = corpSalary0
	}
	for d := range g.sum {
		g.sum[d] = corpSalary0 * corpEmpPerDept
		g.budget[d] = corpBudget0
	}
	for k := 0; k < corpExtras; k++ {
		d := corpExtraDept0(k)
		g.extras = append(g.extras, corpExtra{corpExtraName(k), d, corpSalary0})
		g.sum[d] += corpSalary0
	}
	return g
}

// setSalary gives employee j of department d a new salary if the
// budget allows, and says what must happen.
func (g *corpGen) setSalary(kind corpKind, d, j int, salary int64) corpOp {
	i := d*corpEmpPerDept + j
	sum := g.sum[d] - g.salary[i] + salary
	op := corpOp{kind: kind, dept: d, rollback: sum > g.budget[d],
		sql: fmt.Sprintf("UPDATE Emp SET Salary = %d WHERE EName = '%s'", salary, corpEmp(d, j))}
	if !op.rollback {
		g.salary[i], g.sum[d] = salary, sum
	}
	op.total = g.sum[d]
	return op
}

// drawSalary picks a salary in 80..150 other than the current one.
func (g *corpGen) drawSalary(d, j int) int64 {
	s := int64(80 + g.rng.Intn(71))
	if s == g.salary[d*corpEmpPerDept+j] {
		s = 80 + (s-79)%71
	}
	return s
}

func (g *corpGen) next() corpOp {
	switch r := g.rng.Intn(100); {
	case r < 70:
		d, j := g.rng.Intn(corpDepts), g.rng.Intn(corpEmpPerDept)
		if g.rng.Intn(50) == 0 {
			over := g.budget[d] - g.sum[d] + g.salary[d*corpEmpPerDept+j] + 1 + int64(g.rng.Intn(100))
			return g.setSalary(corpRaise, d, j, over)
		}
		return g.setSalary(corpSalary, d, j, g.drawSalary(d, j))
	case r < 80:
		d := g.rng.Intn(corpDepts)
		b := g.sum[d] + 500 + int64(g.rng.Intn(1001))
		if b == g.budget[d] {
			b++
		}
		g.budget[d] = b
		return corpOp{kind: corpBudget, dept: d, total: g.sum[d],
			sql: fmt.Sprintf("UPDATE Dept SET Budget = %d WHERE DName = '%s'", b, corpDept(d))}
	case g.fireDue:
		g.fireDue = false
		x := g.extras[0]
		g.extras = g.extras[1:]
		g.sum[x.dept] -= x.salary
		return corpOp{kind: corpFire, dept: x.dept, total: g.sum[x.dept],
			sql: fmt.Sprintf("DELETE FROM Emp WHERE EName = '%s'", x.name)}
	default:
		x := corpExtra{corpExtraName(g.nextExtra), g.rng.Intn(corpDepts), corpSalary0}
		g.nextExtra++
		op := corpOp{kind: corpHire, dept: x.dept, rollback: g.sum[x.dept]+x.salary > g.budget[x.dept],
			sql: fmt.Sprintf("INSERT INTO Emp VALUES ('%s', '%s', %d)", x.name, corpDept(x.dept), x.salary)}
		if !op.rollback {
			g.extras = append(g.extras, x)
			g.sum[x.dept] += x.salary
			g.fireDue = true
		}
		op.total = g.sum[x.dept]
		return op
	}
}

// request draws the four statements of one POST /txn: three from the
// mix, then a salary change that stays within budget in a department
// none of the three touched. Every request therefore ends in exactly
// one SumOfSals change, and that department's new total names the
// event that makes the request visible.
func (g *corpGen) request() [4]corpOp {
	var ops [4]corpOp
	for i := 0; i < 3; i++ {
		ops[i] = g.next()
	}
	for {
		d, j := g.rng.Intn(corpDepts), g.rng.Intn(corpEmpPerDept)
		if d == ops[0].dept || d == ops[1].dept || d == ops[2].dept {
			continue
		}
		s := g.drawSalary(d, j)
		if g.sum[d]-g.salary[d*corpEmpPerDept+j]+s > g.budget[d] {
			continue
		}
		ops[3] = g.setSalary(corpSalary, d, j, s)
		return ops
	}
}

// corpSQL is the corp-sql-txn1 workload: one SQL statement per
// transaction through the facade, in memory.
type corpSQL struct {
	engine
	gen *corpGen

	// Traced runs only.
	io           ioSplit
	windows      int
	rolledBack   int
	committedNs  []float64 // ExecuteTxn time of committed salary changes
	rolledBackNs []float64 // and of rolled-back ones
}

func setupCorpSQL(cfg config, tr *tracer, _ string) (workload, error) {
	w := &corpSQL{gen: newCorpGen(cfg.seed)}
	w.tr = tr
	if err := w.open(corpSchema, corpLoad(), corpNames, corpTypes()); err != nil {
		return nil, err
	}
	return w, nil
}

// step runs one statement. It is visible when Execute returns.
func (w *corpSQL) step() (int, time.Duration, error) {
	id := w.tr.start(layerBench, "generate")
	op := w.gen.next()
	w.tr.end(id)
	w.attempted++

	t0 := time.Now()
	rolledBack, err := w.execute(op)
	visible := time.Since(t0)
	if err != nil {
		w.fail("%s: %v", op.sql, err)
		return 0, 0, nil
	}
	if rolledBack != op.rollback {
		w.fail("%s: rolled back %v, the model says %v", op.sql, rolledBack, op.rollback)
	}
	if rolledBack {
		return 0, 0, nil
	}
	return 1, visible, nil
}

// execute is System.Execute; on traced runs it is the same two calls
// made separately so each gets its span.
func (w *corpSQL) execute(op corpOp) (rolledBack bool, err error) {
	if w.tr == nil {
		out, err := w.sys.Execute(op.sql)
		if err != nil {
			return false, err
		}
		return out.RolledBack, nil
	}
	id := w.tr.start(layerSQLParser, "TxnFromSQL")
	ty, updates, err := w.db.TxnFromSQL(op.sql)
	w.tr.end(id)
	if err != nil {
		return false, err
	}
	id = w.tr.start(layerMaintain, "ExecuteTxn")
	t0 := time.Now()
	out, err := w.sys.ExecuteTxn(ty, updates)
	ns := float64(time.Since(t0).Nanoseconds())
	w.tr.end(id)
	if err != nil {
		return false, err
	}
	w.windows++
	w.io.addTxn(out.Report)
	switch {
	case out.RolledBack:
		w.rolledBack++
		w.rolledBackNs = append(w.rolledBackNs, ns)
	case op.kind == corpSalary:
		w.committedNs = append(w.committedNs, ns)
	}
	return out.RolledBack, nil
}

func (w *corpSQL) begin() {
	w.io, w.windows, w.rolledBack = ioSplit{}, 0, 0
	w.committedNs, w.rolledBackNs = nil, nil
}

func (w *corpSQL) halfway() error { return nil }
func (w *corpSQL) finish()        { w.checkDrift() }
func (w *corpSQL) close()         {}

func (w *corpSQL) layers(l *layerReport) {
	l.windows = w.windows
	l.io = w.io
	l.rolledBack = w.rolledBack
	l.rollbackExtraNs = median(w.rolledBackNs) - median(w.committedNs)
	l.rollbackTimed = len(w.rolledBackNs)
}
