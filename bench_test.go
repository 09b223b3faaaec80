// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 3.6, Figures 1–5, Example 3.1) plus the ablation
// sweeps of EXPERIMENTS.md. Each benchmark prints its artifact once (on
// the first iteration) and then times regeneration; custom metrics report
// the quantities the paper reports — page I/Os per transaction — so that
// `go test -bench . -benchmem` reproduces the evaluation end to end.
package mvmaint_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	mvmaint "repro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/paper"
	"repro/internal/txn"
)

// printOnce gates artifact printing so -bench output stays readable
// across benchmark iterations.
var printOnce sync.Map

func emitOnce(b *testing.B, key, artifact string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", artifact)
	}
}

func fixture(b *testing.B) *paper.Fixture {
	b.Helper()
	f, err := paper.NewFixture(corpus.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkTable1QueryCosts regenerates the §3.6 per-query cost table.
func BenchmarkTable1QueryCosts(b *testing.B) {
	f := fixture(b)
	emitOnce(b, "t1", f.Table1())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Table1()
	}
}

// BenchmarkTable2MaintCosts regenerates the §3.6 view-maintenance table.
func BenchmarkTable2MaintCosts(b *testing.B) {
	f := fixture(b)
	emitOnce(b, "t2", f.Table2())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Table2()
	}
}

// BenchmarkTable3TrackCosts regenerates the §3.6 per-track cost table.
func BenchmarkTable3TrackCosts(b *testing.B) {
	f := fixture(b)
	emitOnce(b, "t3", f.Table3())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Table3()
	}
}

// BenchmarkTable4Combined regenerates the §3.6 combined table and reports
// the paper's headline numbers as metrics.
func BenchmarkTable4Combined(b *testing.B) {
	f := fixture(b)
	emitOnce(b, "t4", f.Table4())
	wEmpty, _ := f.Cost.WeightedCost(f.Empty, f.Types)
	wN3, _ := f.Cost.WeightedCost(f.SetN3, f.Types)
	wN4, _ := f.Cost.WeightedCost(f.SetN4, f.Types)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Table4()
	}
	// ReportMetric must follow ResetTimer, which clears reported metrics.
	b.ReportMetric(wEmpty, "IO/txn(empty)")
	b.ReportMetric(wN3, "IO/txn(N3)")
	b.ReportMetric(wN4, "IO/txn(N4)")
}

// BenchmarkFigure1Trees regenerates the two expression trees of Figure 1.
func BenchmarkFigure1Trees(b *testing.B) {
	f := fixture(b)
	emitOnce(b, "f1", f.Figure1())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Figure1()
	}
}

// BenchmarkFigure2DAG regenerates the expression DAG of Figure 2,
// timing full DAG construction + rule expansion.
func BenchmarkFigure2DAG(b *testing.B) {
	f := fixture(b)
	emitOnce(b, "f2", f.Figure2())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paper.NewFixture(corpus.Config{Departments: 10, EmpsPerDept: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3ADeptsStatus regenerates Example 3.1/Figure 3: the
// maintenance-optimal plan diverges from the query-optimal one.
func BenchmarkFigure3ADeptsStatus(b *testing.B) {
	out, err := paper.Figure3(corpus.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	emitOnce(b, "f3", out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paper.Figure3(corpus.Config{Departments: 50, EmpsPerDept: 5, ADeptsEveryN: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Shielding regenerates the articulation-node experiment
// of Figure 5/§4.2 and reports the search-space reduction.
func BenchmarkFigure5Shielding(b *testing.B) {
	rep, out, err := paper.Figure5(corpus.DefaultFigure5Config())
	if err != nil {
		b.Fatal(err)
	}
	emitOnce(b, "f5", out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := paper.Figure5(corpus.Figure5Config{Items: 20, RPerItem: 2, SPerItem: 2}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.ExhaustiveExplored), "sets(exhaustive)")
	b.ReportMetric(float64(rep.ShieldedExplored), "sets(shielded)")
}

// BenchmarkAlgorithmOptimalViewSet times Algorithm OptimalViewSet
// (Figure 4) on the paper instance.
func BenchmarkAlgorithmOptimalViewSet(b *testing.B) {
	f := fixture(b)
	res, err := f.Optimum()
	if err != nil {
		b.Fatal(err)
	}
	emitOnce(b, "f4", fmt.Sprintf(
		"Algorithm OptimalViewSet (Figure 4): chose %s at %.4g I/Os per txn, %d sets explored\n",
		res.Best.Set.Key(), res.Best.Weighted, res.Explored))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Optimum(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelOptimalViewSet compares the branch-and-bound search
// against Exhaustive on the Figure 5 corpus DAG. Both paths build a fresh
// Costing per iteration, so the track-cost cache inside one search is
// measured but nothing leaks across iterations or between the two
// strategies. Metrics report the view sets pruned by the update-cost
// bound and the cache hit rate of one branch-and-bound search; the
// chosen view set must match the exhaustive optimum exactly.
func BenchmarkParallelOptimalViewSet(b *testing.B) {
	base, err := paper.Figure5Optimizer(corpus.DefaultFigure5Config())
	if err != nil {
		b.Fatal(err)
	}
	seq, err := base.Exhaustive()
	if err != nil {
		b.Fatal(err)
	}
	emitOnce(b, "pbb", fmt.Sprintf(
		"Branch-and-bound (Figure 5 DAG): exhaustive costs %d sets; the bound-pruned search matches its optimum %s = %.4g\n",
		seq.Explored, seq.Best.Set.Key(), seq.Best.Weighted))

	fresh := func() *core.Optimizer { return core.New(base.D, cost.PageIO{}, base.Types) }

	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fresh().Exhaustive(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bnb", func(b *testing.B) {
		var res *core.Result
		var hits, misses uint64
		for i := 0; i < b.N; i++ {
			opt := fresh()
			r, err := opt.BranchAndBound()
			if err != nil {
				b.Fatal(err)
			}
			res = r
			hits, misses = opt.Cost.CacheStats()
		}
		if res.Best.Set.Key() != seq.Best.Set.Key() || res.Best.Weighted != seq.Best.Weighted {
			b.Fatalf("branch-and-bound chose %s = %g, exhaustive %s = %g",
				res.Best.Set.Key(), res.Best.Weighted, seq.Best.Set.Key(), seq.Best.Weighted)
		}
		b.ReportMetric(float64(res.Pruned), "sets-pruned")
		if hits+misses > 0 {
			b.ReportMetric(float64(hits)/float64(hits+misses), "cache-hit-rate")
		}
	})
}

// BenchmarkMeasuredParity runs the live engine next to the estimates
// (experiment E1): measured page I/O per strategy and transaction type.
func BenchmarkMeasuredParity(b *testing.B) {
	_, out, err := paper.MeasuredParity(corpus.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	emitOnce(b, "e1", out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := paper.MeasuredParity(corpus.Config{Departments: 50, EmpsPerDept: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintainedTransaction measures engine throughput on the paper
// metric: maintained transactions over the {N3} strategy, reporting
// page I/Os per transaction.
func BenchmarkMaintainedTransaction(b *testing.B) {
	cfg := corpus.Config{Departments: 100, EmpsPerDept: 10}
	total, err := paper.MeasuredWorkload(cfg, true, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paper.MeasuredWorkload(cfg, true, 10); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total)/100, "pageIO/txn")
}

// BenchmarkSweepFanout is ablation A1: where the SumOfSals advantage goes
// as employees-per-department varies.
func BenchmarkSweepFanout(b *testing.B) {
	rows, out, err := paper.SweepFanout(1000, []int{1, 2, 5, 10, 20, 50, 100})
	if err != nil {
		b.Fatal(err)
	}
	emitOnce(b, "a1", out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := paper.SweepFanout(100, []int{1, 10}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].Ratio, "ratio(d=100)")
}

// BenchmarkSweepWeights is ablation A2: sensitivity of the chosen view
// set to the transaction weights.
func BenchmarkSweepWeights(b *testing.B) {
	_, out, err := paper.SweepWeights(corpus.PaperConfig(), []float64{0.01, 0.1, 1, 10, 100})
	if err != nil {
		b.Fatal(err)
	}
	emitOnce(b, "a2", out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := paper.SweepWeights(corpus.Config{Departments: 50, EmpsPerDept: 5}, []float64{0.1, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepOptimizers is ablation A3: exhaustive vs shielded vs the
// Section 5 heuristics on growing join chains.
func BenchmarkSweepOptimizers(b *testing.B) {
	_, out, err := paper.SweepOptimizers([]int{2, 3, 4})
	if err != nil {
		b.Fatal(err)
	}
	emitOnce(b, "a3", out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := paper.SweepOptimizers([]int{3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepBuffer is ablation A5: LRU residency vs the cold-cache
// cost model on a skewed stream.
func BenchmarkSweepBuffer(b *testing.B) {
	_, out, err := paper.SweepBuffer(corpus.Config{Departments: 200, EmpsPerDept: 10}, []int{0, 64, 1024, 16384}, 400)
	if err != nil {
		b.Fatal(err)
	}
	emitOnce(b, "a5", out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := paper.SweepBuffer(corpus.Config{Departments: 30, EmpsPerDept: 5}, []int{0, 256}, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepBatch is ablation A6: batching amortization of index
// pages, generalizing the paper's 10-tuple batch arithmetic.
func BenchmarkSweepBatch(b *testing.B) {
	_, out, err := paper.SweepBatch(corpus.Config{Departments: 500, EmpsPerDept: 200}, []int{1, 2, 10, 50, 200})
	if err != nil {
		b.Fatal(err)
	}
	emitOnce(b, "a6", out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := paper.SweepBatch(corpus.Config{Departments: 50, EmpsPerDept: 10}, []int{1, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiViewMaintenance is experiment A4 (Section 6): maintaining
// a set of views and an assertion through one multi-rooted DAG.
func BenchmarkMultiViewMaintenance(b *testing.B) {
	db := paperDB(b, 30, 5)
	db.MustExec(`
CREATE VIEW DeptPayroll (DName, Total) AS
SELECT Dept.DName, SUM(Salary) FROM Emp, Dept
WHERE Dept.DName = Emp.DName GROUP BY Dept.DName, Budget;
`)
	sys, err := db.Build([]string{"DeptPayroll", "DeptConstraint"}, mvmaint.Config{
		Workload: paperWorkload(),
		Method:   mvmaint.Greedy,
	})
	if err != nil {
		b.Fatal(err)
	}
	emitOnce(b, "a4", "Section 6 multi-view system:\n"+sys.Explain())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf(`UPDATE Emp SET Salary = %d WHERE EName = 'e%03d_%02d'`,
			100+i%50, i%30, i%5)
		if _, err := sys.Execute(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild times Build at the fig5-batch64 shape (1 000 items, 4 R
// rows and 5 sales each, 64 extra sales on each of 16 hot items; the
// 80/10/10 price-change, sale, deletion mix) phase by phase: DAG
// expansion, the exact view-set search and materialization, in ms per
// build, with the view sets the search reports as costed. One op is one
// Build; loading the database is outside the timer.
//
//	go test -run '^$' -bench Build -benchtime 20x .
func BenchmarkBuild(b *testing.B) {
	sql := fig5SQL(b, 1000, 16)
	var expand, search, store time.Duration
	var res *core.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := mvmaint.Open()
		if err := db.Exec(sql); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		e, s, m, r, err := mvmaint.BuildPhases(db, []string{"Revenue"},
			mvmaint.Config{Workload: skewTypes(), Method: mvmaint.Exhaustive})
		if err != nil {
			b.Fatal(err)
		}
		expand, search, store, res = expand+e, search+s, store+m, r
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(ms(expand), "expand-ms")
	b.ReportMetric(ms(search), "search-ms")
	b.ReportMetric(ms(store), "materialize-ms")
	b.ReportMetric(float64(res.Explored), "sets-costed")
	emitOnce(b, "build", fmt.Sprintf("Build at the fig5-batch64 shape chose %s of %d view sets (%d costed)",
		res.Best.Set.Key(), res.Explored+res.Pruned, res.Explored))
}

// BenchmarkApplyBatchWindow64 times the maintenance window of the
// fig5-batch64 workload without the benchmark harness around it: the
// same database (1 000 items, 64 extra sales on each of 16 hot items),
// the view set Build picks for the 80/10/10 mix, and windows of 64
// hot-item transactions — price changes, and sales inserted and deleted
// one for one so the hot items' fan-out holds. Windows are drawn with
// the timer stopped, 256 at a time. One op is one window, so ns/op and
// allocs/op are per window; io/txn is reported beside them, and the
// benchmark fails if any view drifts from recomputation.
//
//	go test -run '^$' -bench ApplyBatchWindow64 -benchtime 2000x .
func BenchmarkApplyBatchWindow64(b *testing.B) {
	const window, chunk = 64, 256
	db := mvmaint.Open()
	if err := db.Exec(fig5SQL(b, 1000, 16)); err != nil {
		b.Fatal(err)
	}
	sys, err := db.Build([]string{"Revenue"}, mvmaint.Config{Workload: skewTypes(), Method: mvmaint.Exhaustive})
	if err != nil {
		b.Fatal(err)
	}
	stream := newSkewStream(sys.DB.Catalog, 16, 5)
	windows := make([][]txn.Transaction, chunk)
	for i := range windows {
		windows[i] = make([]txn.Transaction, window)
	}
	// A chunk is drawn whole and applied whole: the stream's model of
	// prices and sales runs ahead of the database by what it drew.
	draw := func() {
		for _, w := range windows {
			for i := range w {
				w[i] = stream.next()
			}
		}
	}
	apply := func(w []txn.Transaction) {
		if _, err := sys.M.ApplyBatch(w); err != nil {
			b.Fatal(err)
		}
	}
	draw()
	for _, w := range windows { // plans compile, slabs grow
		apply(w)
	}
	b.ReportAllocs()
	io0 := sys.IO().Snapshot()
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		b.StopTimer()
		draw()
		b.StartTimer()
		for _, w := range windows[:min(chunk, b.N-done)] {
			apply(w)
		}
	}
	b.StopTimer()
	io := sys.IO().Snapshot().Sub(io0)
	b.ReportMetric(float64(io.Total())/float64(b.N*window), "io/txn")
	for _, e := range sys.DAG.NonLeafEqs() {
		if !sys.ViewSet[e.ID] {
			continue
		}
		if drift, err := sys.M.Drift(e); err != nil || drift != "" {
			b.Fatalf("view %s drifted from recomputation: %s %v", e, drift, err)
		}
	}
}

// txnSQLSchema is the corp-* workloads' DDL (paper Example 1.1 with the
// SumOfSals view and the DeptConstraint assertion), copied here so the
// root module does not import the benchmark's.
const txnSQLSchema = `
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

// txnSQLLoad renders the corp-* tables: 1 000 departments of 10
// employees, plus 500 employees outside that pattern, 10 500 Emp rows.
func txnSQLLoad() string {
	var sb strings.Builder
	insert := func(table string, rows []string) {
		for len(rows) > 0 {
			n := min(100, len(rows))
			sb.WriteString("INSERT INTO " + table + " VALUES " + strings.Join(rows[:n], ", ") + ";\n")
			rows = rows[n:]
		}
	}
	var dept, emp []string
	for d := 0; d < 1000; d++ {
		dept = append(dept, fmt.Sprintf("('d%04d', 'm%04d', 2000)", d, d))
		for j := 0; j < 10; j++ {
			emp = append(emp, fmt.Sprintf("('e%04d_%02d', 'd%04d', 100)", d, j, d))
		}
	}
	for k := 0; k < 500; k++ {
		emp = append(emp, fmt.Sprintf("('x%07d', 'd%04d', 100)", k, k*7%1000))
	}
	insert("Dept", dept)
	insert("Emp", emp)
	return sb.String()
}

// BenchmarkTxnFromSQL times SQL text to delta, the sqlparser layer of
// the corp-* workloads, at their shape (1 000 Dept, 10 500 Emp rows):
// parse, compile the WHERE and SET, and evaluate them over the rows
// they read — one, through the key, where the WHERE fixes a declared
// key; every row of the table where it does not (update-emp-scan, whose
// WHERE names only Salary). One op is one statement; nothing is
// applied, so every op sees the same table, and the benchmark fails
// unless the delta holds exactly one row.
//
//	go test -run '^$' -bench TxnFromSQL -benchtime 2000x .
func BenchmarkTxnFromSQL(b *testing.B) {
	db := mvmaint.Open()
	if err := db.Exec(txnSQLSchema + txnSQLLoad() +
		"UPDATE Emp SET Salary = 101 WHERE EName = 'e0250_03';"); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct{ name, table, sql string }{
		{"update-emp", "Emp", "UPDATE Emp SET Salary = 120 WHERE EName = 'e0500_05'"},
		{"update-dept", "Dept", "UPDATE Dept SET Budget = 2500 WHERE DName = 'd0500'"},
		{"delete-emp", "Emp", "DELETE FROM Emp WHERE EName = 'x0000250'"},
		{"update-emp-scan", "Emp", "UPDATE Emp SET Salary = 120 WHERE Salary = 101"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, ds, err := db.TxnFromSQL(c.sql)
				if err != nil {
					b.Fatal(err)
				}
				if n := ds[c.table].Size(); n != 1 {
					b.Fatalf("%s: delta of %d rows, want 1", c.sql, n)
				}
			}
		})
	}
}
