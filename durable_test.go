package mvmaint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	mvmaint "repro"
	"repro/internal/txn"
	"repro/internal/wal"
)

// durableSchemaDDL is the schema-only DDL (no data) persisted in the
// checkpoint metadata: recovery re-executes it on a fresh DB to rebuild
// the catalog, then the checkpoint restores the relation contents.
const durableSchemaDDL = `
CREATE TABLE Dept (DName VARCHAR(20) PRIMARY KEY, MName VARCHAR(20), Budget INT);
CREATE TABLE Emp (EName VARCHAR(20) PRIMARY KEY, DName VARCHAR(20), Salary INT);
CREATE INDEX dept_dname ON Dept (DName);
CREATE INDEX emp_dname ON Emp (DName);
CREATE INDEX emp_ename ON Emp (EName);

CREATE VIEW ProblemDept (DName) AS
SELECT Dept.DName FROM Emp, Dept
WHERE Dept.DName = Emp.DName
GROUP BY Dept.DName, Budget
HAVING SUM(Salary) > Budget;

CREATE ASSERTION DeptConstraint CHECK
  (NOT EXISTS (SELECT * FROM ProblemDept));
`

func durableData(departments, empsPerDept int) string {
	var b strings.Builder
	for i := 0; i < departments; i++ {
		fmt.Fprintf(&b, "INSERT INTO Dept VALUES ('d%03d', 'm%03d', %d);\n",
			i, i, empsPerDept*100+500)
		for j := 0; j < empsPerDept; j++ {
			fmt.Fprintf(&b, "INSERT INTO Emp VALUES ('e%03d_%02d', 'd%03d', 100);\n", i, j, i)
		}
	}
	return b.String()
}

// TestDurableSystemRecover drives durability through the public SQL
// surface: attach a WAL to a built system, run maintained DML including
// a rejected violation (which must not advance the durability point),
// checkpoint, crash-free close, then recover onto a fresh DB rebuilt
// from the checkpoint's persisted DDL and verify views were loaded (not
// recomputed), state matches, and the recovered system keeps enforcing.
func TestDurableSystemRecover(t *testing.T) {
	db := mvmaint.Open()
	db.MustExec(durableSchemaDDL)
	db.MustExec(durableData(12, 5))
	cfg := mvmaint.Config{
		Workload: append(paperWorkload(),
			&txn.Type{Name: "+Emp", Weight: 1, Updates: []txn.RelUpdate{
				{Rel: "Emp", Kind: txn.Insert, Size: 1}}}),
		Method: mvmaint.Exhaustive,
	}
	sys, err := db.Build([]string{"DeptConstraint"}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := wal.Options{Meta: map[string]string{"ddl": durableSchemaDDL}}
	mgr, err := sys.AttachDurability(wal.OSFS{}, dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	// A benign raise commits at LSN 1.
	out, err := sys.Execute(`UPDATE Emp SET Salary = 120 WHERE EName = 'e003_01'`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() || out.Report.LSN != 1 || mgr.LastLSN() != 1 {
		t.Fatalf("benign raise: ok=%v lsn=%d last=%d", out.OK(), out.Report.LSN, mgr.LastLSN())
	}

	// A violating raise is rejected and rolled back — and must never
	// reach the log: its apply and rollback annihilate before commit.
	out, err = sys.Execute(`UPDATE Emp SET Salary = 1000000 WHERE EName = 'e003_01'`)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() || !out.RolledBack {
		t.Fatalf("violation not rejected: %+v", out)
	}
	if mgr.LastLSN() != 1 {
		t.Fatalf("rejected transaction advanced the log to %d", mgr.LastLSN())
	}
	if out.Report.LSN != 1 {
		t.Fatalf("rejected transaction's durability point = %d, want 1 (the covering LSN)", out.Report.LSN)
	}

	// Hire and checkpoint; then fire after the checkpoint so recovery has
	// a log tail to replay incrementally.
	if _, err := sys.Execute(`INSERT INTO Emp VALUES ('fresh', 'd002', 90)`); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(`DELETE FROM Emp WHERE EName = 'e001_00'`); err != nil {
		t.Fatal(err)
	}
	closedAt := mgr.LastLSN()
	if closedAt != 3 {
		t.Fatalf("LastLSN = %d, want 3", closedAt)
	}
	viewBefore, err := sys.ViewRows("DeptConstraint")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover onto a fresh DB whose catalog is rebuilt from the DDL the
	// checkpoint carries.
	meta, err := wal.ReadMeta(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta["ddl"] == "" {
		t.Fatal("checkpoint lost the ddl metadata")
	}
	db2 := mvmaint.Open()
	db2.MustExec(meta["ddl"])
	sys2, mgr2, err := mvmaint.Recover(db2, []string{"DeptConstraint"}, cfg, wal.OSFS{}, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()

	if mgr2.RecomputedViews != 0 {
		t.Fatalf("recovery recomputed %d views; the checkpointed view set is current", mgr2.RecomputedViews)
	}
	if mgr2.RecoveredLSN != closedAt {
		t.Fatalf("recovered LSN %d, want %d", mgr2.RecoveredLSN, closedAt)
	}
	if mgr2.ReplayedWindows != 1 {
		t.Fatalf("replayed %d windows, want 1 (only the post-checkpoint delete)", mgr2.ReplayedWindows)
	}

	// Recovered state matches: the raise survived, the hire survived, the
	// fire survived, and the maintained view agrees.
	res, err := db2.Query(`SELECT Salary FROM Emp WHERE EName = 'e003_01'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 1 || res.Rows[0].Tuple[0].AsInt() != 120 {
		t.Fatalf("salary after recovery = %v", res.Rows)
	}
	if res, err = db2.Query(`SELECT EName FROM Emp WHERE EName = 'fresh'`); err != nil || res.Card() != 1 {
		t.Fatalf("hire lost in recovery: %v %v", res, err)
	}
	if res, err = db2.Query(`SELECT EName FROM Emp WHERE EName = 'e001_00'`); err != nil || res.Card() != 0 {
		t.Fatalf("fire lost in recovery: %v %v", res, err)
	}
	viewAfter, err := sys2.ViewRows("DeptConstraint")
	if err != nil {
		t.Fatal(err)
	}
	if len(viewAfter) != len(viewBefore) {
		t.Fatalf("DeptConstraint view has %d rows after recovery, want %d", len(viewAfter), len(viewBefore))
	}

	// The recovered system still enforces and still logs.
	out, err = sys2.Execute(`UPDATE Emp SET Salary = 1000000 WHERE EName = 'e003_01'`)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() || !out.RolledBack || mgr2.LastLSN() != closedAt {
		t.Fatalf("post-recovery violation mishandled: %+v last=%d", out, mgr2.LastLSN())
	}
	out, err = sys2.Execute(`UPDATE Emp SET Salary = 130 WHERE EName = 'e003_01'`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() || out.Report.LSN != closedAt+1 {
		t.Fatalf("post-recovery commit: ok=%v lsn=%d", out.OK(), out.Report.LSN)
	}

	// Attaching to a directory that already holds durable state is an
	// error — Recover is the only correct way in.
	if _, err := sys2.AttachDurability(wal.OSFS{}, dir, opts); err == nil {
		t.Fatal("AttachDurability over existing state should fail")
	}
}

// dirBytes sums the lengths of the files in a WAL directory. Segment
// preallocation reserves extents without changing a file's length, so
// between checkpoints this moves exactly when a record is appended.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// viewBags renders every materialized view (declared and additional) as
// a bag of tuple keys, for comparing two systems' maintained state.
func viewBags(sys *mvmaint.System) map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for name, vs := range sys.M.ViewStates() {
		bag := map[string]int64{}
		for _, row := range vs.Rows {
			bag[row.Tuple.Key()] += row.Count
		}
		out[name] = bag
	}
	return out
}

// TestRejectedTransactionNeverLogged pins the logging contract now that
// the log is handed each accepted window instead of watching storage: a
// rejected transaction appends nothing (same LSN, same log length, and
// its durability point is the covering LSN), the accepted transaction
// after it does, and a fresh DB recovered from the directory holds the
// live system's views.
func TestRejectedTransactionNeverLogged(t *testing.T) {
	// The subtest keeps the name it had when a deferred fence was run
	// beside the default one; the default fence is the only one now.
	t.Run("deferred=false", rejectedTransactionNeverLogged)
}

func rejectedTransactionNeverLogged(t *testing.T) {
	db := mvmaint.Open()
	db.MustExec(durableSchemaDDL)
	db.MustExec(durableData(6, 4))
	cfg := mvmaint.Config{Workload: paperWorkload(), Method: mvmaint.Exhaustive}
	sys, err := db.Build([]string{"DeptConstraint"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mgr, err := sys.AttachDurability(wal.OSFS{}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// settle reads the log tip and the directory size after each step.
	settle := func() (uint64, int64) {
		t.Helper()
		return mgr.LastLSN(), dirBytes(t, dir)
	}

	if out, err := sys.Execute(`UPDATE Emp SET Salary = 150 WHERE EName = 'e002_01'`); err != nil || !out.OK() {
		t.Fatalf("benign raise: %v %+v", err, out)
	}
	lsn0, bytes0 := settle()
	if lsn0 != 1 {
		t.Fatalf("accepted transaction landed at LSN %d, want 1", lsn0)
	}

	out, err := sys.Execute(`UPDATE Emp SET Salary = 1000000 WHERE EName = 'e002_01'`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.RolledBack {
		t.Fatalf("violation not rejected: %+v", out)
	}
	if out.Report.LSN != lsn0 {
		t.Fatalf("rejected transaction's durability point = %d, want %d", out.Report.LSN, lsn0)
	}
	if lsn, n := settle(); lsn != lsn0 || n != bytes0 {
		t.Fatalf("rejected transaction reached the log: LSN %d→%d, %d→%d bytes", lsn0, lsn, bytes0, n)
	}

	// The accepted transaction after it hires into another
	// department and moves the additional view.
	if out, err := sys.Execute(`INSERT INTO Emp VALUES ('fresh', 'd004', 75)`); err != nil || !out.OK() {
		t.Fatalf("hire: %v %+v", err, out)
	}
	if lsn, n := settle(); lsn != lsn0+1 || n <= bytes0 {
		t.Fatalf("accepted transaction not logged: LSN %d→%d, %d→%d bytes", lsn0, lsn, bytes0, n)
	}
	live := viewBags(sys)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mvmaint.Open()
	db2.MustExec(durableSchemaDDL)
	sys2, mgr2, err := mvmaint.Recover(db2, []string{"DeptConstraint"}, cfg, wal.OSFS{}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if mgr2.RecoveredLSN != lsn0+1 || mgr2.ReplayedWindows != 2 {
		t.Fatalf("recovered to LSN %d over %d windows, want %d over 2",
			mgr2.RecoveredLSN, mgr2.ReplayedWindows, lsn0+1)
	}
	if got := viewBags(sys2); !reflect.DeepEqual(got, live) {
		t.Fatalf("recovered views differ from the live system:\n got %v\nwant %v", got, live)
	}
	res, err := db2.Query(`SELECT Salary FROM Emp WHERE EName = 'e002_01'`)
	if err != nil || res.Card() != 1 || res.Rows[0].Tuple[0].AsInt() != 150 {
		t.Fatalf("salary after recovery = %v (%v); the rejected raise must not replay", res, err)
	}
}
