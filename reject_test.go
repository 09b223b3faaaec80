package mvmaint_test

import (
	"encoding/json"
	"testing"
	"time"

	mvmaint "repro"
	"repro/internal/wal"
)

// TestRejectedStatementNeverPublished: on a served, durable Reject-mode
// system a rejected statement reaches neither the log nor the hub, and
// the next accepted statement's changefeed event carries the LSN it
// committed at — the event follows the commit fence.
func TestRejectedStatementNeverPublished(t *testing.T) {
	db := mvmaint.Open()
	db.MustExec(durableSchemaDDL)
	db.MustExec(`CREATE VIEW SumOfSals (DName, Total) AS SELECT DName, SUM(Salary) FROM Emp GROUP BY DName;`)
	db.MustExec(durableData(6, 4))
	sys, err := db.Build([]string{"SumOfSals", "DeptConstraint"}, mvmaint.Config{Workload: paperWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := sys.AttachDurability(wal.OSFS{}, t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	sv, err := sys.NewServing(mvmaint.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	sub, err := sv.Hub.Subscribe("SumOfSals", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	out, err := sys.Execute(`UPDATE Emp SET Salary = 1000000 WHERE EName = 'e002_01'`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.RolledBack {
		t.Fatalf("violation not rejected: %+v", out)
	}
	out, err = sys.Execute(`UPDATE Emp SET Salary = 150 WHERE EName = 'e002_01'`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() || out.Report.LSN == 0 {
		t.Fatalf("accepted raise: ok=%v lsn=%d", out.OK(), out.Report.LSN)
	}

	// Events are published in window order, so the first one the
	// subscriber sees is the accepted raise's only if the rejected
	// statement published nothing.
	var ev struct {
		Seq  uint64 `json:"seq"`
		LSN  uint64 `json:"lsn"`
		Txns int    `json:"txns"`
	}
	select {
	case e := <-sub.Events():
		if err := json.Unmarshal(e.Data, &ev); err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the accepted raise published no event")
	}
	if ev.Seq != 1 || ev.LSN != out.Report.LSN || ev.Txns != 1 {
		t.Fatalf("first event seq=%d lsn=%d txns=%d, want the accepted raise: seq=1 lsn=%d txns=1",
			ev.Seq, ev.LSN, ev.Txns, out.Report.LSN)
	}
}

// TestRecoverReplaysWhatANewAssertionRejects: recovery replays every
// committed window, even one an assertion added at recovery would
// reject. A raise committed while only the view was built survives a
// Recover that adds the assertion, and the recovered system then
// rejects on the violating database it holds.
func TestRecoverReplaysWhatANewAssertionRejects(t *testing.T) {
	db := mvmaint.Open()
	db.MustExec(durableSchemaDDL)
	db.MustExec(durableData(6, 4))
	cfg := mvmaint.Config{Workload: paperWorkload()}
	sys, err := db.Build([]string{"ProblemDept"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mgr, err := sys.AttachDurability(wal.OSFS{}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const raise = `UPDATE Emp SET Salary = 1000000 WHERE EName = 'e002_01'`
	if out, err := sys.Execute(raise); err != nil || !out.OK() || out.Report.LSN != 1 {
		t.Fatalf("unguarded raise: %v %+v", err, out)
	}
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
	if mgr2.RecoveredLSN != 1 || mgr2.ReplayedWindows != 1 {
		t.Fatalf("recovered to LSN %d over %d windows, want 1 over 1", mgr2.RecoveredLSN, mgr2.ReplayedWindows)
	}
	res, err := db2.Query(`SELECT Salary FROM Emp WHERE EName = 'e002_01'`)
	if err != nil || res.Card() != 1 || res.Rows[0].Tuple[0].AsInt() != 1000000 {
		t.Fatalf("salary after recovery = %v (%v); the committed raise was dropped", res, err)
	}
	if rows, err := sys2.ViewRows("DeptConstraint"); err != nil || len(rows) != 1 {
		t.Fatalf("assertion view holds %d rows after recovery (%v), want 1", len(rows), err)
	}
	if drift, err := sys2.M.Drift(sys2.DAG.Root); err != nil || drift != "" {
		t.Fatalf("recovered assertion view drifted: %q %v", drift, err)
	}
	out, err := sys2.Execute(`UPDATE Emp SET Salary = 150 WHERE EName = 'e003_01'`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.RolledBack || mgr2.LastLSN() != 1 {
		t.Fatalf("recovered system did not enforce: %+v last=%d", out, mgr2.LastLSN())
	}
}

// TestRejectOverViolatingDatabase: a Reject-mode system built over a
// database that already violates its assertion needs no premise that
// the database is clean. Every transaction that leaves the assertion
// view non-empty is rejected, with nothing written, and reports the
// rows it would have left; one that repairs the view is accepted.
func TestRejectOverViolatingDatabase(t *testing.T) {
	db := paperDB(t, 6, 4)
	db.MustExec(`UPDATE Emp SET Salary = 5000 WHERE EName = 'e001_00'`)
	sys, err := db.Build([]string{"DeptConstraint"}, mvmaint.Config{Workload: paperWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := sys.ViewRows("DeptConstraint"); err != nil || len(rows) != 1 {
		t.Fatalf("built over %d violating rows (%v), want 1", len(rows), err)
	}
	for _, step := range []struct {
		sql        string
		violations int // rows the rejected transaction would leave; -1 accepts
	}{
		{`UPDATE Emp SET Salary = 150 WHERE EName = 'e002_01'`, 1},
		{`UPDATE Dept SET Budget = 1 WHERE DName = 'd003'`, 2},
		{`UPDATE Emp SET Salary = 4000 WHERE EName = 'e001_00'`, 1},
		{`UPDATE Emp SET Salary = 100 WHERE EName = 'e001_00'`, -1},
		{`UPDATE Emp SET Salary = 150 WHERE EName = 'e002_01'`, -1},
	} {
		out, err := sys.Execute(step.sql)
		if err != nil {
			t.Fatal(err)
		}
		if reject := step.violations >= 0; out.RolledBack != reject || out.OK() == reject {
			t.Fatalf("%s: rolled back %v, ok %v; want rejected %v", step.sql, out.RolledBack, out.OK(), reject)
		}
		if out.RolledBack {
			if n := len(out.Violations[0].Rows); n != step.violations {
				t.Fatalf("%s: %d violating rows, want %d", step.sql, n, step.violations)
			}
			rep := out.Report
			if io := rep.BaseIO.Total() + rep.ViewIO.Total() + rep.RootIO.Total(); io != 0 {
				t.Fatalf("%s: the rejected transaction was applied (%d page I/Os)", step.sql, io)
			}
		}
		for _, e := range sys.DAG.NonLeafEqs() {
			if !sys.ViewSet[e.ID] {
				continue
			}
			if drift, err := sys.M.Drift(e); err != nil || drift != "" {
				t.Fatalf("%s: %s drifted: %q %v", step.sql, e, drift, err)
			}
		}
	}
	if rows, err := sys.ViewRows("DeptConstraint"); err != nil || len(rows) != 0 {
		t.Fatalf("after the repair the assertion view holds %d rows (%v)", len(rows), err)
	}
}
