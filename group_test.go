package mvmaint_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	mvmaint "repro"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// The group tests run the corporate schema in Reject mode (SumOfSals
// served, DeptConstraint checked) with 6 departments of 4 employees:
// every budget is 900 and every salary 100, so one salary above 600
// makes its department overspend.
const (
	groupDepts = 6
	groupEmps  = 4
)

var groupNames = []string{"SumOfSals", "DeptConstraint"}

func groupConfig() mvmaint.Config {
	return mvmaint.Config{Workload: append(paperWorkload(),
		&txn.Type{Name: "+Emp", Weight: 1, Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Insert, Size: 1}}},
		&txn.Type{Name: "-Emp", Weight: 1, Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Delete, Size: 1}}})}
}

// groupDB is the schema alone: what recovery rebuilds the catalog from.
func groupDB() *mvmaint.DB {
	db := mvmaint.Open()
	db.MustExec(durableSchemaDDL)
	db.MustExec(`CREATE VIEW SumOfSals (DName, Total) AS SELECT DName, SUM(Salary) FROM Emp GROUP BY DName;`)
	return db
}

func groupSystem(t testing.TB) (*mvmaint.DB, *mvmaint.System) {
	t.Helper()
	db := groupDB()
	db.MustExec(durableData(groupDepts, groupEmps))
	sys, err := db.Build(groupNames, groupConfig())
	if err != nil {
		t.Fatal(err)
	}
	return db, sys
}

// groupStream is a seeded stream of POST /txn requests of 1–6
// statements: salary raises and cuts (a raise above 600 is rolled
// back), budget changes, hires and firings, and a second statement on
// the row the one before it wrote. Request 2 is rolled back whole, and
// request 4 has a SQL error after one accepted statement.
func groupStream(seed int64, n int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	emp := func() string { return fmt.Sprintf("e%03d_%02d", rng.Intn(groupDepts), rng.Intn(groupEmps)) }
	hired := 0
	out := make([][]string, n)
	for k := range out {
		switch k {
		case 2:
			out[k] = []string{
				`UPDATE Emp SET Salary = 1000000 WHERE EName = 'e000_00'`,
				`UPDATE Emp SET Salary = 2000000 WHERE EName = 'e001_01'`,
			}
			continue
		case 4:
			out[k] = []string{
				`UPDATE Emp SET Salary = 123 WHERE EName = 'e001_00'`,
				`UPDATE Nowhere SET x = 1`,
				`UPDATE Emp SET Salary = 124 WHERE EName = 'e001_00'`,
			}
			continue
		}
		salary := func(name string) string {
			return fmt.Sprintf(`UPDATE Emp SET Salary = %d WHERE EName = '%s'`, 50+rng.Intn(650), name)
		}
		last := ""
		for range 1 + rng.Intn(6) {
			var stmt, wrote string
			switch r := rng.Intn(10); {
			case r == 0 && last != "":
				wrote = last
				stmt = salary(wrote)
			case r < 6:
				wrote = emp()
				stmt = salary(wrote)
			case r < 7:
				stmt = fmt.Sprintf(`UPDATE Dept SET Budget = %d WHERE DName = 'd%03d'`, 700+rng.Intn(500), rng.Intn(groupDepts))
			case r < 9:
				hired++
				stmt = fmt.Sprintf(`INSERT INTO Emp VALUES ('n%03d', 'd%03d', %d)`, hired, rng.Intn(groupDepts), 10+rng.Intn(90))
			default:
				name := emp()
				if hired > 0 && rng.Intn(2) == 0 {
					name = fmt.Sprintf("n%03d", 1+rng.Intn(hired))
				}
				stmt = fmt.Sprintf(`DELETE FROM Emp WHERE EName = '%s'`, name)
			}
			last = wrote
			out[k] = append(out[k], stmt)
		}
	}
	return out
}

// txnReply is the POST /txn reply.
type txnReply struct {
	code       int
	Applied    int    `json:"applied"`
	RolledBack int    `json:"rolled_back"`
	LSN        uint64 `json:"lsn"`
	Error      string `json:"error"`
}

func postTxn(t testing.TB, h http.Handler, stmts []string) txnReply {
	t.Helper()
	body, err := json.Marshal(map[string][]string{"statements": stmts})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/txn", bytes.NewReader(body)))
	out := txnReply{code: rec.Code}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("POST /txn reply %q: %v", rec.Body.String(), err)
	}
	return out
}

// execOnly is a server over the per-statement path: a Config that sets
// only Exec, each statement its own window, fsync and event.
func execOnly(hub *server.Hub, sys *mvmaint.System) http.Handler {
	return server.New(server.Config{Hub: hub, Exec: func(stmt string) (server.ExecResult, error) {
		out, err := sys.Execute(stmt)
		if err != nil {
			return server.ExecResult{}, err
		}
		res := server.ExecResult{RolledBack: out.RolledBack, LSN: out.Report.LSN}
		for _, v := range out.Violations {
			res.Violations = append(res.Violations, v.String())
		}
		return res, nil
	}})
}

// tupleKey renders a view tuple as the changefeed's JSON does.
func tupleKey(t value.Tuple) string {
	vals := make([]any, len(t))
	for i, v := range t {
		switch v.Kind {
		case value.Int:
			vals[i] = v.I
		case value.String:
			vals[i] = v.S
		default:
			vals[i] = v.String()
		}
	}
	b, _ := json.Marshal(vals)
	return string(b)
}

// sumImage is SumOfSals as a bag of tuple keys.
func sumImage(t testing.TB, sys *mvmaint.System) map[string]int64 {
	t.Helper()
	rows, err := sys.ViewRows("SumOfSals")
	if err != nil {
		t.Fatal(err)
	}
	img := map[string]int64{}
	for _, r := range rows {
		img[tupleKey(r.Tuple)] += r.Count
	}
	return img
}

// feedEvent is one changefeed event's payload.
type feedEvent struct {
	Seq     uint64 `json:"seq"`
	LSN     uint64 `json:"lsn"`
	Changes []struct {
		Old   json.RawMessage `json:"old"`
		New   json.RawMessage `json:"new"`
		Count int64           `json:"count"`
	} `json:"changes"`
}

// netted reports whether the event carries a net change: no tuple in
// two of its changes, nor as both the old and new of one.
func (e *feedEvent) netted() bool {
	seen := map[string]bool{}
	for _, c := range e.Changes {
		for _, tup := range []json.RawMessage{c.Old, c.New} {
			if tup == nil {
				continue
			}
			if seen[string(tup)] {
				return false
			}
			seen[string(tup)] = true
		}
	}
	return true
}

// fold applies the event to a bag image.
func (e *feedEvent) fold(img map[string]int64) {
	for _, c := range e.Changes {
		if c.Old != nil {
			if img[string(c.Old)] -= c.Count; img[string(c.Old)] == 0 {
				delete(img, string(c.Old))
			}
		}
		if c.New != nil {
			img[string(c.New)] += c.Count
		}
	}
}

// allDriftClean fails on any materialized view that differs from its
// recomputation.
func allDriftClean(t testing.TB, sys *mvmaint.System) {
	t.Helper()
	for _, e := range sys.DAG.NonLeafEqs() {
		if !sys.ViewSet[e.ID] {
			continue
		}
		if drift, err := sys.M.Drift(e); err != nil || drift != "" {
			t.Fatalf("view %s drifted from recomputation: %s %v", e, drift, err)
		}
	}
}

// groupState is a system's base relations and every view, as sorted
// rows: what two systems (or a system and its recovery) must agree on.
func groupState(t testing.TB, db *mvmaint.DB, sys *mvmaint.System) string {
	t.Helper()
	var b strings.Builder
	for _, q := range []string{`SELECT * FROM Emp`, `SELECT * FROM Dept`} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, sortedRows(res.Rows))
	}
	fmt.Fprintln(&b, viewBags(sys)) // fmt prints maps in key order
	return b.String()
}

// TestGroupedRequestsMatchPerStatement runs one seeded request stream
// through Serving, where a request is one group, and through a server
// built with Exec only, where each statement is its own window. Both
// are durable. Every request gets the same verdicts from both, the
// grouped path logs one record per request that changed anything and
// publishes one event, and that event folds the previous image into
// the per-statement path's state at the end of the request.
func TestGroupedRequestsMatchPerStatement(t *testing.T) {
	dbA, sysA := groupSystem(t)
	dbB, sysB := groupSystem(t)
	mgrA, err := sysA.AttachDurability(wal.OSFS{}, t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgrA.Close()
	mgrB, err := sysB.AttachDurability(wal.OSFS{}, t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgrB.Close()
	svA, err := sysA.NewServing(mvmaint.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svA.Close()
	svB, err := sysB.NewServing(mvmaint.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svB.Close()
	perStmt := execOnly(svB.Hub, sysB)
	sub, err := svA.Hub.Subscribe("SumOfSals", 0)
	if err != nil {
		t.Fatal(err)
	}
	image := sumImage(t, sysA) // the epoch-0 image
	records := obs.C("wal.records")

	var seq uint64
	grouped, events := 0, 0
	for k, stmts := range groupStream(7, 80) {
		recs0, lsnB0 := records.Value(), mgrB.LastLSN()
		before := sumImage(t, sysB)
		a := postTxn(t, svA.Server, stmts)
		recsA := records.Value() - recs0
		b := postTxn(t, perStmt, stmts)
		if a.code != b.code || a.Applied != b.Applied || a.RolledBack != b.RolledBack || (a.Error == "") != (b.Error == "") {
			t.Fatalf("request %d %q: grouped %+v, per statement %+v", k, stmts, a, b)
		}
		if k == 4 && (a.code != http.StatusBadRequest || a.Applied != 1 || a.LSN == 0) {
			t.Fatalf("request 4 (SQL error after one accepted statement): %+v, want 400 with applied 1 and its lsn", a)
		}
		if a.LSN != mgrA.LastLSN() {
			t.Fatalf("request %d: reply lsn %d, log at %d", k, a.LSN, mgrA.LastLSN())
		}
		want := int64(0)
		if mgrB.LastLSN() > lsnB0 {
			want = 1 // some accepted statement changed a base relation
			grouped++
		}
		if recsA != want {
			t.Fatalf("request %d %q: grouped path wrote %d records, want %d (per statement wrote %d)",
				k, stmts, recsA, want, mgrB.LastLSN()-lsnB0)
		}
		after := sumImage(t, sysB)
		if maps.Equal(before, after) {
			continue // nothing visible changed: no event
		}
		var ev feedEvent
		select {
		case e, ok := <-sub.Events():
			if !ok {
				t.Fatal("changefeed closed")
			}
			if err := json.Unmarshal(e.Data, &ev); err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d published no event", k)
		}
		events++
		if seq++; ev.Seq != seq || ev.LSN != a.LSN {
			t.Fatalf("request %d: event seq %d lsn %d, want seq %d lsn %d (one event per request)", k, ev.Seq, ev.LSN, seq, a.LSN)
		}
		if !ev.netted() {
			t.Fatalf("request %d %q: event is not a net change: %+v", k, stmts, ev.Changes)
		}
		ev.fold(image)
		if !maps.Equal(image, after) {
			t.Fatalf("request %d %q: image folded with its event\n  %v\nper-statement state\n  %v", k, stmts, image, after)
		}
	}
	// The hub drains its queue on Close: an event left over means some
	// request published more than one.
	if err := svA.Close(); err != nil {
		t.Fatal(err)
	}
	for e := range sub.Events() {
		t.Fatalf("event %d published past the requests' own: %s", e.Seq, e.Data)
	}
	if grouped < 40 || events < 40 {
		t.Fatalf("only %d requests logged and %d published; the stream does not exercise groups", grouped, events)
	}
	if sa, sb := groupState(t, dbA, sysA), groupState(t, dbB, sysB); sa != sb {
		t.Fatalf("final state differs:\ngrouped\n%s\nper statement\n%s", sa, sb)
	}
	allDriftClean(t, sysA)
	allDriftClean(t, sysB)
	t.Logf("%d requests logged as %d records; per statement, %d", grouped, mgrA.LastLSN(), mgrB.LastLSN())
}

// TestGroupCrashKeepsRequestsWhole crashes the grouped path's log at
// every mutating operation of a request stream (one checkpoint in the
// middle) and recovers: the state is the state after a whole number of
// requests, at least every acknowledged one and at most one more.
func TestGroupCrashKeepsRequestsWhole(t *testing.T) {
	const dir, ckptAt = "wal", 6
	stream := groupStream(11, 12)
	// run drives the stream on a fresh system over fsys; it returns the
	// number of requests acknowledged before the crash, and the state
	// after each request (index 0: before the first).
	run := func(fsys *wal.FaultFS, crashAt int) (acked int, states []string, attachOps int) {
		db, sys := groupSystem(t)
		mgr, err := sys.AttachDurability(fsys, dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		attachOps = fsys.Ops()
		fsys.SetCrashAfter(crashAt)
		sv, err := sys.NewServing(mvmaint.ServeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Close()
		states = append(states, groupState(t, db, sys))
		for k, stmts := range stream {
			if k == ckptAt && mgr.Checkpoint(nil) != nil {
				return acked, states, attachOps
			}
			postTxn(t, sv.Server, stmts)
			if fsys.Crashed() {
				return acked, states, attachOps
			}
			acked++
			states = append(states, groupState(t, db, sys))
		}
		return acked, states, attachOps
	}
	ref := wal.NewFaultFS(1)
	acked, states, from := run(ref, 0)
	if acked != len(stream) {
		t.Fatalf("reference run acknowledged %d of %d requests", acked, len(stream))
	}
	total := ref.Ops()
	if total-from < len(stream) {
		t.Fatalf("only %d fault points past attach", total-from)
	}
	for crashAt := from + 1; crashAt <= total; crashAt++ {
		fsys := wal.NewFaultFS(uint64(crashAt)*2654435761 + 1)
		fsys.TornTail, fsys.FlipBit = true, true
		acked, _, _ := run(fsys, crashAt)
		if !fsys.Crashed() {
			t.Fatalf("crash at op %d never fired", crashAt)
		}
		fsys.Reboot()
		db := groupDB()
		sys, mgr, err := mvmaint.Recover(db, groupNames, groupConfig(), fsys, dir, wal.Options{})
		if err != nil {
			t.Fatalf("crash at op %d: recover: %v", crashAt, err)
		}
		got := groupState(t, db, sys)
		mgr.Close()
		if got != states[acked] && (acked+1 >= len(states) || got != states[acked+1]) {
			t.Fatalf("crash at op %d after %d acknowledged requests: recovered state is neither theirs nor one request past\n%s",
				crashAt, acked, got)
		}
		allDriftClean(t, sys)
	}
	t.Logf("%d crash points", total-from)
}

// TestCheckpointInsideGroupFails: a checkpoint taken while a group is
// open would hold applied state the log does not; it is refused, and
// the group still commits.
func TestCheckpointInsideGroupFails(t *testing.T) {
	db, sys := groupSystem(t)
	dir := t.TempDir()
	mgr, err := sys.AttachDurability(wal.OSFS{}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ckptErr error
	lsn, err := sys.M.Group(func() error {
		if _, err := sys.Execute(`UPDATE Emp SET Salary = 150 WHERE EName = 'e002_01'`); err != nil {
			return err
		}
		ckptErr = mgr.Checkpoint(nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(ckptErr, maintain.ErrGroupOpen) {
		t.Fatalf("checkpoint inside a group = %v, want ErrGroupOpen", ckptErr)
	}
	if lsn != 1 || mgr.LastLSN() != 1 {
		t.Fatalf("group committed at lsn %d, log at %d; want 1", lsn, mgr.LastLSN())
	}
	want := groupState(t, db, sys)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := groupDB()
	sys2, mgr2, err := mvmaint.Recover(db2, groupNames, groupConfig(), wal.OSFS{}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if got := groupState(t, db2, sys2); got != want {
		t.Fatalf("recovered\n%s\nwant\n%s", got, want)
	}
	if mgr2.ReplayedWindows != 1 || !reflect.DeepEqual(viewBags(sys2), viewBags(sys)) {
		t.Fatalf("replayed %d windows; the group is one", mgr2.ReplayedWindows)
	}
}
