package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	mvmaint "repro"
	"repro/internal/server"
	"repro/internal/txn"
)

// buildSystem assembles a small corporate-schema system with the
// ProblemDept view maintained, returning it with the DB populated.
func buildSystem(t testing.TB, depts, emps int) (*mvmaint.DB, *mvmaint.System) {
	t.Helper()
	db := mvmaint.Open()
	db.MustExec(`
CREATE TABLE Dept (DName VARCHAR(20) PRIMARY KEY, MName VARCHAR(20), Budget INT);
CREATE TABLE Emp  (EName VARCHAR(20) PRIMARY KEY, DName VARCHAR(20), Salary INT);
CREATE INDEX dept_dname ON Dept (DName);
CREATE INDEX emp_dname  ON Emp (DName);
CREATE INDEX emp_ename  ON Emp (EName);
CREATE VIEW ProblemDept (DName) AS
SELECT Dept.DName
FROM Emp, Dept
WHERE Dept.DName = Emp.DName
GROUP BY Dept.DName, Budget
HAVING SUM(Salary) > Budget;
`)
	var b strings.Builder
	for i := 0; i < depts; i++ {
		fmt.Fprintf(&b, "INSERT INTO Dept VALUES ('d%03d', 'mgr%03d', 1500);\n", i, i)
		for j := 0; j < emps; j++ {
			fmt.Fprintf(&b, "INSERT INTO Emp VALUES ('e%03d_%02d', 'd%03d', 100);\n", i, j, i)
		}
	}
	db.MustExec(b.String())
	sys, err := db.Build([]string{"ProblemDept"}, mvmaint.Config{
		Workload: []*txn.Type{
			{Name: ">Emp", Weight: 1, Updates: []txn.RelUpdate{
				{Rel: "Emp", Kind: txn.Modify, Size: 1, Cols: []string{"Salary"}}}},
			{Name: ">Dept", Weight: 1, Updates: []txn.RelUpdate{
				{Rel: "Dept", Kind: txn.Modify, Size: 1, Cols: []string{"Budget"}}}},
		},
		Method: mvmaint.Exhaustive,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, sys
}

// testServing bundles a Serving with its in-memory HTTP front end so a
// test can shut the whole stack down mid-run (restart scenarios).
type testServing struct {
	sv *mvmaint.Serving
	hs *http.Server
	ln *server.MemListener
}

func (ts *testServing) shutdown() {
	ts.hs.Close()
	ts.ln.Close()
	ts.sv.Close()
}

// startServingDir wires a Serving over an in-memory listener with the
// feed journal in feedDir, returning the stack and an HTTP client
// dialing it.
func startServingDir(t testing.TB, sys *mvmaint.System, feedDir string) (*testServing, *http.Client) {
	t.Helper()
	sv, err := sys.NewServing(mvmaint.ServeOptions{FeedDir: feedDir})
	if err != nil {
		t.Fatal(err)
	}
	ln := server.NewMemListener()
	hs := &http.Server{Handler: sv.Server}
	go hs.Serve(ln)
	ts := &testServing{sv: sv, hs: hs, ln: ln}
	t.Cleanup(ts.shutdown)
	return ts, ln.Client()
}

// startServing is startServingDir with a throwaway feed dir — the
// common case; resume paths are still exercised by default.
func startServing(t testing.TB, sys *mvmaint.System) (*mvmaint.Serving, *http.Client) {
	t.Helper()
	ts, client := startServingDir(t, sys, t.TempDir())
	return ts.sv, client
}

func get(t testing.TB, c *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestServerEndToEnd(t *testing.T) {
	_, sys := buildSystem(t, 20, 5)
	_, client := startServing(t, sys)

	// /views lists the maintained view.
	code, body := get(t, client, "http://mv/views")
	if code != 200 || !strings.Contains(string(body), `"ProblemDept"`) {
		t.Fatalf("/views = %d %s", code, body)
	}

	// The view starts empty (no department overspends).
	code, body = get(t, client, "http://mv/view/ProblemDept")
	var vr struct {
		Epoch uint64            `json:"epoch"`
		Total int               `json:"total"`
		Rows  []json.RawMessage `json:"rows"`
	}
	if code != 200 {
		t.Fatalf("/view = %d %s", code, body)
	}
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Total != 0 {
		t.Fatalf("expected empty view, got %d rows", vr.Total)
	}

	// A transaction batch over POST /txn makes d003 overspend.
	req := `{"statements": ["UPDATE Emp SET Salary = 5000 WHERE EName = 'e003_00'"]}`
	resp, err := client.Post("http://mv/txn", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/txn = %d %s", resp.StatusCode, tbody)
	}
	var tr struct {
		Applied int    `json:"applied"`
		LSN     uint64 `json:"lsn"`
	}
	if err := json.Unmarshal(tbody, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Applied != 1 {
		t.Fatalf("applied = %d, want 1", tr.Applied)
	}

	// The snapshot epoch advances and shows the new row; the hub is
	// asynchronous, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body = get(t, client, "http://mv/view/ProblemDept")
		if err := json.Unmarshal(body, &vr); err != nil {
			t.Fatal(err)
		}
		if vr.Total == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if vr.Total != 1 || !strings.Contains(string(body), `"d003"`) {
		t.Fatalf("after txn: /view = %s", body)
	}

	// Point query by key.
	code, body = get(t, client, "http://mv/view/ProblemDept?key=%5B%22d003%22%5D")
	if code != 200 || !strings.Contains(string(body), `"d003"`) {
		t.Fatalf("point query = %d %s", code, body)
	}
	code, body = get(t, client, "http://mv/view/ProblemDept?key=%5B%22d004%22%5D")
	if code != 200 || !strings.Contains(string(body), `"rows":[]`) {
		t.Fatalf("point miss = %d %s", code, body)
	}

	// Metrics: JSON by default, Prometheus under content negotiation.
	code, body = get(t, client, "http://mv/metrics")
	if code != 200 || body[0] != '{' {
		t.Fatalf("/metrics JSON = %d %.60s", code, body)
	}
	code, body = get(t, client, "http://mv/metrics?format=prom")
	if code != 200 || !strings.Contains(string(body), "server_hub_windows") {
		t.Fatalf("/metrics prom = %d %.200s", code, body)
	}

	// Status reports the hub.
	code, body = get(t, client, "http://mv/status")
	if code != 200 || !strings.Contains(string(body), `"views":1`) {
		t.Fatalf("/status = %d %s", code, body)
	}

	// Unknown view: 404. Bad epoch: 410 after retention (not triggered
	// here), bad key: 400.
	if code, _ = get(t, client, "http://mv/view/Nope"); code != 404 {
		t.Fatalf("unknown view = %d, want 404", code)
	}
	if code, _ = get(t, client, "http://mv/view/ProblemDept?key=notjson"); code != 400 {
		t.Fatalf("bad key = %d, want 400", code)
	}
}

// TestTxnBodyLimit: a POST /txn body over 1 MiB is refused with 413
// before any statement runs; one just under the limit is read.
func TestTxnBodyLimit(t *testing.T) {
	_, sys := buildSystem(t, 2, 2)
	_, client := startServing(t, sys)
	post := func(body string) int {
		t.Helper()
		resp, err := client.Post("http://mv/txn", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	pad := func(n int) string { return `{"statements":[],"pad":"` + strings.Repeat("x", n) + `"}` }
	if code := post(pad(1 << 20)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", code)
	}
	// Under the limit the body is decoded: no statements is a 400.
	if code := post(pad(1<<20 - 64)); code != http.StatusBadRequest {
		t.Fatalf("body under the limit = %d, want 400 (no statements)", code)
	}
}

// TestViewPagingParamsValidated: a limit or offset that is not an
// integer is a 400, like a bad epoch, not a silent first page.
func TestViewPagingParamsValidated(t *testing.T) {
	_, sys := buildSystem(t, 2, 2)
	_, client := startServing(t, sys)
	for _, q := range []string{"limit=ten", "offset=1.5", "limit=5&offset=x"} {
		if code, body := get(t, client, "http://mv/view/ProblemDept?"+q); code != http.StatusBadRequest {
			t.Errorf("?%s = %d %s, want 400", q, code, body)
		}
	}
	if code, body := get(t, client, "http://mv/view/ProblemDept?limit=5&offset=0"); code != http.StatusOK {
		t.Fatalf("valid paging = %d %s", code, body)
	}
}

// TestEpochPinning: a pinned epoch read returns the same bytes after
// later windows apply, and ?epoch pins across views consistently.
func TestEpochPinning(t *testing.T) {
	_, sys := buildSystem(t, 10, 4)
	_, client := startServing(t, sys)

	// Make d001 overspend, then pin that epoch.
	if _, err := sys.Execute(`UPDATE Emp SET Salary = 9000 WHERE EName = 'e001_00'`); err != nil {
		t.Fatal(err)
	}
	var pinned []byte
	var epoch uint64
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := get(t, client, "http://mv/view/ProblemDept")
		var vr struct {
			Epoch uint64 `json:"epoch"`
			Total int    `json:"total"`
		}
		if err := json.Unmarshal(body, &vr); err != nil {
			t.Fatal(err)
		}
		if vr.Total == 1 {
			pinned, epoch = body, vr.Epoch
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("view never showed the update: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Apply more windows that change the view.
	for i := 0; i < 5; i++ {
		stmt := fmt.Sprintf(`UPDATE Emp SET Salary = 9000 WHERE EName = 'e00%d_00'`, 2+i)
		if _, err := sys.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}

	// The pinned epoch still reads byte-identical.
	for i := 0; i < 3; i++ {
		code, body := get(t, client, fmt.Sprintf("http://mv/view/ProblemDept?epoch=%d", epoch))
		if code != 200 {
			t.Fatalf("pinned read = %d %s", code, body)
		}
		if string(body) != string(pinned) {
			t.Fatalf("pinned epoch changed:\n  was %s\n  got %s", pinned, body)
		}
	}

	// An epoch far in the future resolves to the newest snapshot;
	// epoch 0 (pre-retention after enough windows) would be 410 — with
	// default retention both are still retained here.
	code, body := get(t, client, "http://mv/view/ProblemDept?epoch=999999")
	if code != 200 {
		t.Fatalf("future epoch = %d %s", code, body)
	}
}

// TestSSELive: a subscriber sees the windows a writer applies, with
// contiguous ids and well-formed frames.
func TestSSELive(t *testing.T) {
	_, sys := buildSystem(t, 10, 4)
	_, client := startServing(t, sys)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://mv/feed/ProblemDept", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	for i := 0; i < 3; i++ {
		stmt := fmt.Sprintf(`UPDATE Emp SET Salary = 9000 WHERE EName = 'e00%d_00'`, i)
		if _, err := sys.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}

	events := readSSE(t, resp.Body, 3)
	for i, ev := range events {
		if ev.id != uint64(i+1) {
			t.Fatalf("event %d has id %d", i, ev.id)
		}
		if !strings.Contains(ev.data, `"view":"ProblemDept"`) ||
			!strings.Contains(ev.data, `"op":"insert"`) {
			t.Fatalf("event %d data %s", i, ev.data)
		}
	}
}

type sseEvent struct {
	id   uint64
	data string
}

// readSSE consumes n events from an SSE stream.
func readSSE(t testing.TB, r io.Reader, n int) []sseEvent {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []sseEvent
	var cur sseEvent
	for len(out) < n && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id)
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.data != "":
			out = append(out, cur)
			cur = sseEvent{}
		}
	}
	if len(out) < n {
		t.Fatalf("stream ended after %d of %d events (scan err %v)", len(out), n, sc.Err())
	}
	return out
}
