package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"time"

	mvmaint "repro"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/server"
)

// sumRow is one SumOfSals tuple as the server renders it: ["d0042", 1230].
type sumRow struct {
	Dept  string
	Total int64
}

func (r *sumRow) UnmarshalJSON(b []byte) error {
	return json.Unmarshal(b, &[]any{&r.Dept, &r.Total})
}

// feedEvent is one SSE changefeed event with its time of receipt.
type feedEvent struct {
	at      time.Time
	Seq     uint64 `json:"seq"` // feed sequence number: the epoch to pin reads to
	Changes []struct {
		Old *sumRow `json:"old"`
		New *sumRow `json:"new"`
	} `json:"changes"`
}

// sets reports whether the event leaves dept with the given total.
func (e *feedEvent) sets(dept string, total int64) bool {
	for _, c := range e.Changes {
		if c.New != nil && c.New.Dept == dept && c.New.Total == total {
			return true
		}
	}
	return false
}

// fold applies the event to a dept -> total image of the view.
func (e *feedEvent) fold(image map[string]int64) {
	for _, c := range e.Changes {
		if c.Old != nil && image[c.Old.Dept] == c.Old.Total {
			delete(image, c.Old.Dept)
		}
		if c.New != nil {
			image[c.New.Dept] = c.New.Total
		}
	}
}

// awaitEvent receives until an event sets dept's total and returns it
// with the number of earlier events it passed over. A request is
// matched to its event by content and not by LSN: under the Reject
// mode an assertion puts the checker in, the window hook fires before
// the deferred commit, so every event of this workload carries lsn 0.
// The generator makes the match unambiguous (see corpGen.request).
func awaitEvent(events <-chan feedEvent, dept string, total int64, timeout time.Duration) (feedEvent, int, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for skipped := 0; ; skipped++ {
		select {
		case ev, ok := <-events:
			if !ok {
				return feedEvent{}, skipped, errors.New("changefeed closed")
			}
			if ev.sets(dept, total) {
				return ev, skipped, nil
			}
		case <-deadline.C:
			return feedEvent{}, skipped, fmt.Errorf("no changefeed event set %s to %d within %s", dept, total, timeout)
		}
	}
}

// feedClient is connection 2: it holds GET /feed/SumOfSals open, stamps
// each event on receipt, folds it into its image of the view and hands
// it to the writer loop.
type feedClient struct {
	cancel context.CancelFunc
	done   chan struct{}
	// A request emits at most five events and the writer drains them
	// before its next request; 64 leaves room without ever blocking the
	// reader.
	events chan feedEvent
	image  map[string]int64     // reader goroutine; read after done
	tcpAt  map[uint64]time.Time // feed seq -> receipt, traced runs; same rule
}

func openFeed(base string, image map[string]int64, traced bool) (*feedClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/feed/SumOfSals", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /feed/SumOfSals: %s", resp.Status)
	}
	f := &feedClient{cancel: cancel, done: make(chan struct{}), events: make(chan feedEvent, 64), image: image}
	if traced {
		f.tcpAt = map[uint64]time.Time{}
	}
	go f.read(resp.Body)
	return f, nil
}

func (f *feedClient) read(body io.ReadCloser) {
	defer close(f.done)
	defer close(f.events)
	defer body.Close()
	r := bufio.NewReader(body)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		ev := feedEvent{at: time.Now()}
		if err := json.Unmarshal(data, &ev); err != nil {
			return
		}
		ev.fold(f.image)
		if f.tcpAt != nil {
			f.tcpAt[ev.Seq] = ev.at
		}
		f.events <- ev
	}
}

func (f *feedClient) stop() {
	f.cancel()
	for range f.events { // unblock a reader stuck on a full channel
	}
	<-f.done
}

// serve is the corp-serve-tcp workload: the corporate database made
// durable and served over loopback TCP, with one writer connection
// (POST /txn of four statements, then a read pinned to the epoch that
// made the request visible) and one SSE connection.
type serve struct {
	engine
	gen     *corpGen
	feedDir string

	sv     *mvmaint.Serving
	hs     *http.Server
	served chan error
	url    string
	writer *http.Client
	feed   *feedClient

	execMu   sync.Mutex // traced Exec: the pipeline is single-writer
	requests int
	lastLSN  uint64

	// Traced runs only. mu guards what the handler, hub-subscriber and
	// writer goroutines share.
	t0                      time.Time // start of the timed section
	io                      ioSplit
	windows                 int
	rolledBack              int
	postMs, pointMs, scanMs []float64
	queueMax                int
	mu                      sync.Mutex
	hookReturn              map[uint64]time.Time // window seq -> OnWindow returned
	inprocAt                map[uint64]time.Time // feed seq -> in-process subscriber got it
	windowOf                map[uint64]uint64    // feed seq -> window seq
	sub                     *server.Subscription
	subDone                 chan struct{}
}

func setupServe(cfg config, tr *tracer, dir string) (workload, error) {
	w := &serve{gen: newCorpGen(cfg.seed), feedDir: filepath.Join(dir, "feed")}
	w.tr = tr
	if err := w.open(corpSchema, corpLoad(), corpNames, corpTypes()); err != nil {
		return nil, err
	}
	if err := w.attachWAL(filepath.Join(dir, "wal")); err != nil {
		return nil, err
	}
	sv, err := w.sys.NewServing(mvmaint.ServeOptions{FeedDir: w.feedDir})
	if err != nil {
		return nil, err
	}
	w.sv = sv
	handler := http.Handler(sv.Server)
	if tr != nil {
		handler = w.traceServing()
	}
	// Server.Serve has no way to stop; the same http.Server it would
	// build is built here so the run can shut it down.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.url = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: handler}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.writer = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return w, nil
}

// traceServing rebuilds the server with spans at its layer boundaries:
// the handler, the two calls Exec makes and the window hook, whose
// return it stamps per window.
func (w *serve) traceServing() http.Handler {
	w.hookReturn = map[uint64]time.Time{}
	w.inprocAt = map[uint64]time.Time{}
	w.windowOf = map[uint64]uint64{}
	hub := w.sv.Hub
	w.sys.M.SetWindowHook(func(u maintain.WindowUpdate) {
		id := w.tr.start(layerServer, "window hook (clone)")
		hub.OnWindow(u)
		w.tr.end(id)
		w.mu.Lock()
		w.hookReturn[u.Seq] = time.Now()
		w.mu.Unlock()
	})
	srv := server.New(server.Config{Hub: hub, Exec: w.tracedExec, Obs: obs.Handler(nil, nil)})
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/feed/") { // lives as long as the run
			srv.ServeHTTP(rw, r)
			return
		}
		id := w.tr.start(layerServer, "handle "+r.Method+" "+r.URL.Path)
		srv.ServeHTTP(rw, r)
		w.tr.end(id)
	})
}

// tracedExec is Serving's Exec hook with its two calls spanned.
func (w *serve) tracedExec(stmt string) (server.ExecResult, error) {
	w.execMu.Lock()
	defer w.execMu.Unlock()
	id := w.tr.start(layerSQLParser, "TxnFromSQL")
	ty, updates, err := w.db.TxnFromSQL(stmt)
	w.tr.end(id)
	if err != nil {
		return server.ExecResult{}, err
	}
	id = w.tr.start(layerMaintain, "ExecuteTxn")
	out, err := w.sys.ExecuteTxn(ty, updates)
	w.tr.end(id)
	if err != nil {
		return server.ExecResult{}, err
	}
	w.windows++
	w.io.addTxn(out.Report)
	res := server.ExecResult{RolledBack: out.RolledBack, LSN: out.Report.LSN}
	for _, v := range out.Violations {
		res.Violations = append(res.Violations, v.String())
	}
	return res, nil
}

// connect opens connection 2 and takes the epoch-0 image the events
// are folded into. Traced runs also subscribe in process.
func (w *serve) connect() error {
	image, err := w.readImage()
	if err != nil {
		return err
	}
	if w.feed, err = openFeed(w.url, image, w.tr != nil); err != nil {
		return err
	}
	if w.tr == nil {
		return nil
	}
	if w.sub, err = w.sv.Hub.Subscribe("SumOfSals", 0); err != nil {
		return err
	}
	w.subDone = make(chan struct{})
	go func() {
		defer close(w.subDone)
		for ev := range w.sub.Events() {
			at := time.Now()
			var body struct {
				WindowSeq uint64 `json:"window_seq"`
			}
			if json.Unmarshal(ev.Data, &body) != nil {
				continue
			}
			w.mu.Lock()
			w.inprocAt[ev.Seq], w.windowOf[ev.Seq] = at, body.WindowSeq
			w.mu.Unlock()
		}
	}()
	return nil
}

// get fetches path over the writer connection and decodes the JSON
// reply into out.
func (w *serve) get(path string, out any) error {
	resp, err := w.writer.Get(w.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type viewReply struct {
	Epoch uint64 `json:"epoch"`
	Total int    `json:"total"`
	Rows  []struct {
		Tuple sumRow `json:"tuple"`
		Count int64  `json:"count"`
	} `json:"rows"`
}

// readImage scans the whole current SumOfSals epoch.
func (w *serve) readImage() (map[string]int64, error) {
	var v viewReply
	if err := w.get("/view/SumOfSals?limit=1000000", &v); err != nil {
		return nil, err
	}
	image := make(map[string]int64, len(v.Rows))
	for _, r := range v.Rows {
		image[r.Tuple.Dept] = r.Tuple.Total
	}
	return image, nil
}

type txnReply struct {
	Applied    int    `json:"applied"`
	RolledBack int    `json:"rolled_back"`
	LSN        uint64 `json:"lsn"`
	Error      string `json:"error"`
}

func (w *serve) post(stmts []string) (txnReply, error) {
	body, err := json.Marshal(map[string][]string{"statements": stmts})
	if err != nil {
		return txnReply{}, err
	}
	resp, err := w.writer.Post(w.url+"/txn", "application/json", bytes.NewReader(body))
	if err != nil {
		return txnReply{}, err
	}
	defer resp.Body.Close()
	var out txnReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("POST /txn: %s: %s", resp.Status, out.Error)
	}
	return out, nil
}

// step is one round of connection 1: POST four statements, wait for
// the event that makes them visible, read at that epoch. Visibility is
// timed from just before the request is written to the subscriber's
// receipt of the event.
func (w *serve) step() (int, time.Duration, error) {
	if w.feed == nil {
		if err := w.connect(); err != nil {
			return 0, 0, err
		}
	}
	id := w.tr.start(layerBench, "generate")
	ops := w.gen.request()
	stmts := make([]string, len(ops))
	wantRolledBack := 0
	for i, op := range ops {
		stmts[i] = op.sql
		if op.rollback {
			wantRolledBack++
		}
	}
	w.tr.end(id)
	w.attempted += len(ops) + 1
	w.requests++

	id = w.tr.start(layerHTTP, "POST /txn")
	t0 := time.Now()
	reply, err := w.post(stmts)
	posted := time.Since(t0)
	w.tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	if reply.Applied != len(ops) || reply.RolledBack != wantRolledBack {
		w.fail("POST /txn applied %d, rolled back %d; the model says %d and %d",
			reply.Applied, reply.RolledBack, len(ops), wantRolledBack)
	}
	if reply.LSN <= w.lastLSN {
		w.fail("POST /txn acknowledged LSN %d after %d", reply.LSN, w.lastLSN)
	}
	w.lastLSN = reply.LSN

	last := ops[len(ops)-1]
	id = w.tr.start(layerServer, "await SSE event")
	ev, _, err := awaitEvent(w.feed.events, corpDept(last.dept), last.total, 10*time.Second)
	w.tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	visible := ev.at.Sub(t0)

	id = w.tr.start(layerHTTP, "GET /view")
	t1 := time.Now()
	scan := w.requests%16 == 0
	if scan {
		w.checkScan(ev.Seq)
	} else {
		w.checkPoint(ev.Seq, last)
	}
	read := time.Since(t1)
	w.tr.end(id)

	if w.tr != nil {
		w.rolledBack += reply.RolledBack
		w.postMs = append(w.postMs, ms(posted))
		if scan {
			w.scanMs = append(w.scanMs, ms(read))
		} else {
			w.pointMs = append(w.pointMs, ms(read))
		}
		if d := w.sv.Hub.Stats().QueueDepth; d > w.queueMax {
			w.queueMax = d
		}
	}
	return len(ops) - reply.RolledBack, visible, nil
}

// checkPoint reads the row the request's last statement wrote, pinned
// to the epoch its event announced.
func (w *serve) checkPoint(epoch uint64, last corpOp) {
	key := fmt.Sprintf(`["%s",%d]`, corpDept(last.dept), last.total)
	var v viewReply
	if err := w.get(fmt.Sprintf("/view/SumOfSals?epoch=%d&key=%s", epoch, url.QueryEscape(key)), &v); err != nil {
		w.fail("point read: %v", err)
		return
	}
	if v.Epoch != epoch || v.Total != 1 {
		w.fail("point read of %s at epoch %d found %d rows at epoch %d", key, epoch, v.Total, v.Epoch)
	}
}

// checkScan reads the first hundred rows at the pinned epoch and
// compares them with the model, which stands exactly at that epoch.
func (w *serve) checkScan(epoch uint64) {
	var v viewReply
	if err := w.get(fmt.Sprintf("/view/SumOfSals?epoch=%d&limit=100", epoch), &v); err != nil {
		w.fail("scan: %v", err)
		return
	}
	if len(v.Rows) != 100 {
		w.fail("scan at epoch %d returned %d rows, want 100", epoch, len(v.Rows))
		return
	}
	for d, r := range v.Rows {
		if r.Tuple.Dept != corpDept(d) || r.Tuple.Total != w.gen.sum[d] {
			w.fail("scan at epoch %d: row %d is %v, the model says %s %d", epoch, d, r.Tuple, corpDept(d), w.gen.sum[d])
			return
		}
	}
}

func (w *serve) begin() {
	w.t0 = time.Now()
	w.io, w.windows, w.rolledBack, w.queueMax = ioSplit{}, 0, 0, 0
	w.postMs, w.pointMs, w.scanMs = nil, nil, nil
}

func (w *serve) halfway() error { return nil }

// finish compares the final served view with the subscriber's folded
// image and with the model, then stops serving and runs the oracle and
// recovery checks on the quiescent system.
func (w *serve) finish() {
	w.attempted++
	final, err := w.readImage()
	if err != nil {
		w.fail("final read: %v", err)
	}
	w.stopServing()
	if err == nil && w.feed != nil {
		if !maps.Equal(final, w.feed.image) {
			w.fail("epoch-0 snapshot folded with every SSE event differs from the final GET /view/SumOfSals")
		}
		model := make(map[string]int64, corpDepts)
		for d, s := range w.gen.sum {
			model[corpDept(d)] = s
		}
		if !maps.Equal(final, model) {
			w.fail("final GET /view/SumOfSals differs from the generator's model")
		}
	}
	w.checkDrift()
	w.checkRecovery([]string{"SumOfSals"})
}

// stopServing ends both connections, the HTTP server and the hub, and
// waits for their goroutines.
func (w *serve) stopServing() {
	if w.hs == nil {
		return
	}
	if w.feed != nil {
		w.feed.stop()
	}
	w.hs.Close()
	<-w.served
	w.hs = nil
	w.writer.CloseIdleConnections()
	if w.sub != nil {
		w.sub.Close()
		<-w.subDone
	}
	if err := w.sv.Close(); err != nil {
		w.fail("close serving: %v", err)
	}
}

func (w *serve) close() {
	w.stopServing()
	w.closeWAL()
}

func (w *serve) layers(l *layerReport) {
	l.windows = w.windows
	l.io = w.io
	l.rolledBack = w.rolledBack
	l.postMs, l.pointMs, l.scanMs = w.postMs, w.pointMs, w.scanMs
	l.queueMax = w.queueMax
	if w.feed == nil {
		return
	}
	for seq, at := range w.inprocAt {
		if at.Before(w.t0) {
			continue
		}
		if hooked, ok := w.hookReturn[w.windowOf[seq]]; ok {
			l.publishLagMs = append(l.publishLagMs, ms(at.Sub(hooked)))
		}
		if tcp, ok := w.feed.tcpAt[seq]; ok {
			l.sseDeliveryMs = append(l.sseDeliveryMs, ms(tcp.Sub(at)))
		}
	}
}
