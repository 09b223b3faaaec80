package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/storage"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64 // length of the timed section
	ops     int     // when > 0, time exactly this many operations instead (repeatable counts)
	trace   bool    // record the benchmark's own spans and report the per-layer metrics
	quick   bool    // smoke run: one set-up, short warm-up; results are stamped and not comparable
	dir     string  // scratch directory for WAL and feed files
}

// workload is one closed loop over a freshly built system. The calls
// come in this order: step (warm-up), begin, step (timed; halfway once
// in the middle), finish, layers, close.
type workload interface {
	// step runs one operation — a window, a statement, a request — and
	// returns the transactions it committed and how long they took to
	// become visible to a reader.
	step() (committed int, visible time.Duration, err error)
	// begin marks the start of the timed section.
	begin()
	halfway() error
	// finish runs the post-run correctness checks.
	finish()
	// layers hands over what only the workload counted (traced runs).
	layers(*layerReport)
	close()
	base() *engine
}

func (e *engine) base() *engine { return e }

type setupFunc func(cfg config, tr *tracer, dir string) (workload, error)

// workloadDef names a workload and sizes its untimed warm-up, which
// lets plans compile, slabs grow and connections open.
type workloadDef struct {
	name   string
	warmup int // operations
	setup  setupFunc
}

var workloadDefs = []workloadDef{
	{"fig5-batch64", 100, setupFig5(false)},
	{"fig5-batch64-wal", 100, setupFig5(true)},
	{"corp-sql-txn1", 2000, setupCorpSQL},
	{"corp-serve-tcp", 200, setupServe},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// sample is one reported metric.
type sample struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"` // measurements behind the value
}

// result is one run of one workload.
type result struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Traced       bool              `json:"traced"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Failures     []string          `json:"failures,omitempty"`
	Operations   int               `json:"operations"`
	Transactions int               `json:"transactions"`
	TimedSeconds float64           `json:"timed_seconds"`
	Metrics      map[string]sample `json:"metrics"`
	Ledger       []ledgerRow       `json:"ledger,omitempty"`

	spans []span
}

func (r *result) set(name string, value float64, n int) {
	r.Metrics[name] = sample{Value: value, Unit: unitOf(name), Samples: n}
}

// layerReport is what a traced workload counted itself; the rest of
// the per-layer metrics come from the span ledger and the store.
type layerReport struct {
	windows           int // calls into the maintenance pipeline
	io                ioSplit
	unitsIn, unitsOut int64 // signed delta rows before and after coalescing
	rolledBack        int
	rollbackExtraNs   float64 // median ExecuteTxn time, rolled back minus committed
	rollbackTimed     int     // rolled-back transactions behind that median

	postMs, pointMs, scanMs     []float64
	publishLagMs, sseDeliveryMs []float64
	queueMax                    int
}

// setupsPerRun is how many times a run builds its system; setup_s is
// the median, and the last one built is the one measured.
const setupsPerRun = 5

// measure runs one workload once.
func measure(def workloadDef, cfg config) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	setups, warmup := setupsPerRun, def.warmup
	if cfg.quick {
		setups, warmup = 1, warmup/8
	}
	var (
		w       workload
		setupS  []float64
		scratch string
	)
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
			os.RemoveAll(scratch)
		}
		scratch = filepath.Join(cfg.dir, fmt.Sprintf("%s-%d", def.name, i))
		if err := os.RemoveAll(scratch); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if w, err = def.setup(cfg, tr, scratch); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(scratch)
	defer w.close()
	e := w.base()

	for i := 0; i < warmup; i++ {
		if _, _, err := w.step(); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", def.name, err)
		}
	}

	// The latency buffer is sized up front so that how fast the run
	// goes does not change the heap it is measured with.
	visibleMs := make([]float64, 0, 1<<17)
	runtime.GC()
	var wal0 walCounts
	if e.cfs != nil {
		wal0 = e.cfs.snapshot()
	}
	io0 := e.db.Store.IO.Snapshot()
	mark := tr.mark()
	w.begin()
	start := time.Now()
	length := time.Duration(cfg.seconds * float64(time.Second))
	slices := newRateSlices(start)
	ops, txns, halfDone := 0, 0, false
	progress := func() float64 { // share of the timed section done
		if cfg.ops > 0 {
			return float64(ops) / float64(cfg.ops)
		}
		return float64(time.Since(start)) / float64(length)
	}
	for done := progress(); done < 1; done = progress() {
		if !halfDone && done >= 0.5 {
			halfDone = true
			if err := w.halfway(); err != nil {
				return nil, fmt.Errorf("%s: half-way: %w", def.name, err)
			}
		}
		tr.nextOp()
		id := tr.start(layerBench, "operation")
		n, visible, err := w.step()
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: operation %d: %w", def.name, ops, err)
		}
		ops++
		txns += n
		if n > 0 {
			visibleMs = append(visibleMs, ms(visible))
		}
		slices.add(time.Now(), n)
	}
	end := time.Now()
	elapsed := end.Sub(start)
	io := e.db.Store.IO.Snapshot().Sub(io0)
	spans := tr.since(mark)

	// Space held: live heap after a forced collection, with the system
	// still standing (relations, slabs, view set, hub epoch ring).
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	rowsHeld := e.viewRowsHeld()

	var fsyncsUs []float64
	var walDelta walCounts
	if e.cfs != nil {
		now := e.cfs.snapshot()
		walDelta = walCounts{bytes: now.bytes - wal0.bytes, fsyncs: now.fsyncs - wal0.fsyncs}
		fsyncsUs = e.cfs.fsyncsSince(wal0.fsyncs)
	}
	w.finish()
	var lr layerReport
	if cfg.trace {
		w.layers(&lr) // after finish: serving has stopped, so nothing else touches the samples
	}

	r := &result{
		Workload: def.name, Seed: cfg.seed, Traced: cfg.trace,
		Attempted: e.attempted, Failed: e.failed, Failures: e.notes,
		Operations: ops, Transactions: txns, TimedSeconds: elapsed.Seconds(),
		Metrics: map[string]sample{}, spans: spans,
	}
	if txns == 0 {
		r.Failed++
		r.Failures = append(r.Failures, "no transaction committed in the timed section")
		txns = 1
	}
	r.Correct = r.Failed == 0
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	ftx := float64(txns)

	if !cfg.trace {
		r.set("setup_s", median(setupS), len(setupS))
		r.set("txns_per_s", slices.median(end), len(slices.rates))
		r.set("page_io_per_txn", float64(io.Total())/ftx, txns)
		r.set("live_heap_mb", float64(mem.HeapAlloc)/(1<<20), 1)
		r.set("commit_visible_p50_ms", percentile(visibleMs, 0.50), len(visibleMs))
		r.set("commit_visible_p95_ms", percentile(visibleMs, 0.95), len(visibleMs))
		return r, nil
	}

	rows, total := ledger(spans)
	r.Ledger = rows
	self := layerSelf(rows)
	calls := func(layer, name string) (n int, selfNs int64) {
		for _, row := range rows {
			if row.Layer == layer && row.Name == name {
				return row.Calls, row.SelfNs
			}
		}
		return 0, 0
	}
	per := func(total int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	for _, m := range perLayer {
		r.set(m.name, 0, 0)
	}
	r.set("core.build_ms", e.buildMs, 1)
	r.set("core.viewsets_explored", float64(e.explored), 1)
	parses, parseNs := calls(layerSQLParser, "TxnFromSQL")
	r.set("sqlparser.ns_per_stmt", per(parseNs, parses), parses)
	r.set("delta.coalesce_ns_per_txn", float64(self[layerDelta])/ftx, txns)
	if lr.unitsIn > 0 {
		r.set("delta.annihilated_share", 1-float64(lr.unitsOut)/float64(lr.unitsIn), int(lr.unitsIn))
	}
	r.set("maintain.self_ns_per_txn", float64(self[layerMaintain])/ftx, txns)
	r.set("maintain.query_io_per_txn", float64(lr.io.query)/ftx, txns)
	r.set("maintain.view_io_per_txn", float64(lr.io.view)/ftx, txns)
	r.set("maintain.root_io_per_txn", float64(lr.io.root)/ftx, txns)
	r.set("maintain.base_io_per_txn", float64(lr.io.base)/ftx, txns)
	r.set("maintain.view_rows_held", float64(rowsHeld), 1)
	setIO(r, io, txns)
	r.set("ic.rolled_back", float64(lr.rolledBack), lr.rolledBack)
	r.set("ic.rollback_extra_ns", lr.rollbackExtraNs, lr.rollbackTimed)
	if e.cfs != nil {
		commits, _ := calls(layerWAL, spanCommit)
		fences, _ := calls(layerWAL, spanFenceWait)
		_, ckptNs := calls(layerWAL, "Checkpoint")
		r.set("wal.commit_wait_ns_per_window", per(self[layerWAL]-ckptNs, commits+fences), commits+fences)
		r.set("wal.bytes_per_txn", float64(walDelta.bytes)/ftx, txns)
		r.set("wal.fsyncs_per_window", per(int64(walDelta.fsyncs), lr.windows), lr.windows)
		r.set("wal.fsync_p50_us", median(fsyncsUs), len(fsyncsUs))
		if e.checkpointMs > 0 {
			r.set("wal.checkpoint_ms", e.checkpointMs, 1)
		}
		r.set("wal.recovery_s", e.recoveryS, 1)
	}
	hooks, hookNs := calls(layerServer, "window hook (clone)")
	r.set("server.hook_clone_ns_per_window", per(hookNs, hooks), hooks)
	r.set("server.post_txn_p50_ms", median(lr.postMs), len(lr.postMs))
	r.set("server.publish_lag_p50_ms", median(lr.publishLagMs), len(lr.publishLagMs))
	r.set("server.sse_delivery_p50_ms", median(lr.sseDeliveryMs), len(lr.sseDeliveryMs))
	r.set("server.read_point_p50_ms", median(lr.pointMs), len(lr.pointMs))
	r.set("server.read_scan_p50_ms", median(lr.scanMs), len(lr.scanMs))
	r.set("server.queue_depth_max", float64(lr.queueMax), len(lr.postMs))
	if len(lr.postMs) > 0 {
		r.set("server.commit_visible_p99_ms", percentile(visibleMs, 0.99), len(visibleMs))
	}
	r.set("trace.txns_per_s", slices.median(end), len(slices.rates))
	r.set("trace.ledger_coverage", float64(total)/float64(elapsed.Nanoseconds()), len(spans))
	if c := r.Metrics["trace.ledger_coverage"].Value; c < 0.9 || c > 1.1 {
		r.Failed++
		r.Correct = false
		r.Failures = append(r.Failures, fmt.Sprintf("span ledger covers %.3f of the wall clock", c))
	}
	return r, nil
}

func setIO(r *result, io storage.IOCounter, txns int) {
	f := float64(txns)
	r.set("storage.index_reads_per_txn", float64(io.IndexReads)/f, txns)
	r.set("storage.index_writes_per_txn", float64(io.IndexWrites)/f, txns)
	r.set("storage.page_reads_per_txn", float64(io.PageReads)/f, txns)
	r.set("storage.page_writes_per_txn", float64(io.PageWrites)/f, txns)
}
