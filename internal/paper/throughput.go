// Throughput harness: the measured transactions-per-second story for
// the batched maintenance pipeline, on the Figure 5 sales schema under
// a skewed update stream (hot-item price changes dominated by a small
// item set, with a trickle of new sales). Batching pays twice here:
// repeated modifications of the same hot tuple annihilate within a
// window before any propagation, and the track-prefix queries are posed
// once per window instead of once per transaction.
package paper

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// BenchSchemaVersion stamps BENCH_maintain.json rows so the bench
// trajectory stays machine-comparable across PRs: bump it whenever the
// row layout or the meaning of a measured column changes.
//
//	1: batch/workers/txns/txns_per_sec/page_io_per_txn
//	2: + apply_p50_ns/apply_p99_ns (maintain.apply.ns histogram window)
//	3: + optional durable/fsync_p99_ns/recovery_replay_txns_sec rows
//	     (write-ahead-logged runs; absent on in-memory rows)
//	4: + shards/cpus columns on sharded-pipeline rows (shards >= 1 ran
//	     through maintain.Sharded; absent/0 means the unsharded pipeline)
//	5: + allocs_per_txn/bytes_per_txn (heap allocation inside the timed
//	     window only — runtime.MemStats deltas around the measured run,
//	     excluding harness setup and oracle verification)
//	6: + gc_pause_p99_ns (GC stop-the-world pause tail inside the timed
//	     window, from the runtime.gc.pause.ns histogram) and
//	     obs_overhead_pct (throughput cost of the always-on tracer +
//	     flight recorder, measured by toggling both off; only on rows
//	     produced by MeasureObsOverhead)
//	7: + gc_cycles_per_10k_txns (completed GC cycles inside the timed
//	     window, normalized per 10k transactions — the cross-window
//	     recycling story measured where it lives) and the n=8192
//	     long-stream steady-state row
//	8: + client-swarm serving rows (MeasureServing): read_p99_ns
//	     (client-side snapshot-read latency tail), read_clients and
//	     sse_clients (swarm composition), no_reader_txns_per_sec (the
//	     same paced writer measured without readers — the denominator
//	     of the serving-overhead gate)
const BenchSchemaVersion = 8

// Throughput is a maintained Figure 5 system plus a deterministic
// hot-item workload generator. The generator never consults database
// state, so the same stream can be replayed per-transaction or in
// windows and must land on identical view contents.
type Throughput struct {
	db *corpus.Database
	m  *maintain.Maintainer
	d  *dag.DAG

	hot   []string         // hot item names (all T modifications hit these)
	price map[string]int64 // locally tracked current T.Price per item
	seq   int

	typeModT *txn.Type
	typeInsS *txn.Type

	// Reusable window machinery for the batched path: the transaction
	// slice and one generator slot per position, each owning its deltas,
	// update maps and tuple backing arrays. A slot's memory is rewritten
	// in place the next time its position recurs, which is safe under the
	// pipeline's ownership contract: transaction deltas (like the window
	// report) are dead once the next ApplyBatch begins, and everything
	// stored longer — relation state, WAL records — is cloned or encoded
	// before then.
	wbuf  []txn.Transaction
	slots []txnSlot
	idbuf []byte // sale-id scratch
}

// txnSlot is one reusable transaction generator position.
type txnSlot struct {
	dT, dS     *delta.Delta
	updT, updS map[string]*delta.Delta
	oldT, newT value.Tuple // hot-item modify tuples (2 cols)
	sT         value.Tuple // sale insert tuple (3 cols)
}

// NewThroughput builds the Figure 5 database, expands its DAG, marks
// every non-leaf equivalence node as materialized (root view plus all
// intermediate join/aggregate views, so the worker pool has independent
// views to fan out over) and returns a ready harness. workers bounds
// ApplyBatch's view-application goroutines.
func NewThroughput(cfg corpus.Figure5Config, workers int) (*Throughput, error) {
	db := corpus.Figure5Database(cfg)
	d, err := dag.FromTree(db.Figure5View(0))
	if err != nil {
		return nil, err
	}
	if _, err := d.Expand(rules.Default(), 400); err != nil {
		return nil, err
	}
	vs := tracks.RootSet(d)
	for _, e := range d.NonLeafEqs() {
		vs[e.ID] = true
	}
	m, err := maintain.New(d, db.Store, cost.PageIO{}, vs)
	if err != nil {
		return nil, err
	}
	m.Workers = workers

	hotN := 8
	if hotN > cfg.Items {
		hotN = cfg.Items
	}
	th := &Throughput{
		db:    db,
		m:     m,
		d:     d,
		price: map[string]int64{},
		typeModT: &txn.Type{Name: ">T", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "T", Kind: txn.Modify, Size: 1, Cols: []string{"Price"}}}},
		typeInsS: &txn.Type{Name: "+S", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "S", Kind: txn.Insert, Size: 1}}},
	}
	for i := 0; i < hotN; i++ {
		item := fmt.Sprintf("item%03d", i)
		th.hot = append(th.hot, item)
		th.price[item] = int64(10 + i%7) // matches Figure5Database seeding
	}
	return th, nil
}

// nextTxn deterministically draws the next transaction: 80% hot-item
// price modifications, 20% new-sale inserts.
func (th *Throughput) nextTxn() txn.Transaction {
	seq := th.seq
	th.seq++
	if seq%5 == 4 { // new sale
		sDef := th.db.Catalog.MustGet("S")
		item := th.hot[(seq*3)%len(th.hot)]
		d := delta.New(sDef.Schema)
		d.Insert(value.Tuple{
			value.NewString(fmt.Sprintf("sx%06d", seq)),
			value.NewString(item),
			value.NewInt(int64(1 + seq%5)),
		}, 1)
		return txn.Transaction{Type: th.typeInsS, Updates: map[string]*delta.Delta{"S": d}}
	}
	// Hot-item price change.
	tDef := th.db.Catalog.MustGet("T")
	item := th.hot[seq%len(th.hot)]
	old := th.price[item]
	next := int64(10 + (seq*7+3)%97)
	if next == old {
		next++
	}
	th.price[item] = next
	d := delta.New(tDef.Schema)
	d.Modify(
		value.Tuple{value.NewString(item), value.NewInt(old)},
		value.Tuple{value.NewString(item), value.NewInt(next)},
		1)
	return txn.Transaction{Type: th.typeModT, Updates: map[string]*delta.Delta{"T": d}}
}

// fillTxn writes the next transaction of the same deterministic stream
// into slot i of the reused window. It allocates only on a position's
// first use — plus the one string per new sale id that the stored
// relation genuinely retains — so the batched measurement loop adds no
// generator garbage to the timed window.
func (th *Throughput) fillTxn(t *txn.Transaction, i int) {
	seq := th.seq
	th.seq++
	s := &th.slots[i]
	if seq%5 == 4 { // new sale
		if s.dS == nil {
			s.dS = delta.New(th.db.Catalog.MustGet("S").Schema)
			s.updS = map[string]*delta.Delta{"S": s.dS}
			s.sT = make(value.Tuple, 3)
		}
		item := th.hot[(seq*3)%len(th.hot)]
		s.sT[0] = value.NewString(string(appendSaleID(th.idbuf[:0], seq)))
		s.sT[1] = value.NewString(item)
		s.sT[2] = value.NewInt(int64(1 + seq%5))
		s.dS.Changes = s.dS.Changes[:0]
		s.dS.Insert(s.sT, 1)
		t.Type, t.Updates = th.typeInsS, s.updS
		return
	}
	if s.dT == nil {
		s.dT = delta.New(th.db.Catalog.MustGet("T").Schema)
		s.updT = map[string]*delta.Delta{"T": s.dT}
		s.oldT = make(value.Tuple, 2)
		s.newT = make(value.Tuple, 2)
	}
	item := th.hot[seq%len(th.hot)]
	old := th.price[item]
	next := int64(10 + (seq*7+3)%97)
	if next == old {
		next++
	}
	th.price[item] = next
	s.oldT[0], s.oldT[1] = value.NewString(item), value.NewInt(old)
	s.newT[0], s.newT[1] = value.NewString(item), value.NewInt(next)
	s.dT.Changes = s.dT.Changes[:0]
	s.dT.Modify(s.oldT, s.newT, 1)
	t.Type, t.Updates = th.typeModT, s.updT
}

// appendSaleID renders the "sx%06d" sale id without fmt.
func appendSaleID(b []byte, seq int) []byte {
	b = append(b, "sx"...)
	var tmp [20]byte
	digits := strconv.AppendInt(tmp[:0], int64(seq), 10)
	for pad := 6 - len(digits); pad > 0; pad-- {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// Run executes n transactions of the workload in windows of size batch
// (batch <= 1 is per-transaction Apply, a window of one — the baseline
// the pipeline is measured against) and returns the page I/Os charged.
func (th *Throughput) Run(n, batch int) (storage.IOCounter, error) {
	io0 := th.db.Store.IO.Snapshot()
	if batch <= 1 {
		for i := 0; i < n; i++ {
			t := th.nextTxn()
			if _, err := th.m.Apply(t.Type, t.Updates); err != nil {
				return storage.IOCounter{}, err
			}
		}
		return th.db.Store.IO.Snapshot().Sub(io0), nil
	}
	for done := 0; done < n; {
		size := batch
		if n-done < size {
			size = n - done
		}
		if cap(th.wbuf) < size {
			th.wbuf = make([]txn.Transaction, size)
			th.slots = make([]txnSlot, size)
		}
		window := th.wbuf[:size]
		for i := range window {
			th.fillTxn(&window[i], i)
		}
		if _, err := th.m.ApplyBatch(window); err != nil {
			return storage.IOCounter{}, err
		}
		done += size
	}
	return th.db.Store.IO.Snapshot().Sub(io0), nil
}

// Drift verifies every materialized view against full recomputation,
// returning a description of the first mismatch ("" when consistent).
func (th *Throughput) Drift() (string, error) {
	for _, e := range th.d.NonLeafEqs() {
		drift, err := th.m.Drift(e)
		if err != nil {
			return "", err
		}
		if drift != "" {
			return fmt.Sprintf("node %s: %s", e, drift), nil
		}
	}
	return "", nil
}

// ThroughputRow is one (batch size, workers) measurement.
type ThroughputRow struct {
	SchemaVersion int     `json:"schema_version"`
	Batch         int     `json:"batch"`
	Workers       int     `json:"workers"`
	Txns          int     `json:"txns"`
	TxnsPerSec    float64 `json:"txns_per_sec"`
	IOPerTxn      float64 `json:"page_io_per_txn"`
	// Apply-latency quantiles (nanoseconds per Apply/ApplyBatch call)
	// from the maintain.apply.ns histogram, restricted to this run's
	// window. Power-of-two bucket resolution.
	ApplyP50Ns uint64 `json:"apply_p50_ns"`
	ApplyP99Ns uint64 `json:"apply_p99_ns"`

	// Heap allocation charged to the timed window (schema v5): mallocs
	// and bytes per transaction from runtime.MemStats deltas taken
	// immediately around the measured run. Setup, statistics and the
	// post-run oracle verification are excluded; for durable and sharded
	// rows the committer/shard goroutines running inside the window are
	// included.
	AllocsPerTxn float64 `json:"allocs_per_txn"`
	BytesPerTxn  float64 `json:"bytes_per_txn"`

	// GCPauseP99Ns (schema v6) is the stop-the-world pause tail the
	// collector imposed inside the timed window, from the
	// runtime.gc.pause.ns histogram delta. 0 when no cycle completed
	// during the window.
	GCPauseP99Ns uint64 `json:"gc_pause_p99_ns,omitempty"`
	// GCCyclesPer10kTxns (schema v7) is the number of completed GC
	// cycles inside the timed window per 10k transactions
	// (runtime.MemStats.NumGC delta). With cross-window recycling the
	// steady-state figure should approach zero; a regression here means
	// some per-window buffer went back to the heap.
	GCCyclesPer10kTxns float64 `json:"gc_cycles_per_10k_txns"`
	// ObsOverheadPct (schema v6) is the throughput cost of the always-on
	// instrumentation: 100*(off-on)/off where "off" disables the span
	// tracer and flight recorder. Only set on rows produced by
	// MeasureObsOverhead; negative values are measurement noise.
	ObsOverheadPct float64 `json:"obs_overhead_pct,omitempty"`

	// Durable rows ran with a write-ahead log attached (one fsync per
	// window); the extra columns report the commit-latency tail and the
	// log-replay rate of recovering the run's own tail.
	Durable               bool    `json:"durable,omitempty"`
	FsyncP99Ns            uint64  `json:"fsync_p99_ns,omitempty"`
	RecoveryReplayTxnsSec float64 `json:"recovery_replay_txns_sec,omitempty"`
	// MemBaselineTxnsPerSec (schema v5) is an in-memory run of the same
	// workload measured in the same process immediately before the
	// durable run, at the same n — the denominator of the durability
	// overhead. The in-memory grid rows can't serve as that baseline:
	// the durable row uses a longer stream (steady state for the
	// deferred commit chain), and the workload is non-stationary, so
	// only a same-n run is comparable.
	MemBaselineTxnsPerSec float64 `json:"mem_baseline_txns_per_sec,omitempty"`

	// Sharded rows ran through the maintain.Sharded pipeline at this
	// shard count (0 = unsharded pipeline; 1 = sharded path with one
	// shard, the sharding-overhead baseline). CPUs records the machine
	// the scaling was measured on — scaling claims are meaningless
	// without it.
	Shards int `json:"shards,omitempty"`
	CPUs   int `json:"cpus,omitempty"`

	// Client-swarm serving rows (schema v8, MeasureServing): the paced
	// writer ran while ReadClients pollers and SSEClients changefeed
	// subscribers consumed the same cores. ReadP99Ns is the client-side
	// snapshot-read latency tail over the in-memory transport;
	// NoReaderTxnsPerSec is the identical paced writer measured alone —
	// TxnsPerSec/NoReaderTxnsPerSec is the serving overhead the swarm
	// gate bounds.
	ReadP99Ns          uint64  `json:"read_p99_ns,omitempty"`
	ReadClients        int     `json:"read_clients,omitempty"`
	SSEClients         int     `json:"sse_clients,omitempty"`
	NoReaderTxnsPerSec float64 `json:"no_reader_txns_per_sec,omitempty"`
}

// MeasureThroughput runs n transactions for one (batch, workers)
// configuration on a fresh system, self-timed, and verifies the final
// views against the oracle.
func MeasureThroughput(cfg corpus.Figure5Config, n, batch, workers int) (ThroughputRow, error) {
	th, err := NewThroughput(cfg, workers)
	if err != nil {
		return ThroughputRow{}, err
	}
	applyHist := obs.H("maintain.apply.ns")
	gcHist := obs.H("runtime.gc.pause.ns")
	// Setup (materialization, statistics) leaves a heap of garbage whose
	// collection would otherwise be charged to the timed window; quiesce
	// the collector so the measurement covers maintenance work only.
	runtime.GC()
	runtime.GC()    // second cycle finishes the first's deferred sweep so the timed window pays no sweep-assist debt for setup garbage
	obs.PollGCNow() // flush setup-era pauses out of the window
	before := applyHist.Snapshot()
	gcBefore := gcHist.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	io, err := th.Run(n, batch)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	obs.PollGCNow()
	if err != nil {
		return ThroughputRow{}, err
	}
	window := applyHist.Snapshot().Sub(before)
	gcWindow := gcHist.Snapshot().Sub(gcBefore)
	if drift, err := th.Drift(); err != nil {
		return ThroughputRow{}, err
	} else if drift != "" {
		return ThroughputRow{}, fmt.Errorf("throughput run drifted: %s", drift)
	}
	return ThroughputRow{
		SchemaVersion:      BenchSchemaVersion,
		Batch:              batch,
		Workers:            workers,
		Txns:               n,
		TxnsPerSec:         float64(n) / elapsed.Seconds(),
		IOPerTxn:           float64(io.Total()) / float64(n),
		ApplyP50Ns:         window.Quantile(0.50),
		ApplyP99Ns:         window.Quantile(0.99),
		AllocsPerTxn:       float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
		BytesPerTxn:        float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
		GCPauseP99Ns:       gcWindow.Quantile(0.99),
		GCCyclesPer10kTxns: float64(ms1.NumGC-ms0.NumGC) * 10000 / float64(n),
	}, nil
}

// MeasureObsOverhead prices the always-on instrumentation: it measures
// the same (batch, workers) configuration with the span tracer and
// flight recorder enabled and disabled — best of trials each, to damp
// scheduler noise on small machines — and reports the enabled row with
// ObsOverheadPct filled in. The registry's counters stay live in both
// runs (they are load-bearing: the harness itself reads them); the
// toggles collapse exactly the paths the ISSUE's 5% budget covers.
func MeasureObsOverhead(cfg corpus.Figure5Config, n, batch, workers, trials int) (ThroughputRow, error) {
	if trials < 1 {
		trials = 1
	}
	measure := func(enabled bool) (ThroughputRow, error) {
		obs.Trace.SetEnabled(enabled)
		obs.Flight().SetEnabled(enabled)
		return MeasureThroughput(cfg, n, batch, workers)
	}
	defer func() {
		obs.Trace.SetEnabled(true)
		obs.Flight().SetEnabled(true)
	}()
	var on, off ThroughputRow
	// Interleave off/on trials so drift (thermal, page cache, competing
	// load) hits both arms equally.
	for i := 0; i < trials; i++ {
		o, err := measure(false)
		if err != nil {
			return ThroughputRow{}, err
		}
		e, err := measure(true)
		if err != nil {
			return ThroughputRow{}, err
		}
		if o.TxnsPerSec > off.TxnsPerSec {
			off = o
		}
		if e.TxnsPerSec > on.TxnsPerSec {
			on = e
		}
	}
	on.ObsOverheadPct = 100 * (off.TxnsPerSec - on.TxnsPerSec) / off.TxnsPerSec
	return on, nil
}

// MeasureThroughputDurable is MeasureThroughput with a write-ahead log
// attached: every window group-commits with one fsync into dir (which
// must not already hold durable state). After the timed run the log is
// closed and recovered, measuring the replay rate; the row fails if any
// view fell back to recomputation — the checkpointed view set is
// current, so recovery must be purely incremental.
func MeasureThroughputDurable(cfg corpus.Figure5Config, n, batch, workers int, fsys wal.FS, dir string) (ThroughputRow, error) {
	// Same-run in-memory baseline: a fresh system pushing the identical
	// transaction stream with no log attached, measured first so both
	// runs see the same machine state. This — not the in-memory grid
	// rows, which may use a different n on a non-stationary workload —
	// is the denominator for the durability overhead.
	mem, err := MeasureThroughput(cfg, n, batch, workers)
	if err != nil {
		return ThroughputRow{}, err
	}
	th, err := NewThroughput(cfg, workers)
	if err != nil {
		return ThroughputRow{}, err
	}
	// DeferredFence: window k's fsync runs under window k+1's compute
	// (the ISSUE's cross-window pipelining). The explicit Sync inside
	// the timed region below keeps the measurement honest — the clock
	// stops only once all n transactions are durable.
	mgr, err := wal.Attach(th.m, th.db.Catalog, fsys, dir, wal.Options{DeferredFence: true})
	if err != nil {
		return ThroughputRow{}, err
	}
	applyHist := obs.H("maintain.apply.ns")
	fsyncHist := obs.H("wal.fsync.ns")
	gcHist := obs.H("runtime.gc.pause.ns")
	runtime.GC()
	runtime.GC() // second cycle finishes the first's deferred sweep so the timed window pays no sweep-assist debt for setup garbage
	obs.PollGCNow()
	applyBefore := applyHist.Snapshot()
	fsyncBefore := fsyncHist.Snapshot()
	gcBefore := gcHist.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	io, err := th.Run(n, batch)
	if err == nil {
		_, err = mgr.Sync() // drain the deferred commit chain before stopping the clock
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	obs.PollGCNow()
	if err != nil {
		return ThroughputRow{}, err
	}
	applyWindow := applyHist.Snapshot().Sub(applyBefore)
	fsyncWindow := fsyncHist.Snapshot().Sub(fsyncBefore)
	gcWindow := gcHist.Snapshot().Sub(gcBefore)
	if drift, err := th.Drift(); err != nil {
		return ThroughputRow{}, err
	} else if drift != "" {
		return ThroughputRow{}, fmt.Errorf("durable throughput run drifted: %s", drift)
	}
	if err := mgr.Close(); err != nil {
		return ThroughputRow{}, err
	}
	rs, err := MeasureRecovery(cfg, workers, fsys, dir, false)
	if err != nil {
		return ThroughputRow{}, err
	}
	if rs.Recomputed != 0 {
		return ThroughputRow{}, fmt.Errorf("recovery recomputed %d views; want 0 with a current view set", rs.Recomputed)
	}
	replayRate := 0.0
	if rs.Duration > 0 {
		replayRate = float64(rs.Txns) / rs.Duration.Seconds()
	}
	return ThroughputRow{
		SchemaVersion:         BenchSchemaVersion,
		Batch:                 batch,
		Workers:               workers,
		Txns:                  n,
		TxnsPerSec:            float64(n) / elapsed.Seconds(),
		IOPerTxn:              float64(io.Total()) / float64(n),
		ApplyP50Ns:            applyWindow.Quantile(0.50),
		ApplyP99Ns:            applyWindow.Quantile(0.99),
		AllocsPerTxn:          float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
		BytesPerTxn:           float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
		GCPauseP99Ns:          gcWindow.Quantile(0.99),
		GCCyclesPer10kTxns:    float64(ms1.NumGC-ms0.NumGC) * 10000 / float64(n),
		Durable:               true,
		FsyncP99Ns:            fsyncWindow.Quantile(0.99),
		RecoveryReplayTxnsSec: replayRate,
		MemBaselineTxnsPerSec: mem.TxnsPerSec,
	}, nil
}

// RecoveryStats describes one measured crash recovery.
type RecoveryStats struct {
	Windows    int           // log records replayed
	Txns       int           // transactions those windows coalesced
	Recomputed int           // views that fell back to recomputation
	Duration   time.Duration // checkpoint restore + replay, end to end
}

// MeasureRecovery recovers the durable state in dir into a fresh Figure 5
// system and times it. forceRecompute simulates a stale checkpoint whose
// view set no longer matches: every view misses the restore source and is
// recomputed from the restored base relations instead.
func MeasureRecovery(cfg corpus.Figure5Config, workers int, fsys wal.FS, dir string, forceRecompute bool) (RecoveryStats, error) {
	db := corpus.Figure5Database(cfg)
	start := time.Now()
	rec, err := wal.BeginRecovery(db.Catalog, db.Store, fsys, dir)
	if err != nil {
		return RecoveryStats{}, err
	}
	ro := rec.RestoreOptions()
	if forceRecompute {
		onRecompute := ro.OnRecompute
		ro.Source = func(string) (*maintain.ViewState, bool) { return nil, false }
		ro.OnRecompute = onRecompute
	}
	d, err := dag.FromTree(db.Figure5View(0))
	if err != nil {
		return RecoveryStats{}, err
	}
	if _, err := d.Expand(rules.Default(), 400); err != nil {
		return RecoveryStats{}, err
	}
	vs := tracks.RootSet(d)
	for _, e := range d.NonLeafEqs() {
		vs[e.ID] = true
	}
	m, err := maintain.NewRestored(d, db.Store, cost.PageIO{}, vs, ro)
	if err != nil {
		return RecoveryStats{}, err
	}
	m.Workers = workers
	mgr, err := rec.Resume(m, wal.Options{})
	if err != nil {
		return RecoveryStats{}, err
	}
	elapsed := time.Since(start)
	defer mgr.Close()
	return RecoveryStats{
		Windows:    mgr.ReplayedWindows,
		Txns:       mgr.ReplayedTxns,
		Recomputed: mgr.RecomputedViews,
		Duration:   elapsed,
	}, nil
}

// DurableThroughputTable measures the durable batch sweep next to the
// in-memory baseline at the same batch sizes, plus a recovery comparison
// line: incremental replay versus the forced recompute-everything
// fallback on the last run's log. Each batch size logs into its own
// subdirectory of baseDir, which must be empty.
func DurableThroughputTable(cfg corpus.Figure5Config, n int, batches []int, workers int, baseDir string) ([]ThroughputRow, string, error) {
	var rows []ThroughputRow
	var b strings.Builder
	b.WriteString("Durable maintenance throughput (WAL group commit, one fsync per window)\n")
	fmt.Fprintf(&b, "%-8s %-8s %14s %14s %14s %16s %10s\n",
		"batch", "workers", "txns/sec", "in-mem t/s", "fsyncP99(µs)", "replay txns/sec", "vs in-mem")
	var lastDir string
	for _, bs := range batches {
		mem, err := MeasureThroughput(cfg, n, bs, workers)
		if err != nil {
			return nil, "", err
		}
		dir := filepath.Join(baseDir, fmt.Sprintf("batch%d", bs))
		row, err := MeasureThroughputDurable(cfg, n, bs, workers, wal.OSFS{}, dir)
		if err != nil {
			return nil, "", err
		}
		lastDir = dir
		rows = append(rows, mem, row)
		fmt.Fprintf(&b, "%-8d %-8d %14.0f %14.0f %14.1f %16.0f %9.0f%%\n",
			row.Batch, row.Workers, row.TxnsPerSec, mem.TxnsPerSec,
			float64(row.FsyncP99Ns)/1e3, row.RecoveryReplayTxnsSec,
			100*row.TxnsPerSec/mem.TxnsPerSec)
	}
	if lastDir != "" {
		inc, err := MeasureRecovery(cfg, workers, wal.OSFS{}, lastDir, false)
		if err != nil {
			return nil, "", err
		}
		full, err := MeasureRecovery(cfg, workers, wal.OSFS{}, lastDir, true)
		if err != nil {
			return nil, "", err
		}
		ratio := 1.0
		if inc.Duration > 0 {
			ratio = float64(full.Duration) / float64(inc.Duration)
		}
		fmt.Fprintf(&b,
			"recovery of batch-%d log: incremental %.2fms (%d windows, %d txns, 0 recomputed) vs recompute-fallback %.2fms (%d views recomputed) — %.1fx\n",
			batches[len(batches)-1], float64(inc.Duration.Microseconds())/1e3, inc.Windows, inc.Txns,
			float64(full.Duration.Microseconds())/1e3, full.Recomputed, ratio)
	}
	return rows, b.String(), nil
}

// ThroughputSharded is the sharded twin of Throughput: the same
// deterministic hot-item workload pushed through a maintain.Sharded
// pipeline partitioned on Item (every Figure 5 join and the revenue
// aggregate key on Item, so all views are shard-local).
type ThroughputSharded struct {
	s   *maintain.Sharded
	gen *Throughput // workload generator only; its db/m are unused here

	shards int
}

// NewThroughputSharded builds the sharded Figure 5 harness. workers
// bounds each shard's view-application goroutines; the shard pipelines
// themselves always run concurrently.
func NewThroughputSharded(cfg corpus.Figure5Config, shards, workers int) (*ThroughputSharded, error) {
	factory := func() (*maintain.ShardSetup, error) {
		db := corpus.Figure5Database(cfg)
		d, err := dag.FromTree(db.Figure5View(0))
		if err != nil {
			return nil, err
		}
		if _, err := d.Expand(rules.Default(), 400); err != nil {
			return nil, err
		}
		return &maintain.ShardSetup{D: d, Cat: db.Catalog, Store: db.Store}, nil
	}
	setup, err := factory()
	if err != nil {
		return nil, err
	}
	vs := tracks.RootSet(setup.D)
	for _, e := range setup.D.NonLeafEqs() {
		vs[e.ID] = true
	}
	s, err := maintain.NewSharded(factory, maintain.ShardedConfig{
		Shards:      shards,
		PartitionBy: "Item",
		VS:          vs,
		Workers:     workers,
	})
	if err != nil {
		return nil, err
	}
	if s.NumShards() != shards {
		return nil, fmt.Errorf("paper: %s", s.Part.Describe())
	}
	gen, err := NewThroughput(cfg, 1)
	if err != nil {
		return nil, err
	}
	return &ThroughputSharded{s: s, gen: gen, shards: shards}, nil
}

// Run executes n transactions in windows of size batch through the
// sharded pipeline and returns the page I/Os charged across all shards.
func (ts *ThroughputSharded) Run(n, batch int) (storage.IOCounter, error) {
	if batch < 1 {
		batch = 1
	}
	io0 := ts.s.IO()
	for done := 0; done < n; {
		size := batch
		if n-done < size {
			size = n - done
		}
		window := make([]txn.Transaction, size)
		for i := range window {
			window[i] = ts.gen.nextTxn()
		}
		if _, err := ts.s.ApplyBatch(window); err != nil {
			return storage.IOCounter{}, err
		}
		done += size
	}
	return ts.s.IO().Sub(io0), nil
}

// Drift verifies every materialized view of the sharded system against
// recomputation over the union of the shard bases.
func (ts *ThroughputSharded) Drift() (string, error) {
	for _, e := range ts.s.D.NonLeafEqs() {
		drift, err := ts.s.Drift(e)
		if err != nil {
			return "", err
		}
		if drift != "" {
			return fmt.Sprintf("node %s: %s", e, drift), nil
		}
	}
	return "", nil
}

// MeasureThroughputSharded runs n transactions at one (batch, shards)
// configuration through the sharded pipeline, self-timed and verified
// against the recompute oracle.
func MeasureThroughputSharded(cfg corpus.Figure5Config, n, batch, shards, workers int) (ThroughputRow, error) {
	ts, err := NewThroughputSharded(cfg, shards, workers)
	if err != nil {
		return ThroughputRow{}, err
	}
	gcHist := obs.H("runtime.gc.pause.ns")
	runtime.GC()
	runtime.GC() // second cycle finishes the first's deferred sweep so the timed window pays no sweep-assist debt for setup garbage
	obs.PollGCNow()
	gcBefore := gcHist.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	io, err := ts.Run(n, batch)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	obs.PollGCNow()
	if err != nil {
		return ThroughputRow{}, err
	}
	gcWindow := gcHist.Snapshot().Sub(gcBefore)
	if drift, err := ts.Drift(); err != nil {
		return ThroughputRow{}, err
	} else if drift != "" {
		return ThroughputRow{}, fmt.Errorf("sharded throughput run drifted: %s", drift)
	}
	return ThroughputRow{
		SchemaVersion:      BenchSchemaVersion,
		Batch:              batch,
		Workers:            workers,
		Txns:               n,
		TxnsPerSec:         float64(n) / elapsed.Seconds(),
		IOPerTxn:           float64(io.Total()) / float64(n),
		AllocsPerTxn:       float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
		BytesPerTxn:        float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
		GCPauseP99Ns:       gcWindow.Quantile(0.99),
		GCCyclesPer10kTxns: float64(ms1.NumGC-ms0.NumGC) * 10000 / float64(n),
		Shards:             shards,
		CPUs:               runtime.NumCPU(),
	}, nil
}

// ShardedThroughputTable measures the shard-count sweep at one batch
// size and renders the scaling table (speedup relative to the one-shard
// sharded pipeline, which carries the routing/merge overhead but no
// parallelism). The CPU count is printed because scaling beyond it is
// not measurable.
func ShardedThroughputTable(cfg corpus.Figure5Config, n, batch, workers int, shardCounts []int) ([]ThroughputRow, string, error) {
	var rows []ThroughputRow
	var base float64
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded maintenance throughput (batch %d, %d CPUs)\n", batch, runtime.NumCPU())
	fmt.Fprintf(&b, "%-8s %-8s %14s %14s %10s\n", "shards", "workers", "txns/sec", "pageIO/txn", "scaling")
	for _, sc := range shardCounts {
		row, err := MeasureThroughputSharded(cfg, n, batch, sc, workers)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, row)
		if base == 0 {
			base = row.TxnsPerSec
		}
		fmt.Fprintf(&b, "%-8d %-8d %14.0f %14.2f %9.2fx\n",
			row.Shards, row.Workers, row.TxnsPerSec, row.IOPerTxn, row.TxnsPerSec/base)
	}
	return rows, b.String(), nil
}

// ThroughputTable measures the batch-size × worker grid and renders the
// comparison (the README's reproduction artifact).
func ThroughputTable(cfg corpus.Figure5Config, n int, batches, workers []int) ([]ThroughputRow, string, error) {
	var rows []ThroughputRow
	var base float64
	var b strings.Builder
	b.WriteString("Batched maintenance throughput (Figure 5 schema, 80% hot-item >T, 20% +S)\n")
	fmt.Fprintf(&b, "%-8s %-8s %14s %14s %12s %12s %12s %10s\n",
		"batch", "workers", "txns/sec", "pageIO/txn", "p50(µs)", "p99(µs)", "allocs/txn", "speedup")
	for _, bs := range batches {
		for _, w := range workers {
			row, err := MeasureThroughput(cfg, n, bs, w)
			if err != nil {
				return nil, "", err
			}
			rows = append(rows, row)
			if base == 0 {
				base = row.TxnsPerSec
			}
			fmt.Fprintf(&b, "%-8d %-8d %14.0f %14.2f %12.1f %12.1f %12.1f %9.2fx\n",
				row.Batch, row.Workers, row.TxnsPerSec, row.IOPerTxn,
				float64(row.ApplyP50Ns)/1e3, float64(row.ApplyP99Ns)/1e3,
				row.AllocsPerTxn, row.TxnsPerSec/base)
		}
	}
	return rows, b.String(), nil
}
