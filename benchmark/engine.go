package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	mvmaint "repro"
	"repro/internal/maintain"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// tally counts what a run attempted and what went wrong. A failure is
// an operation that errored, was refused, or whose outcome disagreed
// with the generator's model, or a post-run check that did not hold.
type tally struct {
	attempted int
	failed    int
	notes     []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// engine is the part every workload shares: a database built through
// the public facade (Open, Exec, Build with the exhaustive optimizer),
// optionally made durable, plus the post-run checks against the
// recompute oracle and against recovery.
type engine struct {
	tally
	tr *tracer

	schema string   // DDL: tables, indexes, views, assertions
	names  []string // views and assertions handed to Build
	bcfg   mvmaint.Config

	db  *mvmaint.DB
	sys *mvmaint.System

	buildMs  float64
	explored int

	walDir string
	cfs    *countingFS // non-nil on traced runs
	mgr    *wal.Manager
	com    *tracedCommitter // non-nil on traced durable runs

	checkpointMs float64
	recoveryS    float64
}

// open creates the database, loads it and builds the maintained system.
func (e *engine) open(schema, load string, names []string, types []*txn.Type) error {
	e.schema, e.names = schema, names
	e.bcfg = mvmaint.Config{Workload: types, Method: mvmaint.Exhaustive}
	e.db = mvmaint.Open()
	if err := e.db.Exec(schema); err != nil {
		return fmt.Errorf("ddl: %w", err)
	}
	if err := e.db.Exec(load); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	t0 := time.Now()
	sys, err := e.db.Build(names, e.bcfg)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	e.buildMs = ms(time.Since(t0))
	e.explored = sys.Decision.Explored
	sys.M.Workers = 1
	e.sys = sys
	return nil
}

// attachWAL makes the system durable in dir with the default fence on
// the real filesystem. On traced runs the filesystem counts the log's
// traffic and the committer is wrapped to time the exposed waits.
func (e *engine) attachWAL(dir string) error {
	e.walDir = dir
	var fs wal.FS = wal.OSFS{}
	if e.tr != nil {
		e.cfs = &countingFS{}
		fs = e.cfs
	}
	mgr, err := e.sys.AttachDurability(fs, dir, wal.Options{})
	if err != nil {
		return fmt.Errorf("attach wal: %w", err)
	}
	e.mgr = mgr
	if e.tr != nil {
		e.com = &tracedCommitter{inner: mgr, tr: e.tr}
		e.sys.M.Committer = e.com
	}
	return nil
}

// checkpoint writes one checkpoint and records how long the writer was
// held up by it.
func (e *engine) checkpoint() error {
	id := e.tr.start(layerWAL, "Checkpoint")
	t0 := time.Now()
	err := e.mgr.Checkpoint(nil)
	e.checkpointMs = ms(time.Since(t0))
	e.tr.end(id)
	return err
}

// closeWAL detaches durability; the directory stays recoverable.
func (e *engine) closeWAL() error {
	if e.mgr == nil {
		return nil
	}
	if e.com != nil {
		e.sys.M.Committer = e.mgr // let Close find and remove itself
	}
	err := e.mgr.Close()
	e.mgr = nil
	return err
}

// checkDrift compares every materialized view with the recompute
// oracle.
func (e *engine) checkDrift() {
	for _, eq := range e.sys.DAG.NonLeafEqs() {
		if !e.sys.ViewSet[eq.ID] {
			continue
		}
		e.attempted++
		drift, err := e.sys.M.Drift(eq)
		switch {
		case err != nil:
			e.fail("drift check of %s: %v", eq, err)
		case drift != "":
			e.fail("view %s drifted from the recompute oracle: %s", eq, drift)
		}
	}
}

// viewRowsHeld sums the rows of every materialized view: the space the
// chosen view set costs.
func (e *engine) viewRowsHeld() int {
	n := 0
	for _, eq := range e.sys.DAG.NonLeafEqs() {
		if rel, ok := e.sys.M.ViewRel(eq); ok {
			n += rel.Card()
		}
	}
	return n
}

// checkRecovery closes the log, recovers the directory into a fresh
// database built from the schema alone, and demands the recovered views
// equal the live ones.
func (e *engine) checkRecovery(views []string) {
	e.attempted++
	if err := e.closeWAL(); err != nil {
		e.fail("close wal: %v", err)
		return
	}
	fresh := mvmaint.Open()
	if err := fresh.Exec(e.schema); err != nil {
		e.fail("recovery ddl: %v", err)
		return
	}
	t0 := time.Now()
	sys, mgr, err := mvmaint.Recover(fresh, e.names, e.bcfg, wal.OSFS{}, e.walDir, wal.Options{})
	if err != nil {
		e.fail("recover: %v", err)
		return
	}
	e.recoveryS = time.Since(t0).Seconds()
	defer mgr.Close()
	if mgr.RecomputedViews != 0 {
		e.fail("recovery recomputed %d views; the checkpointed view set is current", mgr.RecomputedViews)
	}
	for _, v := range views {
		live, err1 := e.sys.ViewRows(v)
		got, err2 := sys.ViewRows(v)
		if err1 != nil || err2 != nil {
			e.fail("view rows of %s: %v %v", v, err1, err2)
			continue
		}
		if a, b := rowsKey(live), rowsKey(got); a != b {
			e.fail("recovered %s differs from the live view (%d vs %d rows)", v, len(got), len(live))
		}
	}
}

// rowsKey renders a bag of rows order-independently.
func rowsKey(rows []storage.Row) string {
	lines := make([]string, len(rows))
	var enc value.KeyEncoder
	for i, r := range rows {
		lines[i] = fmt.Sprintf("%x*%d", enc.Key(r.Tuple), r.Count)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// ioSplit accumulates a run's page I/O the way maintenance reports
// split it (traced runs only).
type ioSplit struct {
	query, view, root, base int64
}

func (s *ioSplit) addBatch(r *maintain.BatchReport) {
	s.query += r.QueryIO.Total()
	s.view += r.ViewIO.Total()
	s.root += r.RootIO.Total()
	s.base += r.BaseIO.Total()
}

func (s *ioSplit) addTxn(r *maintain.Report) {
	s.query += r.QueryIO.Total()
	s.view += r.ViewIO.Total()
	s.root += r.RootIO.Total()
	s.base += r.BaseIO.Total()
}

// bulkInsert renders rows as multi-row INSERT statements of 100 rows
// each. The single-row form re-derives statistics per statement and is
// quadratic in the table size.
type bulkInsert struct {
	b     strings.Builder
	table string
	n     int
}

func (w *bulkInsert) row(format string, args ...any) {
	switch {
	case w.n%100 == 0 && w.n > 0:
		w.b.WriteString(";\nINSERT INTO " + w.table + " VALUES ")
	case w.n == 0:
		w.b.WriteString("INSERT INTO " + w.table + " VALUES ")
	default:
		w.b.WriteString(", ")
	}
	fmt.Fprintf(&w.b, format, args...)
	w.n++
}

func (w *bulkInsert) String() string { return w.b.String() + ";\n" }
