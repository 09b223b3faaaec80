// Package ic implements SQL-92 assertion (complex integrity constraint)
// checking on top of incremental view maintenance, per the paper's
// Sections 1 and 6: "These integrity constraints can be modeled as
// materialized views whose results are required to be empty", and
// "incrementally checking them may be quite costly unless additional
// views are materialized".
//
// A Checker owns a maintenance engine whose roots are the assertion
// views (plus any ordinary materialized views); after each transaction it
// inspects the assertion views and, in Reject mode, rolls the transaction
// back when any is non-empty.
package ic

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Assertion names a must-stay-empty view.
type Assertion struct {
	Name string
	View *dag.EqNode
}

// Mode selects what happens on violation.
type Mode int

// Violation-handling modes.
const (
	// Report applies the transaction and reports violations (deferred
	// constraint style).
	Report Mode = iota
	// Reject rolls the violating transaction back (immediate constraint
	// style).
	Reject
)

// Violation is one non-empty assertion after a transaction.
type Violation struct {
	Assertion string
	Rows      []storage.Row
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("assertion %s violated by %d tuple(s)", v.Assertion, len(v.Rows))
}

// Checker runs transactions under assertion checking.
type Checker struct {
	M          *maintain.Maintainer
	Assertions []Assertion
	Mode       Mode
}

// New builds a checker over an existing maintainer. Every assertion view
// must be materialized by the maintainer (it is a root of the DAG).
func New(m *maintain.Maintainer, mode Mode, assertions ...Assertion) (*Checker, error) {
	for _, a := range assertions {
		if _, ok := m.ViewRel(a.View); !ok {
			return nil, fmt.Errorf("ic: assertion %s view %s is not materialized", a.Name, a.View)
		}
	}
	return &Checker{M: m, Assertions: assertions, Mode: mode}, nil
}

// Outcome reports one checked transaction.
type Outcome struct {
	Report     *maintain.Report
	Violations []Violation
	RolledBack bool
}

// OK reports whether the transaction satisfied every assertion.
func (o *Outcome) OK() bool { return len(o.Violations) == 0 }

// Execute maintains all views under the transaction, then checks each
// assertion. The check itself is free: the assertion view is already
// materialized and its emptiness is known from its cardinality — this is
// precisely why assertion checking reduces to view maintenance.
func (c *Checker) Execute(t *txn.Type, updates map[string]*delta.Delta) (*Outcome, error) {
	// In Reject mode the apply is tentative until the verdict: detach the
	// committer for the window, and hand it the window's deltas below
	// only once the transaction is accepted — a violating transaction is
	// never logged.
	com := c.M.Committer
	deferred := com != nil && c.Mode == Reject
	if deferred {
		c.M.Committer = nil
		defer func() { c.M.Committer = com }()
	}
	rep, err := c.M.Apply(t, updates)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Report: rep}
	for _, a := range c.Assertions {
		rows := c.M.Contents(a.View)
		if len(rows) > 0 {
			// Contents rows alias view storage, which the rollback below
			// mutates (and storage recycles freed tuple slots on insert),
			// so the outcome keeps its own copies. Violations are the
			// exceptional path; the clone never runs on a clean window.
			owned := make([]storage.Row, len(rows))
			for i, row := range rows {
				owned[i] = storage.Row{Tuple: row.Tuple.Clone(), Count: row.Count}
			}
			out.Violations = append(out.Violations, Violation{Assertion: a.Name, Rows: owned})
		}
	}
	if c.Mode == Reject && !out.OK() {
		if err := c.M.Rollback(rep); err != nil {
			return nil, fmt.Errorf("ic: rollback failed: %w", err)
		}
		out.RolledBack = true
	}
	if deferred {
		// Accepted: log the window and wait out its fence. Rejected:
		// nothing to log, report the durability point covering it.
		var lsn uint64
		if out.RolledBack {
			lsn, err = com.Commit(1)
		} else {
			lsn, err = com.BeginWindow(rep.Merged, 1)()
		}
		if err != nil {
			return nil, fmt.Errorf("ic: commit: %w", err)
		}
		rep.LSN = lsn
	}
	return out, nil
}
