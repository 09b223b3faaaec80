// Package ic implements SQL-92 assertion (complex integrity constraint)
// checking on top of incremental view maintenance, per the paper's
// Sections 1 and 6: "These integrity constraints can be modeled as
// materialized views whose results are required to be empty", and
// "incrementally checking them may be quite costly unless additional
// views are materialized".
//
// A Checker owns a maintenance engine whose roots are the assertion
// views (plus any ordinary materialized views). In Reject mode they are
// the maintainer's Guards, so a violating transaction is never applied;
// in Report mode it is applied, and the non-empty views reported.
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
	// Reject refuses the violating transaction: nothing it would have
	// changed is written (immediate constraint style).
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
// must be materialized by the maintainer (it is a root of the DAG). In
// Reject mode the assertion views become the maintainer's Guards.
func New(m *maintain.Maintainer, mode Mode, assertions ...Assertion) (*Checker, error) {
	var guards []*dag.EqNode
	for _, a := range assertions {
		if _, ok := m.ViewRel(a.View); !ok {
			return nil, fmt.Errorf("ic: assertion %s view %s is not materialized", a.Name, a.View)
		}
		guards = append(guards, a.View)
	}
	if mode == Reject {
		m.Guards = guards
	}
	return &Checker{M: m, Assertions: assertions, Mode: mode}, nil
}

// Outcome reports one checked transaction. A rejected transaction's
// Report charges the queries its propagation posed and nothing else.
type Outcome struct {
	Report     *maintain.Report
	Violations []Violation
	RolledBack bool
}

// OK reports whether the transaction satisfied every assertion.
func (o *Outcome) OK() bool { return len(o.Violations) == 0 }

// Execute maintains all views under the transaction and checks each
// assertion. The check itself is free: the assertion view's delta is
// computed by maintenance anyway, and its emptiness afterwards is its
// stored cardinality plus that delta's — this is precisely why assertion
// checking reduces to view maintenance.
func (c *Checker) Execute(t *txn.Type, updates map[string]*delta.Delta) (*Outcome, error) {
	rep, err := c.M.Apply(t, updates)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Report: rep, RolledBack: rep.Rejected}
	if c.Mode == Reject && !rep.Rejected {
		return out, nil // accepted: every guard is empty
	}
	for _, a := range c.Assertions {
		rows := c.M.Contents(a.View)
		if d := rep.Deltas[a.View.ID]; rep.Rejected && d != nil {
			// Rejected: the view after the window is its stored rows ⊎
			// the delta that was never applied.
			all := delta.New(a.View.Schema())
			for _, row := range rows {
				all.Insert(row.Tuple, row.Count)
			}
			all.Changes = append(all.Changes, d.Changes...)
			rows = nil
			for _, ch := range all.Normalize().Changes {
				if ch.IsInsert() {
					rows = append(rows, storage.Row{Tuple: ch.New, Count: ch.Count})
				}
			}
		}
		// Tuples alias view storage or the window's scratch, both reused
		// by the next window, so the outcome keeps copies. A clean
		// assertion has no rows, and clones nothing.
		for i := range rows {
			rows[i].Tuple = rows[i].Tuple.Clone()
		}
		if len(rows) > 0 {
			out.Violations = append(out.Violations, Violation{Assertion: a.Name, Rows: rows})
		}
	}
	return out, nil
}
