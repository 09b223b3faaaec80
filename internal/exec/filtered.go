package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// EvalFiltered computes σ[cols = key](n), pushing the equality filter down
// to indexed lookups wherever the algebra allows:
//
//   - through Select (same schema);
//   - through Project when the filtered columns are pass-through;
//   - into the matching side(s) of a Join; when only one side is
//     constrained, the other side is probed per distinct join-key value
//     of the constrained side (the semijoin-style query of the paper);
//   - through Aggregate when the filtered columns are group-by columns;
//   - through Distinct, Union and Diff unconditionally.
//
// When no push is possible it falls back to full evaluation followed by
// an in-memory filter (correct, conservatively expensive — exactly the
// "the query must be evaluated" case of the paper's Section 2.2).
func (ev *Evaluator) EvalFiltered(n algebra.Node, cols []string, key value.Tuple) (*Result, error) {
	if len(cols) != len(key) {
		return nil, fmt.Errorf("exec: filter arity mismatch: %d cols, %d values", len(cols), len(key))
	}
	if len(cols) == 0 {
		return ev.Eval(n)
	}
	switch t := n.(type) {
	case *algebra.Rel:
		rel, ok := ev.Store.Get(t.Def.Name)
		if !ok {
			return nil, fmt.Errorf("exec: relation %q not stored", t.Def.Name)
		}
		rows := ev.lookup(rel, cols, key)
		return &Result{Schema: t.Schema(), Rows: rows}, nil

	case *algebra.Select:
		in, err := ev.EvalFiltered(t.Input, cols, key)
		if err != nil {
			return nil, err
		}
		return filterResult(in, t.Pred)

	case *algebra.Project:
		childCols, ok := mapThroughProject(t, cols)
		if !ok {
			return ev.evalThenFilter(n, cols, key)
		}
		in, err := ev.EvalFiltered(t.Input, childCols, key)
		if err != nil {
			return nil, err
		}
		return projectResult(in, t)

	case *algebra.Join:
		return ev.filteredJoin(t, cols, key)

	case *algebra.Aggregate:
		// Pushable only when every filtered column is a group-by column
		// (same name in input and output).
		out := t.Schema()
		for _, c := range cols {
			i, err := out.Resolve(c)
			if err != nil || i >= len(t.GroupBy) {
				return ev.evalThenFilter(n, cols, key)
			}
		}
		childCols := make([]string, len(cols))
		for i, c := range cols {
			childCols[i] = t.GroupBy[out.MustResolve(c)]
		}
		in, err := ev.EvalFiltered(t.Input, childCols, key)
		if err != nil {
			return nil, err
		}
		return aggregateResult(in, t)

	case *algebra.Distinct:
		in, err := ev.EvalFiltered(t.Input, cols, key)
		if err != nil {
			return nil, err
		}
		return distinctResult(in), nil

	case *algebra.Union:
		l, err := ev.EvalFiltered(t.L, cols, key)
		if err != nil {
			return nil, err
		}
		r, err := ev.EvalFiltered(t.R, cols, key)
		if err != nil {
			return nil, err
		}
		return unionResult(t.Schema(), l, r, +1), nil

	case *algebra.Diff:
		l, err := ev.EvalFiltered(t.L, cols, key)
		if err != nil {
			return nil, err
		}
		r, err := ev.EvalFiltered(t.R, cols, key)
		if err != nil {
			return nil, err
		}
		return unionResult(t.Schema(), l, r, -1), nil

	default:
		return ev.evalThenFilter(n, cols, key)
	}
}

// lookup probes rel by cols=key, honoring Free mode.
func (ev *Evaluator) lookup(rel *storage.Relation, cols []string, key value.Tuple) []storage.Row {
	rows, start := ev.openRows(0)
	if ev.Free {
		// Uncharged: find matches without touching the counter.
		wasResident := rel.Resident
		rel.Resident = true
		rows = rel.LookupAppend(cols, key, rows)
		rel.Resident = wasResident
	} else {
		rows = rel.LookupAppend(cols, key, rows)
	}
	return ev.closeRows(rows, start)
}

// mapThroughProject translates output column names to input column names
// when every filtered column is a pass-through column reference.
func mapThroughProject(p *algebra.Project, cols []string) ([]string, bool) {
	out := p.Schema()
	childCols := make([]string, len(cols))
	for i, c := range cols {
		j, err := out.Resolve(c)
		if err != nil {
			return nil, false
		}
		ref, ok := p.Items[j].E.(expr.Col)
		if !ok {
			return nil, false
		}
		childCols[i] = ref.Name
	}
	return childCols, true
}

// filteredJoin distributes the filter over the join inputs.
func (ev *Evaluator) filteredJoin(j *algebra.Join, cols []string, key value.Tuple) (*Result, error) {
	ls, rs := j.L.Schema(), j.R.Schema()
	var lcols, rcols []string
	var lkey, rkey value.Tuple
	for i, c := range cols {
		switch {
		case ls.Has(c):
			lcols = append(lcols, c)
			lkey = append(lkey, key[i])
		case rs.Has(c):
			rcols = append(rcols, c)
			rkey = append(rkey, key[i])
		default:
			return ev.evalThenFilter(j, cols, key)
		}
	}
	// If a filtered column is a join column, the equality transfers to
	// the other side too, letting both sides be probed directly.
	for i, c := range lcols {
		for _, on := range j.On {
			if sameCol(ls, on.Left, c) && !hasCol(rcols, on.Right) {
				rcols = append(rcols, on.Right)
				rkey = append(rkey, lkey[i])
			}
		}
	}
	for i, c := range rcols {
		for _, on := range j.On {
			if sameCol(rs, on.Right, c) && !hasCol(lcols, on.Left) {
				lcols = append(lcols, on.Left)
				lkey = append(lkey, rkey[i])
			}
		}
	}
	switch {
	case len(lcols) > 0 && len(rcols) > 0:
		l, err := ev.EvalFiltered(j.L, lcols, lkey)
		if err != nil {
			return nil, err
		}
		r, err := ev.EvalFiltered(j.R, rcols, rkey)
		if err != nil {
			return nil, err
		}
		return ev.hashJoin(j, l, r)
	case len(lcols) > 0:
		l, err := ev.EvalFiltered(j.L, lcols, lkey)
		if err != nil {
			return nil, err
		}
		return ev.probeJoin(j, l, true)
	case len(rcols) > 0:
		r, err := ev.EvalFiltered(j.R, rcols, rkey)
		if err != nil {
			return nil, err
		}
		return ev.probeJoin(j, r, false)
	default:
		return ev.evalThenFilter(j, cols, key)
	}
}

// probeJoin joins a computed side against the other input by probing the
// other input once per distinct join-key value (a semijoin-driven plan).
// driveLeft says the computed result is the left input.
func (ev *Evaluator) probeJoin(j *algebra.Join, drive *Result, driveLeft bool) (*Result, error) {
	driveCols := j.LeftCols()
	otherCols := j.RightCols()
	other := j.R
	if !driveLeft {
		driveCols, otherCols = otherCols, driveCols
		other = j.L
	}
	dpos := make([]int, len(driveCols))
	for i, c := range driveCols {
		k, err := drive.Schema.Resolve(c)
		if err != nil {
			return nil, err
		}
		dpos[i] = k
	}
	// Probe once per distinct join-key value.
	probed := map[string]*Result{}
	for _, row := range drive.Rows {
		jk := row.Tuple.Project(dpos)
		k := jk.Key()
		if _, ok := probed[k]; ok {
			continue
		}
		res, err := ev.EvalFiltered(other, otherCols, jk)
		if err != nil {
			return nil, err
		}
		probed[k] = res
	}
	residual, err := joinResidual(j)
	if err != nil {
		return nil, err
	}
	rows, start := ev.openRows(0)
	for _, drow := range drive.Rows {
		jk := drow.Tuple.Project(dpos)
		matches := probed[jk.Key()]
		if matches == nil {
			continue
		}
		for _, orow := range matches.Rows {
			var t value.Tuple
			if driveLeft {
				t = ev.Win.ConcatTuples(drow.Tuple, orow.Tuple)
			} else {
				t = ev.Win.ConcatTuples(orow.Tuple, drow.Tuple)
			}
			if residual != nil && !residual.Truth(t) {
				continue
			}
			rows = append(rows, storage.Row{Tuple: t, Count: drow.Count * orow.Count})
		}
	}
	return &Result{Schema: j.Schema(), Rows: ev.closeRows(rows, start)}, nil
}

func (ev *Evaluator) evalThenFilter(n algebra.Node, cols []string, key value.Tuple) (*Result, error) {
	in, err := ev.Eval(n)
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(cols))
	for i, c := range cols {
		j, err := in.Schema.Resolve(c)
		if err != nil {
			return nil, err
		}
		pos[i] = j
	}
	out := &Result{Schema: in.Schema}
	for _, row := range in.Rows {
		if row.Tuple.Project(pos).Equal(key) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// sameCol reports whether names a and b resolve to the same column of s.
func sameCol(s *catalog.Schema, a, b string) bool {
	ia, erra := s.Resolve(a)
	ib, errb := s.Resolve(b)
	return erra == nil && errb == nil && ia == ib
}

func hasCol(cols []string, c string) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}
