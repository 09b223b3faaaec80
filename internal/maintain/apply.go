package maintain

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/value"
)

// Registry mirrors of the per-transaction probe cache — the runtime
// counterpart of the track-level multi-query optimization. A high hit
// rate is the measured form of the sharing the cost model assumes when
// it charges each distinct query once per transaction.
var (
	obsProbeHits   = obs.C("maintain.probe.hits")
	obsProbeMisses = obs.C("maintain.probe.misses")
)

// opDelta computes the delta of one equivalence node through its chosen
// operation node, posing charged queries where the cost model charged
// them. The decision logic (which queries an operator needs) mirrors
// tracks.opFlow: joins probe the unaffected side; aggregates skip their
// group query when the parent is materialized with decomposable
// aggregates, or when the delta covers whole groups.
//
// The operation's compiled step (stepFor) replaces per-call schema
// resolution and expression compilation, and owns the scratch.
//
// A join whose output StreamsInto the aggregate above it has no delta:
// opDelta returns nil, and the rows are already in that aggregate's fold.
// Any other join with both inputs changed is netted here, once — its
// terms cancel, and everyone downstream (storage, sidecars, the window
// hook, charged probes keyed by its rows) is owed the net delta.
func (m *Maintainer) opDelta(e *dag.EqNode, op *dag.OpNode, deltas map[int]*delta.Delta, tr *tracks.Track, w *windowMemo) (*delta.Delta, error) {
	st, err := m.stepFor(op)
	if err != nil {
		return nil, err
	}
	childDelta := func(i int) *delta.Delta { return deltas[op.Children[i].ID] }
	switch t := op.Template.(type) {
	case *algebra.Select:
		return st.sel.Apply(childDelta(0))

	case *algebra.Project:
		return st.proj.Apply(childDelta(0))

	case *algebra.Join:
		dl, dr := childDelta(0), childDelta(1)
		probeL := m.probe(op.Children[0], t.LeftCols(), w)
		probeR := m.probe(op.Children[1], t.RightCols(), w)
		if p := m.StreamsInto(tr, e); p != nil && !m.netAll && len(m.views[p.ID].stale) == 0 {
			into, err := m.stepFor(tr.Choice[p.ID])
			if err != nil {
				return nil, err
			}
			n, err := st.join.ApplyInto(into.agg, dl, dr, probeL, probeR)
			obsDeltaChanges.Observe(int64(n))
			return nil, err
		}
		d, err := st.join.Apply(dl, dr, probeL, probeR)
		if err == nil && !dl.Empty() && !dr.Empty() {
			d = m.nz.NormalizeInto(d, &st.net)
		}
		return d, err

	case *algebra.Aggregate:
		return m.aggregateDelta(e, op, t, deltas, tr, w, st.agg)

	case *algebra.Distinct:
		cd := childDelta(0)
		countOf, err := m.countProbe(e, op.Children[0], w)
		if err != nil {
			return nil, err
		}
		return delta.Distinct(t, cd, countOf, &m.nz)

	case *algebra.Union:
		out := delta.New(t.Schema())
		for i := range op.Children {
			if cd := childDelta(i); !cd.Empty() {
				out.Changes = append(out.Changes, cd.Changes...)
			}
		}
		return out, nil

	case *algebra.Diff:
		countL, err := m.countProbe(e, op.Children[0], w)
		if err != nil {
			return nil, err
		}
		countR, err := m.countProbe(e, op.Children[1], w)
		if err != nil {
			return nil, err
		}
		out := delta.New(t.Schema())
		for i := range op.Children {
			cd := childDelta(i)
			if cd.Empty() {
				continue
			}
			part, err := delta.DiffSide(t, cd, i, countL, countR, &m.nz)
			if err != nil {
				return nil, err
			}
			out.Changes = append(out.Changes, part.Changes...)
		}
		return m.nz.Normalize(out), nil

	default:
		return nil, fmt.Errorf("maintain: unsupported operator %s", op.OpLabel())
	}
}

// aggregateDelta picks between the incremental (materialized parent,
// decomposable), covered (key-based, query-free) and full-group (queried)
// aggregate maintenance strategies — the same three-way decision the cost
// estimator prices.
func (m *Maintainer) aggregateDelta(e *dag.EqNode, op *dag.OpNode, agg *algebra.Aggregate, deltas map[int]*delta.Delta, tr *tracks.Track, w *windowMemo, plan *delta.AggregatePlan) (*delta.Delta, error) {
	child := op.Children[0]
	cd, held := deltas[child.ID]
	v := m.views[e.ID]
	if !held && m.StreamsInto(tr, child) == e {
		out, live, err := plan.FinishFold(m.oldAggProbe(v))
		v.pending = live
		return out, err
	}
	if cd.Empty() {
		return delta.New(agg.Schema()), nil
	}
	tracked := v != nil && v.aggOp == op
	// The group-count map is only needed to detect stale groups (none in
	// steady state — the incremental path never marks any) and to resync
	// the sidecar on the cold full-group path below; computing it lazily
	// keeps the hot window free of per-group map and key churn.
	staleTouched := false
	if tracked && len(v.stale) > 0 {
		gcs, err := cd.GroupCounts(agg.GroupBy)
		if err != nil {
			return nil, err
		}
		for k := range gcs {
			if v.stale[k] {
				staleTouched = true
				break
			}
		}
	}
	if tracked && !staleTouched && delta.Decomposable(agg.Aggs, cd) {
		out, live, err := plan.Incremental(cd, m.oldAggProbe(v))
		if err != nil {
			return nil, err
		}
		v.pending = live
		return out, nil
	}
	childOp := tr.Choice[child.ID]
	deltaSide := -1
	if childOp != nil {
		for i, ch := range childOp.Children {
			if d, ok := deltas[ch.ID]; ok && !d.Empty() {
				if deltaSide >= 0 {
					deltaSide = -2
					break
				}
				deltaSide = i
			}
		}
	}
	var oldGroup func(value.Tuple) ([]storage.Row, error)
	if tracks.CoversGroups(m.D, agg, child, childOp, deltaSide) {
		fromDelta, err := delta.GroupRowsFromDelta(cd, agg.GroupBy)
		if err != nil {
			return nil, err
		}
		oldGroup = fromDelta
	} else {
		// Full-group recomputation with a charged query per affected
		// group (shared within the window through the memo).
		oldGroup = func(gk value.Tuple) ([]storage.Row, error) {
			return m.answerQuery(child, agg.GroupBy, gk, w)
		}
	}
	out, live, err := plan.Full(cd, oldGroup)
	if err != nil {
		return nil, err
	}
	// Resync the sidecar for the groups this path recomputed: their
	// post-update live counts are known — this also heals staleness.
	if tracked {
		v.pending = live
	}
	return out, nil
}

// oldAggProbe reads a group's stored output tuple and live count without
// charging I/O: the paper folds the old-value read into the view's update
// cost (read old + write new), which ApplyBatch charges.
func (m *Maintainer) oldAggProbe(v *View) delta.OldAgg {
	return func(gk value.Tuple) (value.Tuple, int64, bool, error) {
		was := v.Rel.Resident
		v.Rel.Resident = true
		rows := v.Rel.Lookup(v.groupCols, gk)
		v.Rel.Resident = was
		if len(rows) == 0 {
			return nil, 0, false, nil
		}
		return rows[0].Tuple, v.live[string(v.enc.Key(gk))], true, nil
	}
}

// probe builds a join probe answering from the pre-update state of an
// equivalence node, charged.
func (m *Maintainer) probe(target *dag.EqNode, cols []string, w *windowMemo) delta.Probe {
	return func(jk value.Tuple) ([]storage.Row, error) {
		return m.answerQuery(target, cols, jk, w)
	}
}

// countProbe answers multiplicity questions for Distinct/Diff: from the
// sidecar when this node's view tracks them, else by a charged point
// query on the child.
func (m *Maintainer) countProbe(parent *dag.EqNode, child *dag.EqNode, w *windowMemo) (delta.CountProbe, error) {
	cols := child.Schema().ColumnNames()
	query := func(t value.Tuple) (int64, error) {
		rows, err := m.answerQuery(child, cols, t, w)
		if err != nil {
			return 0, err
		}
		var n int64
		for _, r := range rows {
			n += r.Count
		}
		return n, nil
	}
	if v := m.views[parent.ID]; v != nil && (v.distinctOp != nil || v.aggOp != nil) {
		var enc value.KeyEncoder
		return func(t value.Tuple) (int64, error) {
			kb := enc.Key(t)
			if v.stale[string(kb)] {
				k := string(kb)
				// Liveness unknown (the view was last maintained through
				// another operation alternative): query and heal.
				n, err := query(t)
				if err != nil {
					return 0, err
				}
				v.live[k] = n
				delete(v.stale, k)
				return n, nil
			}
			return v.live[string(kb)], nil
		}, nil
	}
	return query, nil
}

// answerQuery answers σ[cols = key](target) against the pre-update
// database, charged, using the materialized view set: a materialized
// target is probed through its index; otherwise the cheapest
// view-aware expression tree is evaluated with the filter pushed down.
// Results are shared through the window memo, keyed by the target's
// structural fingerprint — the runtime counterpart of the track-level
// multi-query optimization (queries posed by more than one consumer
// along the track are answered once per window).
func (m *Maintainer) answerQuery(target *dag.EqNode, cols []string, key value.Tuple, w *windowMemo) ([]storage.Row, error) {
	ckb := m.memoKey(make([]byte, 0, 64), target, cols, key)
	if rows, ok := w.get(ckb); ok {
		obsProbeHits.Inc()
		return rows, nil
	}
	obsProbeMisses.Inc()
	ck := string(ckb)
	var rows []storage.Row
	if target.IsLeaf() {
		rel, ok := m.Store.Get(target.BaseRel)
		if !ok {
			return nil, fmt.Errorf("maintain: relation %q not stored", target.BaseRel)
		}
		rows = w.lookup(rel, cols, key)
	} else if v := m.views[target.ID]; v != nil {
		rows = w.lookup(v.Rel, cols, key)
	} else {
		tree := m.queryTree(target)
		// One evaluator answers every query (its join build table is
		// reused from one to the next). Join output tuples come from the
		// window arena and rows go to the memo's slab: they land in the
		// window memo and in deltas, which die with both.
		ev := m.queryEv.WithRows(&w.buf)
		ev.Store, ev.Memo, ev.Win = m.Store, w.eval, &m.arena
		res, err := ev.EvalFiltered(tree, cols, key)
		if err != nil {
			return nil, err
		}
		rows = res.Rows
	}
	w.put(ck, rows)
	return rows, nil
}

// queryTree builds (and memoizes) the cheapest view-aware evaluation tree
// for a non-materialized equivalence node: materialized descendants
// become scans of their backing stores; below that, each class picks the
// operation minimizing estimated full-evaluation cost.
func (m *Maintainer) queryTree(e *dag.EqNode) algebra.Node {
	if t, ok := m.trees[e.ID]; ok {
		return t
	}
	t := m.buildQueryTree(e, map[int]bool{})
	m.trees[e.ID] = t
	return t
}

func (m *Maintainer) buildQueryTree(e *dag.EqNode, onPath map[int]bool) algebra.Node {
	if e.IsLeaf() {
		return e.Expr
	}
	if v := m.views[e.ID]; v != nil {
		return algebra.Scan(v.Rel.Def)
	}
	if onPath[e.ID] {
		// Cycle through rewrites; fall back to the representative op.
		onPath = map[int]bool{}
	}
	onPath[e.ID] = true
	defer delete(onPath, e.ID)
	var best *dag.OpNode
	bestCost := math.Inf(1)
	for _, op := range e.Ops {
		var sum float64
		for _, ch := range op.Children {
			sum += m.Cost.EvalCost(ch, m.VS)
		}
		if sum < bestCost {
			bestCost = sum
			best = op
		}
	}
	children := make([]algebra.Node, len(best.Children))
	for i, ch := range best.Children {
		children[i] = m.buildQueryTree(ch, onPath)
	}
	return best.Template.WithChildren(children)
}
