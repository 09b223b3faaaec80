package tracks

import (
	"math"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/expr"
	"repro/internal/txn"
)

// Flow is the estimated delta arriving at a node: expected numbers of
// modified, inserted and deleted tuples, the number of distinct source
// entities driving them (Keys — the probe-key count for queries), and the
// bare names of the columns a modification changes.
type Flow struct {
	Mods, Ins, Dels float64
	Keys            float64
	ModCols         []string
}

// Total returns the expected delta size (the paper's |delta|).
func (f Flow) Total() float64 { return f.Mods + f.Ins + f.Dels }

// Empty reports whether no change flows.
func (f Flow) Empty() bool { return f.Total() <= 0 }

func (f Flow) scale(sel float64) Flow {
	return Flow{
		Mods: f.Mods * sel, Ins: f.Ins * sel, Dels: f.Dels * sel,
		Keys: math.Min(f.Keys, f.Keys*sel+1), ModCols: f.ModCols,
	}
}

// modsTouch reports whether the modification columns intersect cols
// (bare-name comparison).
func (f Flow) modsTouch(cols []string) bool {
	for _, m := range f.ModCols {
		mb := bareOf(m)
		for _, c := range cols {
			if bareOf(c) == mb {
				return true
			}
		}
	}
	return false
}

// leafFlow builds the flow entering the DAG at an updated base relation.
func leafFlow(u txn.RelUpdate) Flow {
	f := Flow{Keys: u.Size}
	switch u.Kind {
	case txn.Insert:
		f.Ins = u.Size
	case txn.Delete:
		f.Dels = u.Size
	default:
		f.Mods = u.Size
		f.ModCols = append([]string{}, u.Cols...)
	}
	return f
}

// QueryCharge is one query posed on an equivalence node while propagating
// a delta (the paper's Q2Ld, Q2Re, ... of Example 3.2).
type QueryCharge struct {
	// Target is the equivalence node the query is posed on.
	Target *dag.EqNode
	// Bind are the equality columns the query binds.
	Bind []string
	// Keys is the expected number of distinct probe keys.
	Keys float64
	// Origin identifies the operation node and input that generated the
	// query (e.g. "E4.L").
	Origin string
	// Cost is the estimated cost, filled in by the coster, and Fanout
	// the number of the target's rows it expects one key to match.
	Cost   float64
	Fanout float64
}

// posedQuery is a query a track poses unless the view set holds the node
// whose ID is unless (-1: whatever the view set).
type posedQuery struct {
	QueryCharge
	unless int
}

// posedBy returns the queries of posed that the view set leaves to ask.
func posedBy(vs ViewSet, posed []posedQuery) []QueryCharge {
	out := make([]QueryCharge, 0, len(posed))
	for _, p := range posed {
		if p.unless < 0 || !vs[p.unless] {
			out = append(out, p.QueryCharge)
		}
	}
	return out
}

// opFlow derives the output flow of an operation node from its children's
// flows, and the queries the delta computation must pose. childFlows maps
// equivalence-node IDs to flows (absent = unaffected input).
//
// Neither result reads a view set: a query the view set can make
// unnecessary names the node that does (posedQuery.unless). So a track's
// flows and queries are computed once (trackBundle) and only priced per
// view set, and the branch-and-bound lower bound
// (Costing.WeightedUpdateLB) can rely on update charges at a node being
// a function of the track alone, carried unchanged to every superset's
// tracks.
func (c *Costing) opFlow(ctx *costCtx, e *dag.EqNode, op *dag.OpNode, childFlows map[int]Flow) (Flow, []posedQuery) {
	switch t := op.Template.(type) {
	case *algebra.Select:
		f := childFlows[op.Children[0].ID]
		sel := Selectivity(t.Pred, c.Est.StatsOf(op.Children[0]))
		return f.scale(sel), nil

	case *algebra.Project:
		f := childFlows[op.Children[0].ID]
		// Remap modification columns through the projection: pass-through
		// columns keep their bare name; computed items that read a
		// modified column yield a modified output column.
		var mc []string
		for _, it := range t.Items {
			cols := expr.ColumnsOf(it.E)
			if !f.modsTouch(cols) {
				continue
			}
			name := it.As
			if name == "" {
				if col, ok := it.E.(expr.Col); ok {
					name = col.Name
				}
			}
			if name != "" {
				mc = append(mc, bareOf(name))
			}
		}
		out := f
		out.ModCols = mc
		return out, nil

	case *algebra.Join:
		return c.joinFlow(t, op, childFlows)

	case *algebra.Aggregate:
		return c.aggFlow(ctx, t, e, op, childFlows)

	case *algebra.Distinct:
		f := childFlows[op.Children[0].ID]
		child := op.Children[0]
		q := QueryCharge{
			Target: child,
			Bind:   child.Schema().ColumnNames(),
			Keys:   f.Total(),
			Origin: c.originOf(op, ""),
		}
		// A materialized view carries its multiplicity sidecar instead.
		return f, []posedQuery{{q, e.ID}}

	case *algebra.Union:
		out := Flow{}
		for _, ch := range op.Children {
			if f, ok := childFlows[ch.ID]; ok {
				out = addFlows(out, f)
			}
		}
		return out, nil

	case *algebra.Diff:
		out := Flow{}
		var queries []posedQuery
		for _, ch := range op.Children {
			if f, ok := childFlows[ch.ID]; ok {
				out = addFlows(out, f)
			}
		}
		// Count probes on both inputs for every changed tuple.
		for _, ch := range op.Children {
			queries = append(queries, posedQuery{QueryCharge{
				Target: ch,
				Bind:   ch.Schema().ColumnNames(),
				Keys:   out.Total(),
				Origin: c.originOf(op, ""),
			}, -1})
		}
		return out, queries

	default:
		// Rel leaves never appear as chosen ops.
		return Flow{}, nil
	}
}

func addFlows(a, b Flow) Flow {
	return Flow{
		Mods: a.Mods + b.Mods, Ins: a.Ins + b.Ins, Dels: a.Dels + b.Dels,
		Keys:    a.Keys + b.Keys,
		ModCols: append(append([]string{}, a.ModCols...), b.ModCols...),
	}
}

// joinFlow handles delta propagation sizing and query generation for an
// equijoin: a delta on one side multiplies by the other side's fanout and
// poses a semijoin query on it; deltas on both sides pose queries both
// ways (the ΔL⋈R ∪ L⋈ΔR ∪ ΔL⋈ΔR decomposition).
func (c *Costing) joinFlow(j *algebra.Join, op *dag.OpNode, childFlows map[int]Flow) (Flow, []posedQuery) {
	l, r := op.Children[0], op.Children[1]
	fl, lOK := childFlows[l.ID]
	fr, rOK := childFlows[r.ID]
	var out Flow
	var queries []posedQuery
	side := func(f Flow, mine, other *dag.EqNode, myCols, otherCols []string, label string) Flow {
		fanout := fanoutOf(c.Est.StatsOf(other), otherCols)
		queries = append(queries, posedQuery{QueryCharge{
			Target: other,
			Bind:   otherCols,
			Keys:   f.Keys,
			Origin: c.originOf(op, label),
		}, -1})
		g := Flow{Keys: f.Keys, ModCols: f.ModCols}
		if f.modsTouch(myCols) {
			// The modification moves tuples across join keys: pairings
			// break into deletes of old matches plus inserts of new.
			g.Ins = (f.Ins + f.Mods) * fanout
			g.Dels = (f.Dels + f.Mods) * fanout
			g.ModCols = nil
		} else {
			g.Mods = f.Mods * fanout
			g.Ins = f.Ins * fanout
			g.Dels = f.Dels * fanout
		}
		return g
	}
	switch {
	case lOK && rOK:
		a := side(fl, l, r, j.LeftCols(), j.RightCols(), "R")
		b := side(fr, r, l, j.RightCols(), j.LeftCols(), "L")
		out = addFlows(a, b)
	case lOK:
		out = side(fl, l, r, j.LeftCols(), j.RightCols(), "R")
	case rOK:
		out = side(fr, r, l, j.RightCols(), j.LeftCols(), "L")
	}
	if j.Residual != nil {
		out = out.scale(1.0 / 3)
	}
	return out, queries
}

// aggFlow handles grouping/aggregation: the delta touches one group per
// distinct source entity; the group recomputation query on the child is
// skipped when the parent is materialized with decomposable aggregates
// (the SumOfSals add/subtract trick) or when the delta covers whole
// groups (the key-based rule that makes the paper's Q3d free).
func (c *Costing) aggFlow(ctx *costCtx, a *algebra.Aggregate, e *dag.EqNode, op *dag.OpNode, childFlows map[int]Flow) (Flow, []posedQuery) {
	child := op.Children[0]
	f := childFlows[child.ID]
	groups := math.Min(math.Max(f.Keys, 1), f.Total())
	if f.Empty() {
		groups = 0
	}
	out := Flow{Keys: groups}
	if f.modsTouch(a.GroupBy) || f.Ins+f.Dels > 0 && f.Mods == 0 {
		// Group membership may change: births and deaths possible.
		// Conservatively estimate modifications of existing groups when
		// the flow is modification-driven, else inserts+deletes.
		if f.Mods > 0 {
			out.Ins, out.Dels = groups, groups
		} else if f.Ins > 0 && f.Dels > 0 {
			out.Ins, out.Dels = groups/2, groups/2
		} else if f.Ins > 0 {
			out.Mods = groups // inserts into existing groups change them
		} else {
			out.Mods = groups
		}
	} else {
		out.Mods = groups
	}
	for _, ag := range a.Aggs {
		out.ModCols = append(out.ModCols, bareOf(ag.As))
	}
	if groups == 0 || c.coversGroups(ctx, a, child) {
		return out, nil
	}
	q := posedQuery{QueryCharge{
		Target: child,
		Bind:   a.GroupBy,
		Keys:   groups,
		Origin: c.originOf(op, ""),
	}, -1}
	if decomposableFlow(a.Aggs, f) {
		q.unless = e.ID // materialized, it adds and subtracts instead
	}
	return out, []posedQuery{q}
}

// decomposableFlow mirrors delta.Decomposable on estimated flows.
func decomposableFlow(specs []algebra.AggSpec, f Flow) bool {
	insertOnly := f.Mods == 0 && f.Dels == 0
	for _, s := range specs {
		switch s.Func {
		case algebra.Sum, algebra.Count:
		case algebra.Min, algebra.Max:
			if !insertOnly {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// coversGroups resolves the track context and delegates to CoversGroups.
func (c *Costing) coversGroups(ctx *costCtx, a *algebra.Aggregate, child *dag.EqNode) bool {
	childOp := ctx.trackChoice[child.ID]
	deltaSide := -1
	if childOp != nil {
		for i, ch := range childOp.Children {
			if _, ok := ctx.trackFlows[ch.ID]; ok {
				if deltaSide >= 0 {
					deltaSide = -2 // both sides changed: not covered
					break
				}
				deltaSide = i
			}
		}
	}
	return CoversGroups(c.D, a, child, childOp, deltaSide)
}

// CoversGroups implements the static form of the paper's key-based query
// elimination ("Since DName is a key for the Dept relation, the result
// propagated up along E5 and N4 contains all the tuples in the group.
// Thus no I/O is generated for Q3d"): the delta arriving at the aggregate
// covers every affected group entirely, so the old group contents come
// from the delta itself and no query on the child is needed.
//
// childOp is the operation node the child's delta was computed through
// (nil when the child is a leaf); deltaSide is the index of childOp's
// input the delta arrived from (negative when unknown or both). The same
// predicate drives both cost estimation and the runtime engine.
func CoversGroups(d *dag.DAG, a *algebra.Aggregate, child *dag.EqNode, childOp *dag.OpNode, deltaSide int) bool {
	// Case 1: the group-by columns contain a key of the child — every
	// group is a single tuple, trivially covered.
	if d.KeyedOn(child, a.GroupBy) {
		return true
	}
	// Case 2: the child delta came through a join whose delta side is
	// keyed on its join columns, and the grouping determines the join
	// key.
	if childOp == nil || deltaSide < 0 {
		return false
	}
	join, ok := childOp.Template.(*algebra.Join)
	if !ok {
		return false
	}
	deltaChild := childOp.Children[deltaSide]
	var sideCols []string
	if deltaSide == 0 {
		sideCols = join.LeftCols()
	} else {
		sideCols = join.RightCols()
	}
	if !d.KeyedOn(deltaChild, sideCols) {
		return false
	}
	uf := algebra.NewColEquiv()
	uf.Collect(d.RepTree(child))
	for _, jc := range sideCols {
		if !uf.SameAsAny(jc, a.GroupBy) {
			return false
		}
	}
	return true
}

func (c *Costing) originOf(op *dag.OpNode, side string) string {
	if side == "" {
		return c.origins[op.ID]
	}
	return c.origins[op.ID] + "." + side
}
