package rules

import (
	"slices"
	"strings"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/dag"
	"repro/internal/expr"
	"repro/internal/value"
)

// AggJoinPush pushes grouping/aggregation below a child join (eager
// aggregation, in the style of Yan and Larson, whom the paper credits for
// generating Figure 1's trees). It has two forms.
//
// The keyed push moves the aggregate into one side A:
//
//	γ[G; aggs](A ⋈ B)  ⇒  π[G, aggs](γ[jcA ∪ (G∩A); aggs](A) ⋈ B)
//
// Preconditions for pushing into side A (symmetrically B):
//
//  1. every aggregate argument references only A's columns;
//  2. B's join columns form a candidate key of B (each A tuple matches at
//     most one B tuple, so multiplicities are preserved — the paper's
//     Figure 5 discussion: "If Item is not a key for relation R, then the
//     aggregation cannot be pushed up ... because the multiplicities
//     would change");
//  3. the original grouping G determines A's join columns under the
//     column-equality closure of the expression (so each original group
//     maps to a single join-key value).
//
// The factorized push (factorize) covers what the keyed push cannot: an
// argument that is a product of factors from both sides, or a side whose
// join columns are no key. Each side not keyed on its join columns is
// aggregated, grouped by them, into the SUM of its factors and a COUNT(*)
// — the multiplicity the paper says would change, carried along — and a
// keyed side is used raw, as above.
//
// Both forms count on a join key value being one group: a join matches
// by value.Equal while groups and keys are told apart by encoding, and
// the two differ on FLOAT (+0.0 equals −0.0) and across kinds (Int 1
// equals Float 1.0). So neither fires unless each pair of join columns
// is declared one INT, VARCHAR or BOOL type (exactJoinKeys).
//
// The realignment projection keeps memo equivalence strict.
type AggJoinPush struct{}

// Name implements dag.Rule.
func (AggJoinPush) Name() string { return "agg-join-push" }

// Apply implements dag.Rule.
func (AggJoinPush) Apply(d *dag.DAG, op *dag.OpNode) []algebra.Node {
	agg, ok := op.Template.(*algebra.Aggregate)
	if !ok {
		return nil
	}
	child := op.Children[0]
	var out []algebra.Node
	for _, childOp := range child.Ops {
		join, ok := childOp.Template.(*algebra.Join)
		if !ok || join.Residual != nil || !exactJoinKeys(join, childOp) {
			continue
		}
		pushed := false
		for side := 0; side <= 1; side++ {
			if tree := tryPush(d, agg, join, childOp, side); tree != nil {
				out = append(out, tree)
				pushed = true
			}
		}
		if !pushed {
			if tree := factorize(d, agg, join, childOp); tree != nil {
				out = append(out, tree)
			}
		}
	}
	return out
}

// exactJoinKeys reports whether every pair of j's join columns is
// declared one type under which value.Equal is encoding equality: INT,
// VARCHAR or BOOL.
func exactJoinKeys(j *algebra.Join, op *dag.OpNode) bool {
	ls, rs := op.Children[0].Schema(), op.Children[1].Schema()
	for _, c := range j.On {
		li, lerr := ls.Resolve(c.Left)
		ri, rerr := rs.Resolve(c.Right)
		if lerr != nil || rerr != nil {
			return false
		}
		switch t := ls.Cols[li].Type; {
		case t != rs.Cols[ri].Type, t != value.Int && t != value.String && t != value.Bool:
			return false
		}
	}
	return true
}

// tryPush attempts to push agg into the given side of the join op.
func tryPush(d *dag.DAG, agg *algebra.Aggregate, join *algebra.Join, joinOp *dag.OpNode, side int) algebra.Node {
	target := joinOp.Children[side]
	other := joinOp.Children[1-side]
	var targetJoinCols, otherJoinCols []string
	if side == 0 {
		targetJoinCols, otherJoinCols = join.LeftCols(), join.RightCols()
	} else {
		targetJoinCols, otherJoinCols = join.RightCols(), join.LeftCols()
	}
	ts := target.Schema()

	// 1. Aggregate arguments confined to the target side.
	for _, a := range agg.Aggs {
		switch a.Func {
		case algebra.Sum, algebra.Count, algebra.Avg, algebra.Min, algebra.Max:
		default:
			return nil
		}
		if a.Arg != nil && !expr.RefersOnly(a.Arg, ts) {
			return nil
		}
	}

	// 2. Other side keyed on its join columns.
	if !d.KeyedOn(other, otherJoinCols) {
		return nil
	}

	// 3. G determines the target join columns under column equalities.
	uf := joinEquiv(d, join, joinOp)
	for _, jc := range targetJoinCols {
		if !uf.SameAsAny(jc, agg.GroupBy) {
			return nil
		}
	}

	// Build the pushed aggregate: group by the target join columns plus
	// whatever original group columns live on the target side.
	pushedGroup := withGroupCols(targetJoinCols, agg.GroupBy, ts)
	// Group columns from the other side must resolve there, or the
	// realignment projection cannot be built.
	os := other.Schema()
	for _, g := range agg.GroupBy {
		if !ts.Has(g) && !os.Has(g) {
			return nil
		}
	}
	pushed := algebra.NewAggregate(pushedGroup, agg.Aggs, refOf(target))
	var l, r algebra.Node
	if side == 0 {
		l, r = algebra.Node(pushed), refOf(other)
	} else {
		l, r = refOf(other), algebra.Node(pushed)
	}
	newJoin := &algebra.Join{On: join.On, L: l, R: r}
	items := make([]algebra.ProjectItem, 0, len(agg.GroupBy)+len(agg.Aggs))
	for _, g := range agg.GroupBy {
		items = append(items, algebra.ProjectItem{E: expr.C(g)})
	}
	for _, a := range agg.Aggs {
		items = append(items, algebra.ProjectItem{E: expr.C(a.As)})
	}
	return algebra.NewProject(items, newJoin)
}

// factorize is the factorized push, tried when the keyed push fits
// neither side of the join:
//
//	γ[G; aggs](A ⋈ B)  ⇒  π[G, aggs'](γ[jcA; SUM(f_A), COUNT(*)](A) ⋈ γ[jcB; SUM(g_B), COUNT(*)](B))
//
// with each output rebuilt from the partials of the one join-key value
// its group holds: SUM(f_A·g_B) = SA·SB, SUM(f_A) = SA·CB and COUNT(*) =
// CA·CB. A side keyed on its join columns is used raw (its factor read
// off its one row, its count 1). It fires only when
//
//   - the aggregates are SUM and COUNT(*) (MIN, MAX and AVG do not
//     distribute over a product);
//   - every SUM argument is a product of factors each reading one side,
//     and every factor is Int: int64 arithmetic wraps in two's
//     complement, a ring, so the partials' product equals the per-row sum
//     bit for bit; Float rounds at each addition and would not, and a
//     NULL factor drops the same pairs from both sides of the identity;
//   - every group-by column equals a join column under the column-equality
//     closure, and every join column a group-by column, so a group holds
//     exactly one join-key value;
//   - agg is not itself a partial: one level of partials makes a change
//     to either side of the top join one probe, and each further level
//     would multiply the view-set lattice for a smaller saving.
//
// Partial outputs are named after what they sum and the join columns
// they group by, e.g. "sum(Quantity)@S:Item": the same partial reached
// from two expressions is one memo node, and a name with '@' never
// collides with a user column.
func factorize(d *dag.DAG, agg *algebra.Aggregate, join *algebra.Join, joinOp *dag.OpNode) algebra.Node {
	if isPartial(agg) {
		return nil
	}
	schemas := [2]*catalog.Schema{joinOp.Children[0].Schema(), joinOp.Children[1].Schema()}
	cols := [2][]string{join.LeftCols(), join.RightCols()}

	// Each output as one factor per side (nil: none); COUNT(*) has none.
	split := make([][2]expr.Expr, len(agg.Aggs))
	for i, a := range agg.Aggs {
		switch {
		case a.Func == algebra.Count && a.Arg == nil:
		case a.Func == algebra.Sum && a.Arg != nil:
			for _, f := range factors(a.Arg) {
				s := 0
				if !expr.RefersOnly(f, schemas[0]) {
					s = 1
				}
				if !expr.RefersOnly(f, schemas[s]) || !intTyped(f, schemas[s]) {
					return nil
				}
				split[i][s] = product(split[i][s], f)
			}
		default:
			return nil
		}
	}

	uf := joinEquiv(d, join, joinOp)
	for _, g := range agg.GroupBy {
		if !uf.SameAsAny(g, cols[0]) {
			return nil
		}
	}
	for _, jc := range cols[0] {
		if !uf.SameAsAny(jc, agg.GroupBy) {
			return nil
		}
	}

	var kids [2]algebra.Node
	var counts [2]string // COUNT(*) partial per aggregated side
	pushed := false
	for s := range kids {
		side := joinOp.Children[s]
		if d.KeyedOn(side, cols[s]) {
			kids[s] = refOf(side)
			continue
		}
		pushed = true
		at := "@" + strings.ReplaceAll(strings.Join(cols[s], ","), ".", ":")
		var aggs []algebra.AggSpec
		for i := range split {
			if f := split[i][s]; f != nil {
				name := partialName(f, at)
				if !slices.ContainsFunc(aggs, func(a algebra.AggSpec) bool { return a.As == name }) {
					aggs = append(aggs, algebra.AggSpec{Func: algebra.Sum, Arg: f, As: name})
				}
				split[i][s] = expr.C(name)
			}
		}
		counts[s] = "count(*)" + at
		aggs = append(aggs, algebra.AggSpec{Func: algebra.Count, As: counts[s]})
		kids[s] = algebra.NewAggregate(withGroupCols(cols[s], agg.GroupBy, schemas[s]), aggs, refOf(side))
	}
	if !pushed {
		return nil // both sides keyed: every group is one joined row already
	}
	newJoin := &algebra.Join{On: join.On, L: kids[0], R: kids[1]}
	items := make([]algebra.ProjectItem, 0, len(agg.GroupBy)+len(agg.Aggs))
	for _, g := range agg.GroupBy {
		items = append(items, algebra.ProjectItem{E: expr.C(g)})
	}
	for i, a := range agg.Aggs {
		var e expr.Expr
		for s := range kids {
			term := split[i][s]
			if term == nil && counts[s] != "" {
				term = expr.C(counts[s])
			}
			e = product(e, term)
		}
		items = append(items, algebra.ProjectItem{E: e, As: a.As})
	}
	return algebra.NewProject(items, newJoin)
}

// joinEquiv is the column-equality closure of join over its op's
// children: its own conditions plus those below either side.
func joinEquiv(d *dag.DAG, join *algebra.Join, joinOp *dag.OpNode) *algebra.ColEquiv {
	uf := algebra.NewColEquiv()
	for _, c := range join.On {
		uf.Union(c.Left, c.Right)
	}
	uf.Collect(d.RepTree(joinOp.Children[0]))
	uf.Collect(d.RepTree(joinOp.Children[1]))
	return uf
}

// withGroupCols is a pushed aggregate's grouping: the side's join columns
// plus the original group columns that live on that side.
func withGroupCols(joinCols, groupBy []string, s *catalog.Schema) []string {
	out := append([]string{}, joinCols...)
	for _, g := range groupBy {
		if s.Has(g) && !slices.Contains(out, g) {
			out = append(out, g)
		}
	}
	return out
}

// factors flattens a product into its factors.
func factors(e expr.Expr) []expr.Expr {
	if p, ok := e.(expr.Arith); ok && p.Op == expr.Times {
		return append(factors(p.L), factors(p.R)...)
	}
	return []expr.Expr{e}
}

// product multiplies two optional factors (nil is 1).
func product(a, b expr.Expr) expr.Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return expr.Arith{Op: expr.Times, L: a, R: b}
}

// intTyped reports whether e evaluates to Int (or NULL) on every row of
// s: Int columns and literals under +, - and *.
func intTyped(e expr.Expr, s *catalog.Schema) bool {
	switch t := e.(type) {
	case expr.Col:
		i, err := s.Resolve(t.Name)
		return err == nil && s.Cols[i].Type == value.Int
	case expr.Lit:
		return t.V.Kind == value.Int
	case expr.Arith:
		return t.Op != expr.Over && intTyped(t.L, s) && intTyped(t.R, s)
	}
	return false
}

// partialName names the SUM partial of factor f grouped at the join
// columns at ("@S:Item"). Dots become colons: a column name must not
// carry one, since Resolve reads it as a qualifier.
func partialName(f expr.Expr, at string) string {
	return "sum(" + strings.ReplaceAll(f.String(), ".", ":") + ")" + at
}

// isPartial reports whether agg is a factorized partial: every output
// carries a generated name.
func isPartial(agg *algebra.Aggregate) bool {
	for _, a := range agg.Aggs {
		if !strings.Contains(a.As, "@") {
			return false
		}
	}
	return len(agg.Aggs) > 0
}
