// Package rules provides the equivalence rules that grow an expression
// DAG (Section 2.1: "rule-based query optimizers generate an expression
// DAG ... by using a set of equivalence rules"). The framework is
// rule-pluggable; this default set is sufficient to generate every DAG
// the paper exhibits:
//
//   - SelectPushJoin: σ_p(A⋈B) ⇒ σ_rest(σ_pA(A) ⋈ σ_pB(B))
//   - SelectPushAggregate: σ_p(γ(X)) ⇒ γ(σ_p(X)) for group-column
//     predicates
//   - JoinAssoc: (A⋈B)⋈C ⇔ A⋈(B⋈C) (both directions, condition-aware)
//   - AggJoinPush: γ(A⋈B) ⇒ π(γ'(A)⋈B) when B's join columns are a key
//     of B and the grouping determines the join key (eager aggregation in
//     the style of Yan–Larson) — the rule that produces Figure 1's left
//     tree and Figure 3's V1 — and, where that cannot apply, pushes
//     SUM/COUNT(*) partials over Int factors with each unkeyed side's
//     COUNT(*) carried along (factorized IVM), Figure 5's N10.
//
// Rules that change output column order or naming re-align with a pure
// projection, keeping memo equivalence strict.
package rules

import (
	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/dag"
	"repro/internal/expr"
)

// Default returns the standard rule set.
func Default() []dag.Rule {
	return []dag.Rule{
		SelectPushJoin{},
		SelectPushAggregate{},
		JoinAssoc{},
		AggJoinPush{},
	}
}

// refOf wraps an equivalence node for use as a rule-output leaf.
func refOf(e *dag.EqNode) algebra.Node { return dag.Ref{Eq: e} }

// SelectPushJoin pushes selection conjuncts into the sides of a child
// join they fully resolve against.
type SelectPushJoin struct{}

// Name implements dag.Rule.
func (SelectPushJoin) Name() string { return "select-push-join" }

// Apply implements dag.Rule.
func (SelectPushJoin) Apply(d *dag.DAG, op *dag.OpNode) []algebra.Node {
	sel, ok := op.Template.(*algebra.Select)
	if !ok {
		return nil
	}
	child := op.Children[0]
	var out []algebra.Node
	for _, childOp := range child.Ops {
		join, ok := childOp.Template.(*algebra.Join)
		if !ok {
			continue
		}
		l, r := childOp.Children[0], childOp.Children[1]
		var lConj, rConj, rest []expr.Expr
		for _, c := range expr.Conjuncts(sel.Pred) {
			switch {
			case expr.RefersOnly(c, l.Schema()):
				lConj = append(lConj, c)
			case expr.RefersOnly(c, r.Schema()):
				rConj = append(rConj, c)
			default:
				rest = append(rest, c)
			}
		}
		if len(lConj) == 0 && len(rConj) == 0 {
			continue
		}
		var lNode algebra.Node = refOf(l)
		if len(lConj) > 0 {
			lNode = algebra.NewSelect(expr.AndOf(lConj...), lNode)
		}
		var rNode algebra.Node = refOf(r)
		if len(rConj) > 0 {
			rNode = algebra.NewSelect(expr.AndOf(rConj...), rNode)
		}
		var tree algebra.Node = &algebra.Join{
			On: join.On, Residual: join.Residual, L: lNode, R: rNode,
		}
		if len(rest) > 0 {
			tree = algebra.NewSelect(expr.AndOf(rest...), tree)
		}
		out = append(out, tree)
	}
	return out
}

// SelectPushAggregate pushes a selection below a child aggregation when
// every conjunct references only group-by columns.
type SelectPushAggregate struct{}

// Name implements dag.Rule.
func (SelectPushAggregate) Name() string { return "select-push-aggregate" }

// Apply implements dag.Rule.
func (SelectPushAggregate) Apply(d *dag.DAG, op *dag.OpNode) []algebra.Node {
	sel, ok := op.Template.(*algebra.Select)
	if !ok {
		return nil
	}
	child := op.Children[0]
	var out []algebra.Node
	for _, childOp := range child.Ops {
		agg, ok := childOp.Template.(*algebra.Aggregate)
		if !ok {
			continue
		}
		groupSet := map[string]bool{}
		for _, g := range agg.GroupBy {
			groupSet[g] = true
		}
		pushable := true
		for _, col := range expr.ColumnsOf(sel.Pred) {
			if !groupSet[col] {
				pushable = false
				break
			}
		}
		if !pushable {
			continue
		}
		inner := algebra.NewSelect(sel.Pred, refOf(childOp.Children[0]))
		out = append(out, &algebra.Aggregate{
			GroupBy: agg.GroupBy, Aggs: agg.Aggs, Input: inner,
		})
	}
	return out
}

// JoinAssoc reassociates nested equijoins:
//
//	(A ⋈p B) ⋈q C  ⇒  A ⋈p (B ⋈q C)   when q's left columns are all in B
//	A ⋈p (B ⋈q C)  ⇒  (A ⋈p B) ⋈q C   when p's right columns are all in B
//
// Both directions preserve the flat column order (A,B,C), so no
// realignment projection is needed.
type JoinAssoc struct{}

// Name implements dag.Rule.
func (JoinAssoc) Name() string { return "join-assoc" }

// Apply implements dag.Rule.
func (JoinAssoc) Apply(d *dag.DAG, op *dag.OpNode) []algebra.Node {
	outer, ok := op.Template.(*algebra.Join)
	if !ok || outer.Residual != nil {
		return nil
	}
	var out []algebra.Node
	// Left-nested: (A ⋈p B) ⋈q C.
	for _, childOp := range op.Children[0].Ops {
		inner, ok := childOp.Template.(*algebra.Join)
		if !ok || inner.Residual != nil {
			continue
		}
		a, b := childOp.Children[0], childOp.Children[1]
		c := op.Children[1]
		if !allResolve(outer.LeftCols(), b.Schema()) {
			continue
		}
		// p's left columns must be in A for the rewrite to type-check.
		if !allResolve(inner.LeftCols(), a.Schema()) {
			continue
		}
		bc := algebra.NewJoin(outer.On, refOf(b), refOf(c))
		out = append(out, algebra.NewJoin(inner.On, refOf(a), bc))
	}
	// Right-nested: A ⋈p (B ⋈q C).
	for _, childOp := range op.Children[1].Ops {
		inner, ok := childOp.Template.(*algebra.Join)
		if !ok || inner.Residual != nil {
			continue
		}
		b, c := childOp.Children[0], childOp.Children[1]
		a := op.Children[0]
		if !allResolve(outer.RightCols(), b.Schema()) {
			continue
		}
		if !allResolve(inner.RightCols(), c.Schema()) {
			continue
		}
		ab := algebra.NewJoin(outer.On, refOf(a), refOf(b))
		out = append(out, algebra.NewJoin(inner.On, ab, refOf(c)))
	}
	return out
}

func allResolve(cols []string, s *catalog.Schema) bool {
	for _, c := range cols {
		if !s.Has(c) {
			return false
		}
	}
	return true
}
