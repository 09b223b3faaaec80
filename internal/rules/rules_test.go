package rules_test

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/dag"
	"repro/internal/expr"
	"repro/internal/rules"
	"repro/internal/value"
)

// schema helpers: A(K, X) keyed on K; B(K, Y) NOT keyed on K; C(K, Z)
// keyed on K.
func tableDef(name string, keyed bool) *catalog.TableDef {
	def := &catalog.TableDef{
		Name: name,
		Schema: catalog.NewSchema(
			catalog.Column{Qualifier: name, Name: "K", Type: value.Int},
			catalog.Column{Qualifier: name, Name: "V", Type: value.Int},
		),
		Indexes: []catalog.IndexDef{{Name: name + "_k", Columns: []string{"K"}}},
	}
	if keyed {
		def.Keys = [][]string{{"K"}}
	}
	return def
}

func expand(t *testing.T, tree algebra.Node) *dag.DAG {
	t.Helper()
	d, err := dag.FromTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 300); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAggPushRequiresKeyOnOtherSide: pushing the aggregate as it is below
// the join is legal only when the other side's join columns form a key
// (otherwise multiplicities would change — the paper's Figure 5 point).
// Without the key the factorized push carries COUNT(*) beside the sum
// instead (TestFactorizedPush).
func TestAggPushRequiresKeyOnOtherSide(t *testing.T) {
	build := func(keyed bool) algebra.Node {
		a := algebra.Scan(tableDef("A", false))
		b := algebra.Scan(tableDef("B", keyed))
		join := algebra.NewJoin([]algebra.JoinCond{{Left: "A.K", Right: "B.K"}}, a, b)
		return algebra.NewAggregate(
			[]string{"A.K"},
			[]algebra.AggSpec{{Func: algebra.Sum, Arg: expr.C("A.V"), As: "S"}},
			join,
		)
	}
	// Keyed: the pushed aggregate over A alone must appear.
	d := expand(t, build(true))
	pushed := algebra.NewAggregate(
		[]string{"A.K"},
		[]algebra.AggSpec{{Func: algebra.Sum, Arg: expr.C("A.V"), As: "S"}},
		algebra.Scan(tableDef("A", false)),
	)
	if d.FindEq(pushed) == nil {
		t.Errorf("keyed other side: aggregate should push down\n%s", d.Render())
	}
	// Unkeyed: it must not (a partial with COUNT(*) appears instead).
	d = expand(t, build(false))
	if d.FindEq(pushed) != nil {
		t.Errorf("unkeyed other side: aggregate must NOT push down\n%s", d.Render())
	}
}

// TestAggPushRequiresArgsOneSide: an aggregate whose argument spans both
// join sides (Figure 5's SUM(S.Quantity*T.Price)) cannot push.
func TestAggPushRequiresArgsOneSide(t *testing.T) {
	a := algebra.Scan(tableDef("A", true))
	b := algebra.Scan(tableDef("B", true))
	join := algebra.NewJoin([]algebra.JoinCond{{Left: "A.K", Right: "B.K"}}, a, b)
	agg := algebra.NewAggregate(
		[]string{"A.K"},
		[]algebra.AggSpec{{
			Func: algebra.Sum,
			Arg:  expr.Arith{Op: expr.Times, L: expr.C("A.V"), R: expr.C("B.V")},
			As:   "S",
		}},
		join,
	)
	d := expand(t, agg)
	// No aggregate over A alone or B alone may appear.
	for _, e := range d.NonLeafEqs() {
		for _, op := range e.Ops {
			if op.Kind() != algebra.KindAggregate {
				continue
			}
			if op.Children[0].IsLeaf() {
				t.Errorf("cross-side aggregate pushed below the join:\n%s", d.Render())
			}
		}
	}
}

// TestSelectPushJoinSplitsConjuncts: single-side conjuncts sink; the
// cross-side one stays above.
func TestSelectPushJoinSplitsConjuncts(t *testing.T) {
	a := algebra.Scan(tableDef("A", true))
	b := algebra.Scan(tableDef("B", true))
	join := algebra.NewJoin([]algebra.JoinCond{{Left: "A.K", Right: "B.K"}}, a, b)
	sel := algebra.NewSelect(expr.AndOf(
		expr.Compare(expr.GT, expr.C("A.V"), expr.IntLit(5)),
		expr.Compare(expr.LT, expr.C("B.V"), expr.C("A.V")),
	), join)
	d := expand(t, sel)
	pushed := algebra.NewSelect(
		expr.Compare(expr.GT, expr.C("A.V"), expr.IntLit(5)),
		algebra.Scan(tableDef("A", true)),
	)
	if d.FindEq(pushed) == nil {
		t.Errorf("A-side conjunct should have been pushed:\n%s", d.Render())
	}
}

// TestSelectPushAggregateGroupColsOnly: predicates on group columns sink
// below the aggregation; predicates on aggregate outputs do not.
func TestSelectPushAggregateGroupColsOnly(t *testing.T) {
	a := algebra.Scan(tableDef("A", true))
	agg := algebra.NewAggregate(
		[]string{"A.K"},
		[]algebra.AggSpec{{Func: algebra.Sum, Arg: expr.C("A.V"), As: "S"}},
		a,
	)
	sel := algebra.NewSelect(expr.Compare(expr.EQ, expr.C("A.K"), expr.IntLit(7)), agg)
	d := expand(t, sel)
	pushed := algebra.NewAggregate(
		[]string{"A.K"},
		[]algebra.AggSpec{{Func: algebra.Sum, Arg: expr.C("A.V"), As: "S"}},
		algebra.NewSelect(expr.Compare(expr.EQ, expr.C("A.K"), expr.IntLit(7)),
			algebra.Scan(tableDef("A", true))),
	)
	if d.FindEq(pushed) == nil {
		t.Errorf("group-column select should push below the aggregate:\n%s", d.Render())
	}

	// HAVING-style predicate on the aggregate output must not push.
	selAgg := algebra.NewSelect(expr.Compare(expr.GT, expr.C("S"), expr.IntLit(0)), agg)
	d2 := expand(t, selAgg)
	for _, e := range d2.NonLeafEqs() {
		for _, op := range e.Ops {
			if s, ok := op.Template.(*algebra.Select); ok {
				if op.Children[0].IsLeaf() && s.Pred.String() != "" {
					for _, c := range expr.ColumnsOf(s.Pred) {
						if c == "S" {
							t.Errorf("aggregate-output predicate pushed below aggregation:\n%s", d2.Render())
						}
					}
				}
			}
		}
	}
}

// TestJoinAssocBothDirections: a three-way chain reassociates and reaches
// fixpoint with both shapes present.
func TestJoinAssocBothDirections(t *testing.T) {
	a := algebra.Scan(tableDef("A", true))
	b := algebra.Scan(tableDef("B", true))
	c := algebra.Scan(tableDef("C", true))
	leftNested := algebra.NewJoin(
		[]algebra.JoinCond{{Left: "B.V", Right: "C.K"}},
		algebra.NewJoin([]algebra.JoinCond{{Left: "A.K", Right: "B.K"}}, a, b),
		c,
	)
	d := expand(t, leftNested)
	rightNested := algebra.NewJoin(
		[]algebra.JoinCond{{Left: "A.K", Right: "B.K"}},
		algebra.Scan(tableDef("A", true)),
		algebra.NewJoin([]algebra.JoinCond{{Left: "B.V", Right: "C.K"}},
			algebra.Scan(tableDef("B", true)),
			algebra.Scan(tableDef("C", true))),
	)
	if d.FindEq(rightNested) == nil {
		t.Errorf("right-nested shape missing after expansion:\n%s", d.Render())
	}
	// And both nestings share the same root class.
	if d.FindEq(leftNested) != d.FindEq(rightNested) {
		t.Error("the two nestings must be one equivalence class")
	}
}

// TestRuleNamesAreStable: the engine deduplicates rule applications by
// name; names must be distinct.
func TestRuleNamesAreStable(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range rules.Default() {
		if seen[r.Name()] {
			t.Errorf("duplicate rule name %q", r.Name())
		}
		seen[r.Name()] = true
	}
}

// floatDef is tableDef with a Float V.
func floatDef(name string, keyed bool) *catalog.TableDef {
	def := tableDef(name, keyed)
	def.Schema = catalog.NewSchema(
		catalog.Column{Qualifier: name, Name: "K", Type: value.Int},
		catalog.Column{Qualifier: name, Name: "V", Type: value.Float},
	)
	return def
}

// pushes applies AggJoinPush to the aggregate at the root of tree and
// returns the trees it produces, by label (@n is equivalence node n).
func pushes(t *testing.T, tree algebra.Node) []string {
	t.Helper()
	d, err := dag.FromTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, tr := range (rules.AggJoinPush{}).Apply(d, d.Root.Ops[0]) {
		out = append(out, tr.Label())
	}
	return out
}

func joinAK(a, b *catalog.TableDef) *algebra.Join {
	return algebra.NewJoin([]algebra.JoinCond{{Left: "A.K", Right: "B.K"}}, algebra.Scan(a), algebra.Scan(b))
}

func times(l, r string) expr.Expr { return expr.Arith{Op: expr.Times, L: expr.C(l), R: expr.C(r)} }

// TestFactorizedPush: an argument spanning both sides, or a side not
// keyed on its join columns, pushes as partials. A side not keyed is
// aggregated by its join columns into the SUM of its factors and a
// COUNT(*); a keyed side is used raw; the projection rebuilds SUM(f·g)
// as SA·SB, SUM(f) as SA·CB and COUNT(*) as CA·CB.
func TestFactorizedPush(t *testing.T) {
	for _, c := range []struct {
		name   string
		keyedB bool
		group  string
		aggs   []algebra.AggSpec
		want   string
	}{
		{"Figure 5: product over a keyed side", true, "B.K",
			[]algebra.AggSpec{{Func: algebra.Sum, Arg: times("A.V", "B.V"), As: "S"}, {Func: algebra.Count, As: "N"}},
			"Project[B.K, (sum(A:V)@A:K * B.V) AS S, count(*)@A:K AS N](" +
				"Join[A.K=B.K](Aggregate[SUM(A.V) AS sum(A:V)@A:K, COUNT(*) AS count(*)@A:K BY A.K](@0), @1))"},
		{"neither side keyed", false, "A.K",
			[]algebra.AggSpec{{Func: algebra.Sum, Arg: times("A.V", "B.V"), As: "S"},
				{Func: algebra.Sum, Arg: expr.C("A.V"), As: "SA"}, {Func: algebra.Count, As: "N"}},
			"Project[A.K, (sum(A:V)@A:K * sum(B:V)@B:K) AS S, (sum(A:V)@A:K * count(*)@B:K) AS SA, (count(*)@A:K * count(*)@B:K) AS N](" +
				"Join[A.K=B.K](Aggregate[SUM(A.V) AS sum(A:V)@A:K, COUNT(*) AS count(*)@A:K BY A.K](@0), " +
				"Aggregate[SUM(B.V) AS sum(B:V)@B:K, COUNT(*) AS count(*)@B:K BY B.K](@1)))"},
	} {
		t.Run(c.name, func(t *testing.T) {
			view := algebra.NewAggregate([]string{c.group}, c.aggs, joinAK(tableDef("A", false), tableDef("B", c.keyedB)))
			got := pushes(t, view)
			if len(got) != 1 || got[0] != c.want {
				t.Errorf("pushed %q\nwant [%s]", got, c.want)
			}
		})
	}
}

// TestFactorizedPushDoesNotFire: a Float factor (the partials' product
// would not be the per-row sum bit for bit), MIN, MAX and AVG (no
// distribution over a product), a residual, or a group column off the
// join keep the aggregate above the join.
func TestFactorizedPushDoesNotFire(t *testing.T) {
	a, b := tableDef("A", false), tableDef("B", true)
	sum := []algebra.AggSpec{{Func: algebra.Sum, Arg: times("A.V", "B.V"), As: "S"}}
	residual := joinAK(a, b)
	residual.Residual = expr.Compare(expr.GT, expr.C("A.V"), expr.C("B.V"))
	for _, c := range []struct {
		name string
		view algebra.Node
	}{
		{"Float factor", algebra.NewAggregate([]string{"B.K"}, sum, joinAK(floatDef("A", false), b))},
		{"MIN", algebra.NewAggregate([]string{"B.K"}, []algebra.AggSpec{{Func: algebra.Min, Arg: times("A.V", "B.V"), As: "S"}}, joinAK(a, b))},
		{"MAX", algebra.NewAggregate([]string{"B.K"}, []algebra.AggSpec{{Func: algebra.Max, Arg: times("A.V", "B.V"), As: "S"}}, joinAK(a, b))},
		{"AVG", algebra.NewAggregate([]string{"B.K"}, []algebra.AggSpec{{Func: algebra.Avg, Arg: times("A.V", "B.V"), As: "S"}}, joinAK(a, b))},
		{"residual", algebra.NewAggregate([]string{"B.K"}, sum, residual)},
		{"group column off the join", algebra.NewAggregate([]string{"A.V"}, sum, joinAK(a, b))},
	} {
		if got := pushes(t, c.view); len(got) != 0 {
			t.Errorf("%s: pushed %q", c.name, got)
		}
	}
}

// keyTyped is tableDef with its join column K declared as kind.
func keyTyped(name string, keyed bool, kind value.Kind) *catalog.TableDef {
	def := tableDef(name, keyed)
	def.Schema = catalog.NewSchema(
		catalog.Column{Qualifier: name, Name: "K", Type: kind},
		catalog.Column{Qualifier: name, Name: "V", Type: value.Int},
	)
	return def
}

// TestPushNeedsExactJoinKeys: a join matches by value.Equal, groups and
// keys by encoding, and the two differ on FLOAT (+0.0 and −0.0) and
// across kinds (Int 1 and Float 1.0). So neither push fires over a FLOAT
// join key or a key declared INT on one side and FLOAT on the other —
// not the keyed push, whose other side would no longer match one row per
// key, nor the factorized one, whose group would hold two key values.
// The same views over INT keys push.
func TestPushNeedsExactJoinKeys(t *testing.T) {
	keyed := []algebra.AggSpec{{Func: algebra.Sum, Arg: expr.C("A.V"), As: "S"}}
	factored := []algebra.AggSpec{{Func: algebra.Sum, Arg: times("A.V", "B.V"), As: "S"}}
	for _, c := range []struct {
		name        string
		left, right value.Kind
		pushes      bool
	}{
		{"INT keys", value.Int, value.Int, true},
		{"FLOAT keys", value.Float, value.Float, false},
		{"INT against FLOAT", value.Int, value.Float, false},
	} {
		for _, aggs := range [][]algebra.AggSpec{keyed, factored} {
			view := algebra.NewAggregate([]string{"B.K"}, aggs,
				joinAK(keyTyped("A", false, c.left), keyTyped("B", true, c.right)))
			if got := pushes(t, view); (len(got) > 0) != c.pushes {
				t.Errorf("%s, %s: pushed %q, want a push: %v", c.name, aggs[0].Arg, got, c.pushes)
			}
		}
	}
}

// TestKeyedPushUnchanged: with the other side keyed and every argument
// on one side, the rule's output is the keyed push's tree alone, byte
// for byte — no factorized tree beside it — so DAGs the keyed push
// already covered (the corporate schema's, §3.6's tables) do not move.
func TestKeyedPushUnchanged(t *testing.T) {
	aggs := []algebra.AggSpec{{Func: algebra.Sum, Arg: expr.C("A.V"), As: "S"}, {Func: algebra.Max, Arg: expr.C("A.V"), As: "M"}}
	view := algebra.NewAggregate([]string{"A.K"}, aggs, joinAK(tableDef("A", false), tableDef("B", true)))
	d, err := dag.FromTree(view)
	if err != nil {
		t.Fatal(err)
	}
	join := d.Root.Ops[0].Children[0]
	want := algebra.NewProject(
		[]algebra.ProjectItem{{E: expr.C("A.K")}, {E: expr.C("S")}, {E: expr.C("M")}},
		&algebra.Join{On: []algebra.JoinCond{{Left: "A.K", Right: "B.K"}},
			L: algebra.NewAggregate([]string{"A.K"}, aggs, dag.Ref{Eq: join.Ops[0].Children[0]}),
			R: dag.Ref{Eq: join.Ops[0].Children[1]}},
	).Label()
	if got := pushes(t, view); len(got) != 1 || got[0] != want {
		t.Errorf("pushed %q\nwant [%s]", got, want)
	}
}
