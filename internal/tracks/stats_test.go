package tracks

import (
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/rules"
	"repro/internal/value"
)

// TestFanoutUniformIsCardOverDistinct: on the paper's corpora every
// fan-out the cost model reads for a column whose values occur equally
// often in its base relation is bit-equal to max(1, Card/Distinct), the
// formula fanoutOf replaced, at every node of the expanded DAG. Equality,
// not a tolerance, is what keeps the §3.6 tables and the measured ==
// estimated parity tests where they were.
func TestFanoutUniformIsCardOverDistinct(t *testing.T) {
	corp := corpus.NewDatabase(corpus.PaperConfig())
	fig5 := corpus.Figure5Database(corpus.DefaultFigure5Config())
	for name, c := range map[string]struct {
		db   *corpus.Database
		view algebra.Node
	}{
		"ProblemDept": {corp, corp.ProblemDept()},
		"Figure5":     {fig5, fig5.Figure5View(1000)},
	} {
		uniform := map[string]bool{} // qualified base columns
		for _, rel := range c.db.Catalog.Names() {
			def := c.db.Catalog.MustGet(rel)
			for _, col := range def.Schema.Cols {
				if def.Stats.Fanout[col.Name] == def.Stats.Card/def.Stats.Distinct[col.Name] {
					uniform[col.QName()] = true
				}
			}
		}
		if !uniform["Emp.DName"] && !uniform["S.Item"] {
			t.Fatalf("%s: the join column is not uniform in the corpus: %v", name, uniform)
		}
		d, err := dag.FromTree(c.view)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Expand(rules.Default(), 400); err != nil {
			t.Fatal(err)
		}
		est := NewEstimator(d)
		checked := 0
		for _, e := range d.Eqs() {
			st := est.StatsOf(e)
			for _, col := range e.Schema().ColumnNames() {
				if !uniform[col] {
					continue
				}
				checked++
				cols := []string{col}
				if got, want := fanoutOf(st, cols), math.Max(1, st.Card/distinctOfCols(st, cols)); got != want {
					t.Errorf("%s %s: fanoutOf(%s) = %v, Card/Distinct = %v", name, e, col, got, want)
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no column checked", name)
		}
	}
}

// skewedRel is a two-column relation whose Item column holds the given
// numbers of rows per item.
func skewedRel(name string, perItem ...float64) *algebra.Rel {
	var card, sumSq float64
	for _, n := range perItem {
		card += n
		sumSq += n * n
	}
	return algebra.Scan(&catalog.TableDef{
		Name: name,
		Schema: catalog.NewSchema(
			catalog.Column{Qualifier: name, Name: "Key", Type: value.String},
			catalog.Column{Qualifier: name, Name: "Item", Type: value.String},
		),
		Stats: catalog.Stats{
			Card:     card,
			Distinct: map[string]float64{"Key": card, "Item": float64(len(perItem))},
			Fanout:   map[string]float64{"Key": 1, "Item": sumSq / card},
		},
	})
}

func statsOfTree(t *testing.T, n algebra.Node) catalog.Stats {
	t.Helper()
	d, err := dag.FromTree(n)
	if err != nil {
		t.Fatal(err)
	}
	return NewEstimator(d).StatsOf(d.Root)
}

// TestJoinFanoutByQualifiedName: both sides of a join carry a bare Item
// with different figures (S piles 21 of its 30 rows on one item, T has
// one row per item). In the join's statistics the equated column answers
// the same under either qualified name and under the bare one, a side's
// own column keeps its own figure times the other side's excess, and no
// lookup of S.Item is ever answered with T.Item's 1.
func TestJoinFanoutByQualifiedName(t *testing.T) {
	s := skewedRel("S", 21, 1, 1, 1, 1, 1, 1, 1, 1, 1) // mean 3, size-biased 15
	tt := skewedRel("T", 1, 1, 1, 1, 1, 1, 1, 1, 1, 1) // a key
	if got := fanoutOf(statsOfTree(t, s), []string{"S.Item"}); got != 15 {
		t.Fatalf("fanoutOf(S, S.Item) = %v, want (21²+9)/30 = 15", got)
	}
	for _, sides := range [][2]*algebra.Rel{{s, tt}, {tt, s}} {
		l, r := sides[0], sides[1]
		j := algebra.NewJoin([]algebra.JoinCond{{Left: l.Def.Name + ".Item", Right: r.Def.Name + ".Item"}}, l, r)
		st := statsOfTree(t, j)
		if st.Card != 30 {
			t.Fatalf("join Card = %v, want 30", st.Card)
		}
		for _, col := range []string{"S.Item", "T.Item", "Item"} {
			if got := fanoutOf(st, []string{col}); got != 15 {
				t.Errorf("%s ⋈ %s: fanoutOf(%s) = %v, want 15", l.Def.Name, r.Def.Name, col, got)
			}
		}
		// T.Key: one T row meets its item's S rows, 15 as a random
		// joined row sees it. S.Key stays a key.
		if got := fanoutOf(st, []string{"T.Key"}); got != 15 {
			t.Errorf("%s ⋈ %s: fanoutOf(T.Key) = %v, want 15", l.Def.Name, r.Def.Name, got)
		}
		if got := fanoutOf(st, []string{"S.Key"}); got != 1 {
			t.Errorf("%s ⋈ %s: fanoutOf(S.Key) = %v, want 1", l.Def.Name, r.Def.Name, got)
		}
	}

	// Joined on Key (T now one row per S row), the two Item columns are
	// different columns that share a bare name: each qualified name
	// answers for its own side.
	ones := make([]float64, 30)
	for i := range ones {
		ones[i] = 1
	}
	j := algebra.NewJoin([]algebra.JoinCond{{Left: "S.Key", Right: "T.Key"}}, s, skewedRel("T", ones...))
	st := statsOfTree(t, j)
	if got := fanoutOf(st, []string{"S.Item"}); got != 15 {
		t.Errorf("S ⋈[Key] T: fanoutOf(S.Item) = %v, want S's own 15", got)
	}
	if got := fanoutOf(st, []string{"T.Item"}); got != 1 {
		t.Errorf("S ⋈[Key] T: fanoutOf(T.Item) = %v, want T's own 1", got)
	}
}

// TestFanoutFallsBackNeverBelowUniform: several columns, an unknown
// column and a figure below Card/Distinct all answer Card/Distinct.
func TestFanoutFallsBackNeverBelowUniform(t *testing.T) {
	st := catalog.Stats{Card: 100,
		Distinct: map[string]float64{"a": 10, "b": 50},
		Fanout:   map[string]float64{"a": 40, "b": 1}}
	for _, c := range []struct {
		cols []string
		want float64
	}{
		{[]string{"a"}, 40},
		{[]string{"R.a"}, 40}, // qualified miss falls to the bare name
		{[]string{"b"}, 2},    // a figure below uniform is not believed
		{[]string{"a", "b"}, 1},
		{[]string{"c"}, 1},
	} {
		if got := fanoutOf(st, c.cols); got != c.want {
			t.Errorf("fanoutOf(%v) = %v, want %v", c.cols, got, c.want)
		}
	}
}
