package tracks_test

import (
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/rules"
	"repro/internal/tracks"
	"repro/internal/txn"
)

// fixture bundles the expanded ProblemDept DAG over the paper's full-size
// instance with handles to the nodes of Figure 2: n3 is the SumOfSals
// aggregate (the paper's N3), n4 the Emp⋈Dept join (the paper's N4).
type fixture struct {
	db     *corpus.Database
	d      *dag.DAG
	cost   *tracks.Costing
	n3, n4 *dag.EqNode
	emp    *dag.EqNode
	dept   *dag.EqNode
	empT   *txn.Type
	deptT  *txn.Type
	empty  tracks.ViewSet
	setN3  tracks.ViewSet
	setN4  tracks.ViewSet
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	db := corpus.NewDatabase(corpus.PaperConfig())
	d, err := dag.FromTree(db.ProblemDept())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 200); err != nil {
		t.Fatal(err)
	}
	f := &fixture{db: db, d: d, cost: tracks.NewCosting(d, cost.PageIO{})}
	f.n3 = d.FindEq(db.SumOfSals())
	join := algebra.NewJoin(
		[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
		algebra.Scan(db.Catalog.MustGet("Emp")),
		algebra.Scan(db.Catalog.MustGet("Dept")),
	)
	f.n4 = d.FindEq(join)
	if f.n3 == nil || f.n4 == nil {
		t.Fatalf("missing paper nodes in DAG:\n%s", d.Render())
	}
	for _, e := range d.Eqs() {
		switch e.BaseRel {
		case "Emp":
			f.emp = e
		case "Dept":
			f.dept = e
		}
	}
	types := txn.PaperTypes()
	f.empT, f.deptT = types[0], types[1]
	f.empty = tracks.NewViewSet(d.Root)
	f.setN3 = tracks.NewViewSet(d.Root, f.n3)
	f.setN4 = tracks.NewViewSet(d.Root, f.n4)
	return f
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// TestTable1QueryCosts reproduces the first cost table of Section 3.6:
// the page-I/O cost of each query of Example 3.2 under each view set.
func TestTable1QueryCosts(t *testing.T) {
	f := newFixture(t)
	one := 1.0
	cases := []struct {
		name   string
		target *dag.EqNode
		bind   []string
		want   map[string]float64 // view set key -> cost
	}{
		{"Q2Ld", f.n3, []string{"Emp.DName"},
			map[string]float64{"empty": 11, "N3": 2, "N4": 11}},
		{"Q2Re", f.dept, []string{"Dept.DName"},
			map[string]float64{"empty": 2, "N3": 2, "N4": 2}},
		{"Q3e", f.n4, []string{"Dept.DName", "Dept.Budget"},
			map[string]float64{"empty": 13, "N3": 13, "N4": 11}},
		{"Q4e", f.emp, []string{"Emp.DName"},
			map[string]float64{"empty": 11, "N3": 11, "N4": 11}},
		{"Q5Ld", f.emp, []string{"Emp.DName"},
			map[string]float64{"empty": 11, "N3": 11, "N4": 11}},
		{"Q5Re", f.dept, []string{"Dept.DName"},
			map[string]float64{"empty": 2, "N3": 2, "N4": 2}},
	}
	sets := map[string]tracks.ViewSet{"empty": f.empty, "N3": f.setN3, "N4": f.setN4}
	for _, c := range cases {
		for name, vs := range sets {
			got := f.cost.QueryCost(c.target, c.bind, one, vs)
			if !approx(got, c.want[name]) {
				t.Errorf("%s under %s = %g, want %g", c.name, name, got, c.want[name])
			}
		}
	}
}

// TestTable2MaintenanceCosts reproduces the second table: the cost of
// physically maintaining N3 and N4 under each transaction type (N3 under
// >Emp costs 3; N4 costs 3 under >Emp and 21 under >Dept; N3 under >Dept
// costs nothing because N3 does not depend on Dept).
func TestTable2MaintenanceCosts(t *testing.T) {
	f := newFixture(t)
	get := func(vs tracks.ViewSet, ty *txn.Type) float64 {
		best, _ := f.cost.CostViewSet(vs, ty)
		return best.UpdateCost
	}
	if got := get(f.setN3, f.empT); !approx(got, 3) {
		t.Errorf("maintain N3 under >Emp = %g, want 3", got)
	}
	if got := get(f.setN3, f.deptT); !approx(got, 0) {
		t.Errorf("maintain N3 under >Dept = %g, want 0", got)
	}
	if got := get(f.setN4, f.empT); !approx(got, 3) {
		t.Errorf("maintain N4 under >Emp = %g, want 3", got)
	}
	if got := get(f.setN4, f.deptT); !approx(got, 21) {
		t.Errorf("maintain N4 under >Dept = %g, want 21", got)
	}
}

// trackVia classifies a track by which operation computes the class below
// the root select: the paper's E3 path (aggregate over the join) or E2
// path (join of SumOfSals with Dept, reached through the realignment
// projection).
func trackVia(f *fixture, tc tracks.TrackCost) string {
	rootOp := f.d.Root.Ops[0]
	below := rootOp.Children[0]
	op := tc.Track.Choice[below.ID]
	if op == nil {
		return "?"
	}
	switch op.Template.(type) {
	case *algebra.Aggregate:
		return "E3"
	case *algebra.Project:
		return "E2"
	default:
		return "?"
	}
}

// TestTable3TrackQueryCosts reproduces the third table: total query cost
// along each update track. The E2 path is the paper's
// N1,E1,N2,E2,N3,E4,N5(6) tracks; the E3 path is N1,E1,N2,E3,N4,E5,N5(6).
// Q3d costs nothing on the E3 path under >Dept (key-based elimination).
func TestTable3TrackQueryCosts(t *testing.T) {
	f := newFixture(t)
	want := map[string]map[string]map[string]float64{
		">Emp": {
			"E2": {"empty": 13, "N3": 2, "N4": 13},
			"E3": {"empty": 15, "N3": 15, "N4": 13},
		},
		">Dept": {
			"E2": {"empty": 11, "N3": 2, "N4": 22},
			"E3": {"empty": 11, "N3": 11, "N4": 11},
		},
	}
	// Note the E2/>Dept/{N4} cell: a track must contain every marked node
	// (Definition 3.2), so under {N4} the E2 path additionally carries
	// N4's delta computation (Q5Ld, 11 I/Os) on top of Q2Ld (11 under
	// {N4}). The paper's table lists per-path query costs without that
	// obligation; the combined minimum (32 via the E3 track) agrees.
	sets := map[string]tracks.ViewSet{"empty": f.empty, "N3": f.setN3, "N4": f.setN4}
	for _, ty := range []*txn.Type{f.empT, f.deptT} {
		for setName, vs := range sets {
			_, all := f.cost.CostViewSet(vs, ty)
			if len(all) != 2 {
				t.Fatalf("%s under %s: %d tracks, want 2", ty.Name, setName, len(all))
			}
			for _, tc := range all {
				via := trackVia(f, tc)
				wantCost, ok := want[ty.Name][via][setName]
				if !ok {
					t.Fatalf("unclassified track %q for %s", via, ty.Name)
				}
				if !approx(tc.QueryCost, wantCost) {
					t.Errorf("%s track %s under %s: query cost = %g, want %g\n%s",
						ty.Name, via, setName, tc.QueryCost, wantCost,
						tracks.FormatQueries(tc.Queries))
				}
			}
		}
	}
}

// TestTable4CombinedCosts reproduces the fourth table and the paper's
// headline: per-transaction minimum total costs are 13/11 (no additional
// views), 5/2 (materialize N3 = SumOfSals), 16/32 (materialize N4); with
// equal weights the averages are 12, 3.5 and 24 page I/Os — a reduction
// "to about 30% of the cost" for strategy {N3}, and {N4} is always worse
// than doing nothing.
func TestTable4CombinedCosts(t *testing.T) {
	f := newFixture(t)
	type row struct{ emp, dept float64 }
	want := map[string]row{
		"empty": {13, 11},
		"N3":    {5, 2},
		"N4":    {16, 32},
	}
	sets := map[string]tracks.ViewSet{"empty": f.empty, "N3": f.setN3, "N4": f.setN4}
	for name, vs := range sets {
		bestE, _ := f.cost.CostViewSet(vs, f.empT)
		bestD, _ := f.cost.CostViewSet(vs, f.deptT)
		if !approx(bestE.Total(), want[name].emp) {
			t.Errorf("%s >Emp total = %g, want %g\nqueries:\n%s",
				name, bestE.Total(), want[name].emp, tracks.FormatQueries(bestE.Queries))
		}
		if !approx(bestD.Total(), want[name].dept) {
			t.Errorf("%s >Dept total = %g, want %g\nqueries:\n%s",
				name, bestD.Total(), want[name].dept, tracks.FormatQueries(bestD.Queries))
		}
	}
	// Weighted averages with equal weights.
	types := []*txn.Type{f.empT, f.deptT}
	wEmpty, _ := f.cost.WeightedCost(f.empty, types)
	wN3, _ := f.cost.WeightedCost(f.setN3, types)
	wN4, _ := f.cost.WeightedCost(f.setN4, types)
	if !approx(wEmpty, 12) || !approx(wN3, 3.5) || !approx(wN4, 24) {
		t.Errorf("weighted averages = %g/%g/%g, want 12/3.5/24", wEmpty, wN3, wN4)
	}
	if ratio := wN3 / wEmpty; math.Abs(ratio-0.29166666) > 0.01 {
		t.Errorf("headline ratio = %g, want ≈0.29 (\"about 30%%\")", ratio)
	}
}

// TestN4AlwaysWorse checks the paper's observation that a wrong choice of
// additional views ({N4}) is worse than materializing nothing, for any
// weighting of the two transaction types.
func TestN4AlwaysWorse(t *testing.T) {
	f := newFixture(t)
	for _, wEmp := range []float64{0.01, 0.5, 1, 2, 100} {
		types := []*txn.Type{
			{Name: ">Emp", Weight: wEmp, Updates: f.empT.Updates},
			{Name: ">Dept", Weight: 1, Updates: f.deptT.Updates},
		}
		we, _ := f.cost.WeightedCost(f.empty, types)
		w4, _ := f.cost.WeightedCost(f.setN4, types)
		w3, _ := f.cost.WeightedCost(f.setN3, types)
		if w4 <= we {
			t.Errorf("weight %g: {N4} (%g) should be worse than empty (%g)", wEmp, w4, we)
		}
		if w3 >= we {
			t.Errorf("weight %g: {N3} (%g) should beat empty (%g)", wEmp, w3, we)
		}
	}
}

// TestTrackEnumerationCounts: the ProblemDept DAG has exactly two update
// tracks per transaction type ("There are four paths we need to
// consider" — two per updated relation).
func TestTrackEnumerationCounts(t *testing.T) {
	f := newFixture(t)
	for _, ty := range []*txn.Type{f.empT, f.deptT} {
		trs := tracks.Enumerate(f.d, f.empty, ty.UpdatedRels())
		if len(trs) != 2 {
			t.Errorf("%s: %d tracks, want 2", ty.Name, len(trs))
			for _, tr := range trs {
				t.Logf("track: %s", tr)
			}
		}
	}
}

// TestUnaffectedTransactionIsFree: a transaction on a relation outside
// the view costs nothing.
func TestUnaffectedTransactionIsFree(t *testing.T) {
	f := newFixture(t)
	adepts := &txn.Type{
		Name: ">ADepts", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "ADepts", Kind: txn.Insert, Size: 1}},
	}
	best, all := f.cost.CostViewSet(f.setN3, adepts)
	if len(all) != 1 || best.Total() != 0 {
		t.Errorf("unaffected txn: %d tracks, total %g; want 1 empty track, 0", len(all), best.Total())
	}
}

// TestMQOMergesSharedQueries: under {N4} and >Emp, the E2-path track also
// maintains N4; the Dept probes from the two paths are identical and must
// be charged once.
func TestMQOMergesSharedQueries(t *testing.T) {
	f := newFixture(t)
	_, all := f.cost.CostViewSet(f.setN4, f.empT)
	for _, tc := range all {
		if trackVia(f, tc) != "E2" {
			continue
		}
		deptQueries := 0
		for _, q := range tc.Queries {
			if q.Target.BaseRel == "Dept" {
				deptQueries++
			}
		}
		if deptQueries != 1 {
			t.Errorf("E2 track under {N4}: %d Dept queries after MQO, want 1\n%s",
				deptQueries, tracks.FormatQueries(tc.Queries))
		}
		if !approx(tc.QueryCost, 13) {
			t.Errorf("E2 track query cost under {N4} = %g, want 13 (Q4e 11 + shared Dept probe 2)", tc.QueryCost)
		}
	}
}

// TestUniformModelStillPicksN3: the optimizer machinery is model-generic;
// under the Uniform model the relative ordering of the three paper view
// sets must still favor {N3} for the paper workload.
func TestUniformModelStillPicksN3(t *testing.T) {
	f := newFixture(t)
	c := tracks.NewCosting(f.d, cost.Uniform{})
	types := []*txn.Type{f.empT, f.deptT}
	we, _ := c.WeightedCost(f.empty, types)
	w3, _ := c.WeightedCost(f.setN3, types)
	if w3 >= we {
		t.Errorf("uniform model: {N3} (%g) should still beat empty (%g)", w3, we)
	}
}

// TestViewIndexCols: the single-index policy mirrors the paper's "single
// index on DName".
func TestViewIndexCols(t *testing.T) {
	f := newFixture(t)
	if got := f.cost.ViewIndexCols(f.n3); len(got) != 1 || got[0] != "DName" {
		t.Errorf("index cols of N3 = %v, want [DName]", got)
	}
	if got := f.cost.ViewIndexCols(f.n4); len(got) != 1 || got[0] != "DName" {
		t.Errorf("index cols of N4 = %v, want [DName]", got)
	}
}

// TestStatsEstimation sanity-checks derived statistics on the paper
// instance: the join has 10000 rows, the SumOfSals aggregate 1000 groups.
func TestStatsEstimation(t *testing.T) {
	f := newFixture(t)
	est := tracks.NewEstimator(f.d)
	if st := est.StatsOf(f.n4); !approx(st.Card, 10000) {
		t.Errorf("card(N4) = %g, want 10000", st.Card)
	}
	if st := est.StatsOf(f.n3); !approx(st.Card, 1000) {
		t.Errorf("card(N3) = %g, want 1000", st.Card)
	}
}
