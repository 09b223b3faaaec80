package core_test

import (
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/rules"
	"repro/internal/txn"
)

func problemDeptOptimizer(t *testing.T) (*corpus.Database, *dag.DAG, *core.Optimizer) {
	t.Helper()
	db := corpus.NewDatabase(corpus.PaperConfig())
	d, err := dag.FromTree(db.ProblemDept())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 200); err != nil {
		t.Fatal(err)
	}
	return db, d, core.New(d, cost.PageIO{}, txn.PaperTypes())
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// TestExhaustiveChoosesSumOfSals is the paper's bottom line for Example
// 1.1: Algorithm OptimalViewSet must pick {N3} (the SumOfSals aggregate)
// as the additional view, at an average of 3.5 page I/Os per transaction.
func TestExhaustiveChoosesSumOfSals(t *testing.T) {
	db, d, opt := problemDeptOptimizer(t)
	res, err := opt.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	n3 := d.FindEq(db.SumOfSals())
	views := res.AdditionalViews(d)
	if len(views) != 1 || views[0] != n3 {
		t.Fatalf("chosen additional views = %v, want exactly the SumOfSals node %s (cost %g)",
			views, n3, res.Best.Weighted)
	}
	if !approx(res.Best.Weighted, 3.5) {
		t.Errorf("optimal weighted cost = %g, want 3.5", res.Best.Weighted)
	}
	// 4 candidate non-root views -> 16 sets explored.
	if res.Explored != 16 {
		t.Errorf("explored = %d, want 16", res.Explored)
	}
	// The full ranking includes the empty set at 12.
	foundEmpty := false
	for _, ev := range res.All {
		if len(ev.Set) == 1 {
			foundEmpty = true
			if !approx(ev.Weighted, 12) {
				t.Errorf("empty set cost = %g, want 12", ev.Weighted)
			}
		}
	}
	if !foundEmpty {
		t.Error("empty view set missing from ranking")
	}
}

// TestGreedyFindsOptimumOnPaperExample: greedy hill-climbing reaches
// {N3} here (a single addition already improves).
func TestGreedyFindsOptimumOnPaperExample(t *testing.T) {
	db, d, opt := problemDeptOptimizer(t)
	res := opt.Greedy()
	n3 := d.FindEq(db.SumOfSals())
	views := res.AdditionalViews(d)
	if len(views) != 1 || views[0] != n3 {
		t.Fatalf("greedy chose %v, want {SumOfSals}", views)
	}
	if !approx(res.Best.Weighted, 3.5) {
		t.Errorf("greedy cost = %g, want 3.5", res.Best.Weighted)
	}
	exh, _ := opt.Exhaustive()
	if res.Explored >= exh.Explored {
		t.Errorf("greedy explored %d sets, expected fewer than exhaustive's %d",
			res.Explored, exh.Explored)
	}
}

// TestSingleTreeHeuristic: restricting to one expression tree still finds
// a good set on the paper example (the maintenance-optimal tree contains
// N3) or degrades gracefully; here the query-optimal tree for the
// full-size instance is the aggregate-over-join tree, so the heuristic
// explores fewer sets.
func TestSingleTreeHeuristic(t *testing.T) {
	_, _, opt := problemDeptOptimizer(t)
	res, err := opt.SingleTree()
	if err != nil {
		t.Fatal(err)
	}
	exh, _ := opt.Exhaustive()
	if res.Explored >= exh.Explored {
		t.Errorf("single-tree explored %d, exhaustive %d", res.Explored, exh.Explored)
	}
	if res.Best.Weighted < exh.Best.Weighted-1e-9 {
		t.Errorf("heuristic cannot beat exhaustive: %g < %g", res.Best.Weighted, exh.Best.Weighted)
	}
}

// TestHeuristicMarking: the single-view-set heuristic marks parents of
// joins/aggregations and keeps the marking only if it beats the empty
// set; on the paper example it must not be worse than doing nothing.
func TestHeuristicMarking(t *testing.T) {
	_, _, opt := problemDeptOptimizer(t)
	res := opt.HeuristicMarking()
	if res.Explored != 2 {
		t.Errorf("heuristic-marking explored %d, want 2", res.Explored)
	}
	empty := opt.Evaluate()
	if res.Best.Weighted > empty.Weighted+1e-9 {
		t.Errorf("heuristic marking (%g) must not lose to empty (%g)",
			res.Best.Weighted, empty.Weighted)
	}
}

// TestExample31ADeptsStatus reproduces Example 3.1/Figure 3: when only
// ADepts is updated, the optimizer materializes additional view(s) that
// (a) are not affected by ADepts updates (so they never need maintenance)
// and (b) make ΔADepts processing a single indexed lookup — total cost 2
// versus 13 with no additional views. "Note also that the expression tree
// used for processing updates on a view can be quite different from the
// expression tree used for evaluating the view."
func TestExample31ADeptsStatus(t *testing.T) {
	db := corpus.NewDatabase(corpus.PaperConfig())
	d, err := dag.FromTree(db.ADeptsStatus())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 400); err != nil {
		t.Fatal(err)
	}
	adeptsOnly := []*txn.Type{{
		Name: ">ADepts", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "ADepts", Kind: txn.Insert, Size: 1}},
	}}
	opt := core.New(d, cost.PageIO{}, adeptsOnly)
	res, err := opt.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	empty := opt.Evaluate()
	if !approx(empty.Weighted, 13) {
		t.Errorf("no additional views: cost = %g, want 13", empty.Weighted)
	}
	if !approx(res.Best.Weighted, 2) {
		t.Errorf("optimal cost = %g, want 2 (single V1 lookup)", res.Best.Weighted)
	}
	views := res.AdditionalViews(d)
	if len(views) == 0 {
		t.Fatal("optimizer chose no additional views")
	}
	for _, v := range views {
		if d.Affected(v, []string{"ADepts"}) {
			t.Errorf("chosen view %s depends on ADepts and would need maintenance", v)
		}
	}
	// The chosen V1 must join Dept with employee-salary information —
	// i.e. depend on both Emp and Dept but not ADepts.
	rels := d.BaseRelsOf(views[0])
	if len(rels) != 2 || rels[0] != "Dept" || rels[1] != "Emp" {
		t.Errorf("V1 should be over {Dept, Emp}, got %v", rels)
	}
}

// TestFigure5ShieldingMatchesExhaustive: on the Figure 5 schema the
// aggregate's parent equivalence node is an articulation node; Shielded
// must find the exhaustive optimum while costing strictly fewer sets.
func TestFigure5ShieldingMatchesExhaustive(t *testing.T) {
	db := corpus.Figure5Database(corpus.DefaultFigure5Config())
	d, err := dag.FromTree(db.Figure5View(100_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 400); err != nil {
		t.Fatal(err)
	}
	arts := d.ArticulationEqs()
	foundAgg := false
	for _, a := range arts {
		for _, op := range a.Ops {
			if op.Kind() == algebra.KindAggregate {
				foundAgg = true
			}
		}
	}
	if !foundAgg {
		t.Fatalf("aggregate parent should be an articulation node; got %v\n%s", arts, d.Render())
	}
	types := []*txn.Type{
		{Name: ">T", Weight: 1, Updates: []txn.RelUpdate{{Rel: "T", Kind: txn.Modify, Size: 1, Cols: []string{"Price"}}}},
		{Name: "+S", Weight: 1, Updates: []txn.RelUpdate{{Rel: "S", Kind: txn.Insert, Size: 1}}},
		{Name: ">R", Weight: 0.5, Updates: []txn.RelUpdate{{Rel: "R", Kind: txn.Modify, Size: 1, Cols: []string{"RName"}}}},
	}
	opt := core.New(d, cost.PageIO{}, types)
	exh, err := opt.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := opt.Shielded()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sh.Best.Weighted, exh.Best.Weighted) {
		t.Errorf("shielded best %g != exhaustive best %g (shielded set %s, exhaustive set %s)",
			sh.Best.Weighted, exh.Best.Weighted, sh.Best.Set.Key(), exh.Best.Set.Key())
	}
	if sh.Explored >= exh.Explored {
		t.Errorf("shielded explored %d sets, exhaustive %d — no reduction", sh.Explored, exh.Explored)
	}
	t.Logf("figure 5: exhaustive %d sets, shielded %d sets, optimum %g",
		exh.Explored, sh.Explored, exh.Best.Weighted)
}

// TestShieldedOnProblemDept: the ProblemDept DAG has articulation nodes
// too (or none); either way Shielded must return the same optimum.
func TestShieldedOnProblemDept(t *testing.T) {
	_, _, opt := problemDeptOptimizer(t)
	exh, err := opt.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := opt.Shielded()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sh.Best.Weighted, exh.Best.Weighted) {
		t.Errorf("shielded %g != exhaustive %g", sh.Best.Weighted, exh.Best.Weighted)
	}
}

// TestExhaustiveLimit: MaxSets is a soft budget — an over-budget lattice
// yields the best incumbent found plus the Truncated flag rather than an
// error, and an in-budget search stays untruncated.
func TestExhaustiveLimit(t *testing.T) {
	_, _, opt := problemDeptOptimizer(t)
	full, err := opt.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Errorf("in-budget search reported Truncated")
	}

	opt.MaxSets = 8
	res, err := opt.Exhaustive()
	if err != nil {
		t.Fatalf("over-budget exhaustive should degrade, not error: %v", err)
	}
	if !res.Truncated {
		t.Error("over-budget search should report Truncated")
	}
	if res.Explored != 8 {
		t.Errorf("explored %d sets, budget was 8", res.Explored)
	}
	if res.Pruned != full.Explored-8 {
		t.Errorf("pruned = %d, want %d", res.Pruned, full.Explored-8)
	}
	// The incumbent must be the best of the first 8 masks: candidate
	// bits are enumerated in ascending mask order, so the incumbent can
	// only improve once the rest of the lattice is allowed in.
	if res.Best.Weighted < full.Best.Weighted {
		t.Errorf("truncated best %g beats full best %g", res.Best.Weighted, full.Best.Weighted)
	}
	// Branch-and-bound prunes, so a budget of 8 can be enough to finish
	// the proof — in that case the result must be the optimum.
	pres, err := opt.BranchAndBound()
	if err != nil {
		t.Fatal(err)
	}
	if !pres.Truncated && pres.Best.Weighted != full.Best.Weighted {
		t.Errorf("untruncated branch-and-bound best %g != exhaustive best %g",
			pres.Best.Weighted, full.Best.Weighted)
	}
	// A budget of 2 cannot finish the proof: the search must degrade to
	// an incumbent, say so, and cost exactly the first two sets of its
	// fixed order — the same two on every run.
	opt.MaxSets = 2
	pres, err = opt.BranchAndBound()
	if err != nil {
		t.Fatal(err)
	}
	if !pres.Truncated {
		t.Error("over-budget branch-and-bound should report Truncated")
	}
	if pres.Explored != 2 {
		t.Errorf("branch-and-bound explored %d sets, budget was 2", pres.Explored)
	}
	again, err := opt.BranchAndBound()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(again), canonical(pres); got != want {
		t.Errorf("truncated search differs between runs:\n%s\nvs\n%s", got, want)
	}
	opt.MaxSets = 0
}

// TestWeightSensitivity: with >Dept overwhelmingly frequent, {N3} remains
// optimal (2 vs 11); with >Emp dominant it also remains optimal (5 vs
// 13) — the paper notes {N3} wins "independent of the weighting".
func TestWeightSensitivity(t *testing.T) {
	db, d, _ := problemDeptOptimizer(t)
	n3 := d.FindEq(db.SumOfSals())
	for _, weights := range [][2]float64{{100, 1}, {1, 100}, {1, 1}} {
		types := []*txn.Type{
			{Name: ">Emp", Weight: weights[0], Updates: txn.PaperTypes()[0].Updates},
			{Name: ">Dept", Weight: weights[1], Updates: txn.PaperTypes()[1].Updates},
		}
		opt := core.New(d, cost.PageIO{}, types)
		res, err := opt.Exhaustive()
		if err != nil {
			t.Fatal(err)
		}
		views := res.AdditionalViews(d)
		if len(views) != 1 || views[0] != n3 {
			t.Errorf("weights %v: chose %v, want {N3}", weights, views)
		}
	}
}
