package paper

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/rules"
	"repro/internal/txn"
)

// Figure3 reproduces Example 3.1/Figure 3: for ADeptsStatus under updates
// only to ADepts, the query-optimal plan differs from the
// maintenance-optimal one, and the optimizer materializes a V1-shaped
// auxiliary view that never needs maintenance.
func Figure3(cfg corpus.Config) (string, error) {
	db := corpus.NewDatabase(cfg)
	d, err := dag.FromTree(db.ADeptsStatus())
	if err != nil {
		return "", err
	}
	if _, err := d.Expand(rules.Default(), 400); err != nil {
		return "", err
	}
	adeptsOnly := []*txn.Type{{
		Name: ">ADepts", Weight: 1,
		Updates: []txn.RelUpdate{{Rel: "ADepts", Kind: txn.Insert, Size: 1}},
	}}
	opt := core.New(d, cost.PageIO{}, adeptsOnly)
	res, err := opt.Exhaustive()
	if err != nil {
		return "", err
	}
	empty := opt.Evaluate()

	var b strings.Builder
	b.WriteString("Figure 3 / Example 3.1: ADeptsStatus under updates to ADepts only\n")
	fmt.Fprintf(&b, "no additional views: %.4g page I/Os per transaction\n", empty.Weighted)
	fmt.Fprintf(&b, "optimal view set %s: %.4g page I/Os per transaction\n",
		res.Best.Set.Key(), res.Best.Weighted)
	for _, v := range res.AdditionalViews(d) {
		rels := d.BaseRelsOf(v)
		fmt.Fprintf(&b, "  V1 = %s over %v (unaffected by ADepts updates: no maintenance cost)\n",
			d.RepTree(v).Label(), rels)
	}
	b.WriteString("the maintenance-optimal plan differs from the query-optimal plan, as the paper notes.\n")
	return b.String(), nil
}

// Figure5Report reproduces Figure 5 and Section 4.2: the aggregate's
// parent equivalence node is an articulation node, and the Shielded
// search finds the exhaustive optimum while costing fewer view sets.
type Figure5Report struct {
	ArticulationNodes  int
	ExhaustiveExplored int
	ShieldedExplored   int
	ExhaustiveBest     float64
	ShieldedBest       float64
}

// Figure5 runs the articulation-node experiment.
func Figure5(cfg corpus.Figure5Config) (*Figure5Report, string, error) {
	db := corpus.Figure5Database(cfg)
	d, err := dag.FromTree(db.Figure5View(1 << 40))
	if err != nil {
		return nil, "", err
	}
	if _, err := d.Expand(rules.Default(), 400); err != nil {
		return nil, "", err
	}
	opt := core.New(d, cost.PageIO{}, figure5Types())
	exh, err := opt.Exhaustive()
	if err != nil {
		return nil, "", err
	}
	sh, err := opt.Shielded()
	if err != nil {
		return nil, "", err
	}
	rep := &Figure5Report{
		ArticulationNodes:  len(d.ArticulationEqs()),
		ExhaustiveExplored: exh.Explored,
		ShieldedExplored:   sh.Explored,
		ExhaustiveBest:     exh.Best.Weighted,
		ShieldedBest:       sh.Best.Weighted,
	}
	var b strings.Builder
	b.WriteString("Figure 5 / §4.2: articulation-node shielding on the R/S/T sales schema\n")
	b.WriteString("view tree:\n")
	b.WriteString(indent(renderTree(db, d), "  "))
	fmt.Fprintf(&b, "articulation equivalence nodes: %d\n", rep.ArticulationNodes)
	fmt.Fprintf(&b, "exhaustive: %d view sets costed, optimum %.4g\n",
		rep.ExhaustiveExplored, rep.ExhaustiveBest)
	fmt.Fprintf(&b, "shielded:   %d view sets costed, optimum %.4g",
		rep.ShieldedExplored, rep.ShieldedBest)
	if rep.ShieldedBest == rep.ExhaustiveBest {
		b.WriteString("  (matches exhaustive)\n")
	} else {
		b.WriteString("  (MISMATCH)\n")
	}
	return rep, b.String(), nil
}

// figure5Types is the Figure 5 workload: modifications dominated by the
// T fact relation, with lighter S inserts and R renames.
func figure5Types() []*txn.Type {
	return []*txn.Type{
		{Name: ">T", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "T", Kind: txn.Modify, Size: 1, Cols: []string{"Price"}}}},
		{Name: "+S", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "S", Kind: txn.Insert, Size: 1}}},
		{Name: ">R", Weight: 0.5, Updates: []txn.RelUpdate{
			{Rel: "R", Kind: txn.Modify, Size: 1, Cols: []string{"RName"}}}},
	}
}

// Figure5Optimizer builds the Figure 5 DAG and workload as a fresh
// optimizer, for search-strategy comparisons and benchmarks.
func Figure5Optimizer(cfg corpus.Figure5Config) (*core.Optimizer, error) {
	db := corpus.Figure5Database(cfg)
	d, err := dag.FromTree(db.Figure5View(1 << 40))
	if err != nil {
		return nil, err
	}
	if _, err := d.Expand(rules.Default(), 400); err != nil {
		return nil, err
	}
	return core.New(d, cost.PageIO{}, figure5Types()), nil
}

// BranchAndBound compares the branch-and-bound search against the
// exhaustive one on the Figure 5 schema: same chosen view set, fewer
// view sets costed, cost-cache hit rate reported. Each search gets a
// fresh optimizer so the cache statistics belong to that search alone.
func BranchAndBound(cfg corpus.Figure5Config) (string, error) {
	exhOpt, err := Figure5Optimizer(cfg)
	if err != nil {
		return "", err
	}
	exh, err := exhOpt.Exhaustive()
	if err != nil {
		return "", err
	}
	bnbOpt, err := Figure5Optimizer(cfg)
	if err != nil {
		return "", err
	}
	bnb, err := bnbOpt.BranchAndBound()
	if err != nil {
		return "", err
	}
	hits, misses := bnbOpt.Cost.CacheStats()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	var b strings.Builder
	b.WriteString("Branch-and-bound vs. exhaustive OptimalViewSet (Figure 5 schema)\n")
	fmt.Fprintf(&b, "exhaustive:       %d view sets costed, optimum %s = %.4g\n",
		exh.Explored, exh.Best.Set.Key(), exh.Best.Weighted)
	fmt.Fprintf(&b, "branch-and-bound: %d costed, %d pruned by the update-cost bound, optimum %s = %.4g",
		bnb.Explored, bnb.Pruned, bnb.Best.Set.Key(), bnb.Best.Weighted)
	if bnb.Best.Set.Key() == exh.Best.Set.Key() && bnb.Best.Weighted == exh.Best.Weighted {
		b.WriteString("  (matches exhaustive)\n")
	} else {
		b.WriteString("  (MISMATCH)\n")
	}
	fmt.Fprintf(&b, "track-cost cache: %d hits / %d misses (%.0f%% hit rate)\n",
		hits, misses, 100*rate)
	return b.String(), nil
}

func renderTree(db *corpus.Database, d *dag.DAG) string {
	return d.Render()
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
