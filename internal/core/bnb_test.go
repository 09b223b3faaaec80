package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/paper"
	"repro/internal/rules"
)

// canonical renders a result byte for byte: two runs of one search must
// render identically.
func canonical(r *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "best=%s w=%.17g explored=%d pruned=%d trunc=%v\n",
		r.Best.Set.Key(), r.Best.Weighted, r.Explored, r.Pruned, r.Truncated)
	for _, ev := range r.All {
		fmt.Fprintf(&b, "%s %.17g\n", ev.Set.Key(), ev.Weighted)
	}
	return b.String()
}

// TestParallelMatchesExhaustiveRandom is the equivalence property: over
// random views and random weighted workloads, branch-and-bound returns
// the exhaustive optimum, prices every costed set identically, costs
// every minimum-cost set, and accounts for the whole lattice.
func TestParallelMatchesExhaustiveRandom(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + trial)))
			cfg := corpus.Config{
				Departments:  3 + rng.Intn(8),
				EmpsPerDept:  2 + rng.Intn(4),
				ADeptsEveryN: 2,
			}
			db := corpus.NewDatabase(cfg)
			view := corpus.RandomView(rng, db)
			d, err := dag.FromTree(view)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Expand(rules.Default(), 200); err != nil {
				t.Fatal(err)
			}
			cands := 0
			for _, e := range d.NonLeafEqs() {
				if !d.IsRoot(e) {
					cands++
				}
			}
			if cands > 10 {
				t.Skipf("lattice of 2^%d sets too large for the exhaustive oracle", cands)
			}
			types := corpus.RandomWorkload(rng)

			opt := core.New(d, cost.PageIO{}, types)
			exh, err := opt.Exhaustive()
			if err != nil {
				t.Fatal(err)
			}
			exhCost := map[string]float64{}
			for _, ev := range exh.All {
				exhCost[ev.Set.Key()] = ev.Weighted
			}

			par, err := opt.BranchAndBound()
			if err != nil {
				t.Fatal(err)
			}
			if par.Truncated {
				t.Fatal("unexpected truncation")
			}
			if par.Best.Set.Key() != exh.Best.Set.Key() || par.Best.Weighted != exh.Best.Weighted {
				t.Fatalf("best %s=%g, exhaustive %s=%g (view %s)",
					par.Best.Set.Key(), par.Best.Weighted,
					exh.Best.Set.Key(), exh.Best.Weighted, view.Label())
			}
			if par.Explored+par.Pruned != exh.Explored {
				t.Fatalf("explored %d + pruned %d != lattice %d",
					par.Explored, par.Pruned, exh.Explored)
			}
			// Every costed set is priced exactly as the oracle priced it,
			// and every optimum survives the pruning.
			for _, ev := range par.All {
				w, ok := exhCost[ev.Set.Key()]
				if !ok || w != ev.Weighted {
					t.Fatalf("costed set %s=%g not in exhaustive log (want %g)",
						ev.Set.Key(), ev.Weighted, w)
				}
			}
			kept := map[string]bool{}
			for _, ev := range par.All {
				kept[ev.Set.Key()] = true
			}
			for _, ev := range exh.All {
				if ev.Weighted == exh.Best.Weighted && !kept[ev.Set.Key()] {
					t.Fatalf("optimum-cost set %s pruned", ev.Set.Key())
				}
			}
			// Both All slices share the same total order, so the
			// branch-and-bound log must be an order-preserving subsequence.
			i := 0
			for _, ev := range par.All {
				for i < len(exh.All) && exh.All[i].Set.Key() != ev.Set.Key() {
					i++
				}
				if i == len(exh.All) {
					t.Fatal("All is not a subsequence of the exhaustive All")
				}
				i++
			}
		})
	}
}

// TestParallelPaperScenarios runs the paper's own workloads through both
// search paths: the §3.6 ProblemDept tables fixture and the Figure 5
// articulation-node schema must agree with the exhaustive optimum.
func TestParallelPaperScenarios(t *testing.T) {
	f, err := paper.NewFixture(corpus.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	exh, err := f.Optimum()
	if err != nil {
		t.Fatal(err)
	}
	opt := core.New(f.D, cost.PageIO{}, f.Types)
	par, err := opt.BranchAndBound()
	if err != nil {
		t.Fatal(err)
	}
	if par.Best.Set.Key() != exh.Best.Set.Key() || par.Best.Weighted != exh.Best.Weighted {
		t.Fatalf("ProblemDept: branch-and-bound %s=%g, exhaustive %s=%g",
			par.Best.Set.Key(), par.Best.Weighted, exh.Best.Set.Key(), exh.Best.Weighted)
	}
	// The paper's per-transaction costs (Table 4's winning row) must come
	// out identically on the branch-and-bound path.
	for name, tc := range exh.Best.PerTxn {
		pc, ok := par.Best.PerTxn[name]
		if !ok || pc.Total() != tc.Total() {
			t.Fatalf("ProblemDept %s: branch-and-bound total %g, exhaustive %g", name, pc.Total(), tc.Total())
		}
	}

	fig5, err := paper.Figure5Optimizer(corpus.DefaultFigure5Config())
	if err != nil {
		t.Fatal(err)
	}
	exh5, err := fig5.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	par5, err := fig5.BranchAndBound()
	if err != nil {
		t.Fatal(err)
	}
	if par5.Best.Set.Key() != exh5.Best.Set.Key() || par5.Best.Weighted != exh5.Best.Weighted {
		t.Fatalf("Figure5: branch-and-bound %s=%g, exhaustive %s=%g",
			par5.Best.Set.Key(), par5.Best.Weighted, exh5.Best.Set.Key(), exh5.Best.Weighted)
	}
	if par5.Pruned == 0 {
		t.Fatal("Figure5: expected the bound to prune at least one view set")
	}
	if hits, misses := fig5.Cost.CacheStats(); hits == 0 || misses == 0 {
		t.Fatalf("Figure5: implausible cache stats hits=%d misses=%d", hits, misses)
	}
}
