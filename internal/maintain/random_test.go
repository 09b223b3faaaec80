package maintain_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/tracks"
)

// TestRandomizedEndToEnd is the system-level soundness property: for
// random views, random materialized view sets and random transaction
// streams, every materialized node always equals full recomputation.
func TestRandomizedEndToEnd(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			cfg := corpus.Config{
				Departments:  3 + rng.Intn(5),
				EmpsPerDept:  2 + rng.Intn(3),
				ADeptsEveryN: 2,
			}
			db := corpus.NewDatabase(cfg)
			view := corpus.RandomView(rng, db)
			d, err := dag.FromTree(view)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Expand(rules.Default(), 300); err != nil {
				t.Fatal(err)
			}
			// Random additional view set.
			vs := tracks.RootSet(d)
			var marked []*dag.EqNode
			for _, e := range d.NonLeafEqs() {
				if !d.IsRoot(e) && rng.Intn(2) == 0 {
					vs[e.ID] = true
					marked = append(marked, e)
				}
			}
			m, err := maintain.New(d, db.Store, cost.PageIO{}, vs)
			if err != nil {
				t.Fatalf("view %s: %v", view.Label(), err)
			}
			for step := 0; step < 25; step++ {
				ty, updates := corpus.RandomTxn(rng, db, cfg, trial*100+step)
				if ty == nil {
					continue
				}
				// Apply is a one-transaction ApplyBatch window; Drift below checks
				// it against the recompute oracle after every step.
				if _, err := m.Apply(ty, updates); err != nil {
					t.Fatalf("step %d (%s) on view %s: %v", step, ty.Name, view.Label(), err)
				}
				for _, e := range append([]*dag.EqNode{d.Root}, marked...) {
					drift, err := m.Drift(e)
					if err != nil {
						t.Fatal(err)
					}
					if drift != "" {
						t.Fatalf("step %d (%s): node %s drifted (%s)\nview: %s\nset: %s",
							step, ty.Name, e, drift, view.Label(), vs.Key())
					}
				}
			}
		})
	}
}
