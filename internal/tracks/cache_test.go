package tracks_test

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/tracks"
	"repro/internal/txn"
)

// allViewSets enumerates every subset of the non-root, non-leaf nodes of
// the fixture DAG (the full lattice the optimizer searches).
func allViewSets(f *fixture) []tracks.ViewSet {
	var cands []int
	for _, e := range f.d.NonLeafEqs() {
		if !f.d.IsRoot(e) {
			cands = append(cands, e.ID)
		}
	}
	var out []tracks.ViewSet
	for mask := 0; mask < 1<<len(cands); mask++ {
		vs := tracks.RootSet(f.d)
		for i, id := range cands {
			if mask&(1<<i) != 0 {
				vs[id] = true
			}
		}
		out = append(out, vs)
	}
	return out
}

// TestCacheNoStaleEntries interleaves cost queries across every view set
// in the lattice, twice, and checks each answer against a fresh
// uncached Costing: a stale or cross-set entry would surface as a
// mismatch on the second pass. The weighted cost and the weighted
// update-only bound, which read the bundle cache directly, are checked
// the same way through a second shared Costing.
func TestCacheNoStaleEntries(t *testing.T) {
	f := newFixture(t)
	sets := allViewSets(f)
	types := txn.PaperTypes()

	golden := map[string]tracks.SetCost{}
	goldenW := map[string]float64{}
	goldenLB := map[string]float64{}
	for _, vs := range sets {
		for _, ty := range types {
			fresh := tracks.NewCosting(f.d, cost.PageIO{})
			golden[vs.Key()+"|"+ty.Name] = fresh.BestCost(vs, ty)
		}
		goldenW[vs.Key()], _ = tracks.NewCosting(f.d, cost.PageIO{}).WeightedCost(vs, types)
		goldenLB[vs.Key()] = tracks.NewCosting(f.d, cost.PageIO{}).WeightedUpdateLB(vs, types)
	}

	shared := tracks.NewCosting(f.d, cost.PageIO{})
	var passHits, passMisses [2]uint64
	for pass := 0; pass < 2; pass++ {
		for _, vs := range sets {
			for _, ty := range types {
				want := golden[vs.Key()+"|"+ty.Name]
				got := shared.BestCost(vs, ty)
				if got.Best.Total() != want.Best.Total() ||
					got.MinUpdate != want.MinUpdate ||
					got.Truncated != want.Truncated ||
					got.Tracks != want.Tracks {
					t.Fatalf("pass %d, set %s, txn %s: cached %+v, fresh %+v",
						pass, vs.Key(), ty.Name, got, want)
				}
			}
		}
		passHits[pass], passMisses[pass] = shared.CacheStats()
	}
	n := uint64(len(sets) * len(types))
	// Pass 1: every (set, type) pair misses the set-cost cache once and
	// performs exactly one track-bundle lookup (hit or miss), 2n lookups
	// in total.
	if passHits[0]+passMisses[0] != 2*n {
		t.Fatalf("pass 1 cache stats hits=%d misses=%d, want %d lookups total",
			passHits[0], passMisses[0], 2*n)
	}
	// Pass 2: one pure hit per pair and not a single new miss — a repeat
	// pricing never rebuilds anything.
	if passMisses[1] != passMisses[0] || passHits[1] != passHits[0]+n {
		t.Fatalf("pass 2 cache stats hits=%d misses=%d, want hits=%d misses=%d (one hit per key, no new misses)",
			passHits[1], passMisses[1], passHits[0]+n, passMisses[0])
	}

	weighted := tracks.NewCosting(f.d, cost.PageIO{})
	for pass := 0; pass < 2; pass++ {
		for _, vs := range sets {
			if got, _ := weighted.WeightedCost(vs, types); got != goldenW[vs.Key()] {
				t.Fatalf("pass %d: WeightedCost(%s) = %g, fresh %g", pass, vs.Key(), got, goldenW[vs.Key()])
			}
			if got := weighted.WeightedUpdateLB(vs, types); got != goldenLB[vs.Key()] {
				t.Fatalf("pass %d: WeightedUpdateLB(%s) = %g, fresh %g", pass, vs.Key(), got, goldenLB[vs.Key()])
			}
		}
	}
}
