package tracks_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/tracks"
	"repro/internal/txn"
)

// obsCacheCounters snapshots every registry counter the cost cache
// mirrors into, so a test can difference before/after values (the
// registry is process-global and other tests in this package also
// drive the cache).
type obsCacheCounters struct {
	setHits, setMisses       int64
	bundleHits, bundleMisses int64
}

func readObsCacheCounters() obsCacheCounters {
	var s obsCacheCounters
	s.setHits = obs.C("tracks.setcost.hits").Value()
	s.setMisses = obs.C("tracks.setcost.misses").Value()
	s.bundleHits = obs.C("tracks.bundle.hits").Value()
	s.bundleMisses = obs.C("tracks.bundle.misses").Value()
	return s
}

// TestObsCacheCountersAddUp drives the shared cost cache over the
// Figure 5 lattice and pins the accounting identities between the
// registry mirrors and the cache's own statistics:
//
//  1. every BestCost call is exactly one SetCost lookup, so the obs
//     hit+miss delta equals the call count;
//  2. CacheStats (which folds the SetCost and bundle layers) equals the
//     sum of the two layers' obs deltas.
func TestObsCacheCountersAddUp(t *testing.T) {
	db := corpus.Figure5Database(corpus.Figure5Config{Items: 20, RPerItem: 2, SPerItem: 2})
	d, err := dag.FromTree(db.Figure5View(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 400); err != nil {
		t.Fatal(err)
	}
	types := []*txn.Type{
		{Name: ">T", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "T", Kind: txn.Modify, Size: 1, Cols: []string{"Price"}}}},
		{Name: "+S", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "S", Kind: txn.Insert, Size: 1}}},
	}

	var cands []*dag.EqNode
	for _, e := range d.NonLeafEqs() {
		if !d.IsRoot(e) {
			cands = append(cands, e)
		}
	}
	if len(cands) > 10 {
		cands = cands[:10]
	}

	c := tracks.NewCosting(d, cost.PageIO{})
	before := readObsCacheCounters()
	calls := 0
	// Two passes over the lattice: the first is all misses, the second
	// all hits — both directions of the identity get exercised.
	for pass := 0; pass < 2; pass++ {
		for mask := 0; mask < 1<<len(cands); mask++ {
			vs := tracks.RootSet(d)
			for i, e := range cands {
				if mask&(1<<i) != 0 {
					vs[e.ID] = true
				}
			}
			for _, ty := range types {
				c.BestCost(vs, ty)
				calls++
			}
		}
	}
	after := readObsCacheCounters()

	dSetHits := after.setHits - before.setHits
	dSetMisses := after.setMisses - before.setMisses
	dBundleHits := after.bundleHits - before.bundleHits
	dBundleMisses := after.bundleMisses - before.bundleMisses

	if dSetHits+dSetMisses != int64(calls) {
		t.Errorf("SetCost lookups: hits %d + misses %d != %d BestCost calls",
			dSetHits, dSetMisses, calls)
	}
	if dSetMisses <= 0 || dSetHits <= 0 {
		t.Errorf("expected both hits and misses, got hits=%d misses=%d", dSetHits, dSetMisses)
	}

	// CacheStats folds both layers; the Costing is fresh, so its totals
	// are exactly the deltas our calls produced.
	hits, misses := c.CacheStats()
	if int64(hits) != dSetHits+dBundleHits || int64(misses) != dSetMisses+dBundleMisses {
		t.Errorf("CacheStats %d/%d != obs layers (set %d/%d + bundle %d/%d)",
			hits, misses, dSetHits, dSetMisses, dBundleHits, dBundleMisses)
	}
}
