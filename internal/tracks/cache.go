package tracks

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/txn"
)

// Registry mirrors of the cost-cache traffic. The counters split the two
// cache layers (SetCost entries vs track bundles), which CacheStats
// folds together.
var (
	obsSetCostHits   = obs.C("tracks.setcost.hits")
	obsSetCostMisses = obs.C("tracks.setcost.misses")
	obsBundleHits    = obs.C("tracks.bundle.hits")
	obsBundleMisses  = obs.C("tracks.bundle.misses")
)

// SetCost is the cached pricing of one (view set, transaction type) pair:
// the best update track by total cost, plus the cheapest update-only cost
// over all tracks. The latter is the branch-and-bound lower bound: delta
// flows do not depend on the view set, so for any superset V' ⊇ V every
// V'-track restricts to a V-track whose update charges at V's marked
// nodes are identical, making min-over-tracks update cost a monotone
// lower bound on C(V', t).
type SetCost struct {
	Best TrackCost
	// MinUpdate is the minimum update-only cost over all enumerated
	// tracks (0 when the transaction affects no marked node).
	MinUpdate float64
	// Truncated records that track enumeration hit MaxTracks or the
	// assignment budget; MinUpdate is then unsound as a lower bound and
	// callers must not prune with it.
	Truncated bool
	// Tracks is the number of tracks enumerated.
	Tracks int
}

// cacheKey builds the canonical (view set, transaction type) cache key
// without fmt overhead: sorted member IDs, then the type name.
func cacheKey(vs ViewSet, t *txn.Type) string {
	ids := vs.IDs()
	b := make([]byte, 0, len(ids)*4+len(t.Name)+1)
	for _, id := range ids {
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	b = append(b, t.Name...)
	return string(b)
}

// CacheStats reports the cost cache's hit/miss counters since the
// Costing was built.
func (c *Costing) CacheStats() (hits, misses uint64) {
	return c.hits, c.misses
}

// BestCost prices a view set for one transaction type through the
// cache: the cheapest track (the paper's C(V, T_i)) plus the update-only
// lower bound. Identical (set, type) pairs are priced once across the
// whole search.
func (c *Costing) BestCost(vs ViewSet, t *txn.Type) SetCost {
	return c.bestCost(newCostCtx(vs), t)
}

func (c *Costing) bestCost(ctx *costCtx, t *txn.Type) SetCost {
	key := cacheKey(ctx.vs, t)
	if sc, ok := c.costs[key]; ok {
		c.hits++
		obsSetCostHits.Inc()
		return sc
	}
	c.misses++
	obsSetCostMisses.Inc()
	best, _, minUpd, trunc, n := c.costViewSet(ctx, t, false)
	sc := SetCost{Best: best, MinUpdate: minUpd, Truncated: trunc, Tracks: n}
	c.costs[key] = sc
	return sc
}

// WeightedUpdateLB is the weighted update-only lower bound for a partial
// view set: any superset costs at least this much per transaction, so the
// branch-and-bound search can prune a subtree whose bound exceeds the
// incumbent. Transaction types whose track enumeration truncated
// contribute zero (the bound degrades, never lies).
func (c *Costing) WeightedUpdateLB(vs ViewSet, types []*txn.Type) float64 {
	var num, den float64
	for _, t := range types {
		b := c.bundleFor(vs, t)
		den += t.Weight
		if !b.truncated {
			num += b.minUpdate(c, vs) * t.Weight
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}
