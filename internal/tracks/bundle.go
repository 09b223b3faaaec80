package tracks

import (
	"math"
	"strconv"

	"repro/internal/dag"
	"repro/internal/txn"
)

// trackBundle is the view-set-independent half of pricing one transaction
// type: the update tracks reaching a given set of affected marked roots,
// each track's delta flows, and the update charge each affected node
// would incur if it were materialized. Track enumeration depends on the
// view set only through its affected marked nodes (enumerateFromRoots),
// and flows never depend on the view set at all (opFlow's invariant), so
// every view set with the same affected marked nodes shares one bundle.
// The branch-and-bound bound path then reduces to summing cached charges,
// and full pricing only recomputes the query side per view set.
//
// A bundle is immutable once published; callers must not mutate the flow
// maps it hands out (TrackCost.Flows aliases them).
type trackBundle struct {
	tracks    []*Track
	truncated bool
	// flows[i] holds track i's delta flow at every affected node,
	// updated leaves included.
	flows []map[int]Flow
	// posed[i] holds the queries track i poses, each with the node whose
	// materialization makes it unnecessary.
	posed [][]posedQuery
	// charges[i][j] is the update charge at tracks[i].Order[j] when that
	// node is materialized.
	charges [][]float64
}

// bundleFor returns the bundle for the view set's affected marked roots,
// building and publishing it on first use. Lookups count toward the
// shared cache statistics: the bundle cache is where the track-costing
// work actually amortizes across the search.
func (c *Costing) bundleFor(vs ViewSet, t *txn.Type) *trackBundle {
	aff := c.affectedOf(t)
	var roots []*dag.EqNode
	for _, e := range c.D.NonLeafEqs() {
		if vs[e.ID] && aff[e.ID] {
			roots = append(roots, e)
		}
	}
	key := make([]byte, 0, len(roots)*4+len(t.Name)+1)
	for _, e := range roots {
		key = strconv.AppendInt(key, int64(e.ID), 10)
		key = append(key, ',')
	}
	key = append(key, '|')
	key = append(key, t.Name...)
	if v, ok := c.bundles.Load(string(key)); ok {
		c.cache.hits.Add(1)
		obsBundleHits.Inc()
		return v.(*trackBundle)
	}
	c.cache.misses.Add(1)
	obsBundleMisses.Inc()
	trs, trunc := enumerateFromRoots(c.D, roots, aff)
	b := &trackBundle{tracks: trs, truncated: trunc}
	ctx := newCostCtx(vs)
	seeds := c.seedsOf(t)
	for _, tr := range trs {
		flows, posed := c.trackDeltaFlows(ctx, tr, seeds)
		ch := make([]float64, len(tr.Order))
		for j, e := range tr.Order {
			f := flows[e.ID]
			dirty := 0
			if f.modsTouch(c.ViewIndexCols(e)) {
				dirty = 1
			}
			ch[j] = c.Model.Update(f.Mods, f.Ins, f.Dels, 1, dirty)
		}
		b.flows = append(b.flows, flows)
		b.posed = append(b.posed, posed)
		b.charges = append(b.charges, ch)
	}
	// A racing builder computes an identical bundle (all inputs are
	// deterministic); keep whichever published first.
	actual, _ := c.bundles.LoadOrStore(string(key), b)
	return actual.(*trackBundle)
}

// affectedOf memoizes affectedMap per transaction type, keyed by name
// (type definitions are immutable for a Costing's lifetime). The map is
// read-only once published, so concurrent searches share it safely.
func (c *Costing) affectedOf(t *txn.Type) map[int]bool {
	if v, ok := c.affected.Load(t.Name); ok {
		return v.(map[int]bool)
	}
	m := affectedMap(c.D, t.UpdatedRels())
	actual, _ := c.affected.LoadOrStore(t.Name, m)
	return actual.(map[int]bool)
}

// seedsOf memoizes the transaction type's leaf delta flows — the seeds of
// every flow propagation — keyed by name like affectedOf. Read-only once
// published (trackDeltaFlows copies before extending).
func (c *Costing) seedsOf(t *txn.Type) map[int]Flow {
	if v, ok := c.seeds.Load(t.Name); ok {
		return v.(map[int]Flow)
	}
	m := map[int]Flow{}
	for _, e := range c.D.Eqs() {
		if !e.IsLeaf() {
			continue
		}
		if u, ok := t.UpdateOf(e.BaseRel); ok {
			m[e.ID] = leafFlow(u)
		}
	}
	actual, _ := c.seeds.LoadOrStore(t.Name, m)
	return actual.(map[int]Flow)
}

// trackDeltaFlows propagates the transaction's delta along one track,
// starting from the seeded leaf flows, and returns the flow at every
// affected node with the queries posed on the way. Neither depends on
// ctx.vs (opFlow): each view set only filters and prices the queries.
func (c *Costing) trackDeltaFlows(ctx *costCtx, tr *Track, seeds map[int]Flow) (map[int]Flow, []posedQuery) {
	flows := make(map[int]Flow, len(seeds)+len(tr.Order))
	for id, f := range seeds {
		flows[id] = f
	}
	ctx.trackChoice = tr.Choice
	ctx.trackFlows = flows
	defer func() { ctx.trackChoice, ctx.trackFlows = nil, nil }()
	var posed []posedQuery
	for _, e := range tr.Order {
		f, qs := c.opFlow(ctx, e, tr.Choice[e.ID], flows)
		flows[e.ID] = f
		posed = append(posed, qs...)
	}
	return flows, posed
}

// updateCost sums track i's charges over the marked nodes of vs. It
// iterates Order in order and skips exactly the nodes trackUpdateCost
// skips, so the sum is bit-identical to a full costTrack's UpdateCost.
func (b *trackBundle) updateCost(c *Costing, i int, vs ViewSet) float64 {
	var sum float64
	for j, e := range b.tracks[i].Order {
		if !vs[e.ID] {
			continue
		}
		if c.D.IsRoot(e) && !c.CountRootUpdate {
			continue
		}
		sum += b.charges[i][j]
	}
	return sum
}

// minUpdate is the cheapest update-only cost over the bundle's tracks —
// the branch-and-bound lower bound for every superset of vs's marked
// affected nodes (0 when no track charges a marked node).
func (b *trackBundle) minUpdate(c *Costing, vs ViewSet) float64 {
	best := math.Inf(1)
	for i := range b.tracks {
		if u := b.updateCost(c, i, vs); u < best {
			best = u
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}
