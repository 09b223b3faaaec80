package tracks

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/expr"
	"repro/internal/txn"
)

// Costing estimates query and update costs for view sets under a cost
// model (the inner loops of Algorithm OptimalViewSet, Figure 4).
//
// A Costing is safe for concurrent use: all per-track and per-view-set
// state lives in a costCtx threaded through the internal recursion, every
// lazy structure it reads (DAG base-relation sets, estimator statistics,
// algebra schemas) is pre-warmed at construction, and cross-call results
// are shared through the sharded cost cache (cache.go).
type Costing struct {
	D     *dag.DAG
	Est   *Estimator
	Model cost.Model
	// CountRootUpdate includes the root view's own update cost in
	// maintenance costs. The paper's Section 3.6 excludes it ("We do not
	// count the cost of updating the database relations, or the
	// top-level view"), so the default is false.
	CountRootUpdate bool

	cache *costCache
	// origins renders each operation node once (OpNode.String), by ID:
	// every query a track poses names the operation that posed it.
	origins map[int]string
	// bundles caches the view-set-independent half of pricing (tracks,
	// flows, update charges) per (affected-root set, transaction type);
	// see bundle.go. Entries are immutable once stored.
	bundles sync.Map
	// affected memoizes the affected-node set per transaction type name.
	affected sync.Map
	// seeds memoizes each transaction type's leaf delta flows.
	seeds sync.Map
}

// costCtx carries the per-call state of one costing pass: the view set
// being priced, the transient track context consulted by coversGroups,
// and the query/evaluation memos (the same point query is priced across
// many tracks, and the recursion over operation alternatives is
// exponential without them). Each top-level call builds its own ctx, so
// concurrent searches never share mutable state.
type costCtx struct {
	vs          ViewSet
	trackChoice map[int]*dag.OpNode
	trackFlows  map[int]Flow
	qmemo       map[queryKey]float64
	ememo       map[int]float64
}

// queryKey identifies a priced point query in costCtx.qmemo.
type queryKey struct {
	id   int
	bind string
	keys float64
}

func newCostCtx(vs ViewSet) *costCtx {
	return &costCtx{vs: vs, qmemo: map[queryKey]float64{}, ememo: map[int]float64{}}
}

// NewCosting returns a coster over the DAG with the given model. It
// pre-warms every lazily cached structure the costing recursion reads
// (node schemas, base-relation sets, estimator statistics) so that a
// built Costing performs no shared writes outside its cache.
func NewCosting(d *dag.DAG, m cost.Model) *Costing {
	c := &Costing{D: d, Est: NewEstimator(d), Model: m, cache: newCostCache(), origins: map[int]string{}}
	for _, e := range d.Eqs() {
		e.Schema()
		d.BaseRelsOf(e)
		c.Est.StatsOf(e)
	}
	for _, op := range d.Ops() {
		op.Template.Schema()
		c.origins[op.ID] = op.String()
	}
	return c
}

// TrackCost is the costed outcome of propagating one transaction type
// along one update track.
type TrackCost struct {
	Track      *Track
	Queries    []QueryCharge
	QueryCost  float64
	UpdateCost float64
	// Flows records the estimated delta at each affected node.
	Flows map[int]Flow
}

// Total is the paper's q_j + m_j.
func (tc TrackCost) Total() float64 { return tc.QueryCost + tc.UpdateCost }

// SharedQueries counts the queries along the track that the multi-query
// optimization merges away: posed by more than one consumer but priced
// (and, in the runtime's window memo, evaluated) only once.
func (tc TrackCost) SharedQueries() int { return len(tc.Queries) - len(MQO(tc.Queries)) }

// CostTrack prices one track for one transaction type under a view set:
// the multi-query-optimized cost of the queries posed along the track
// plus the cost of applying deltas to every affected materialized view.
func (c *Costing) CostTrack(tr *Track, vs ViewSet, t *txn.Type) TrackCost {
	return c.costTrack(newCostCtx(vs), tr, t)
}

func (c *Costing) costTrack(ctx *costCtx, tr *Track, t *txn.Type) TrackCost {
	flows := map[int]Flow{}
	// Seed the flows at updated base relations.
	for _, e := range c.D.Eqs() {
		if !e.IsLeaf() {
			continue
		}
		if u, ok := t.UpdateOf(e.BaseRel); ok {
			flows[e.ID] = leafFlow(u)
		}
	}
	ctx.trackChoice = tr.Choice
	ctx.trackFlows = flows
	defer func() { ctx.trackChoice, ctx.trackFlows = nil, nil }()

	var posed []posedQuery
	for _, e := range tr.Order {
		op := tr.Choice[e.ID]
		f, qs := c.opFlow(ctx, e, op, flows)
		flows[e.ID] = f
		posed = append(posed, qs...)
	}
	queries, qcost := c.priceQueries(ctx, posedBy(ctx.vs, posed))
	ucost := c.trackUpdateCost(ctx, tr, flows)
	return TrackCost{Track: tr, Queries: queries, QueryCost: qcost, UpdateCost: ucost, Flows: flows}
}

// priceQueries merges a track's queries (MQO) and fills in each one's
// cost and the fan-out it was priced at, returning them with their sum.
func (c *Costing) priceQueries(ctx *costCtx, queries []QueryCharge) ([]QueryCharge, float64) {
	queries = MQO(queries)
	var qcost float64
	for i := range queries {
		q := &queries[i]
		q.Fanout = fanoutOf(c.Est.StatsOf(q.Target), q.Bind)
		q.Cost = c.queryCostMemo(ctx, q.Target, q.Bind, q.Keys)
		qcost += q.Cost
	}
	return queries, qcost
}

// trackUpdateCost sums the cost of applying the track's deltas to the
// materialized nodes it passes through. This is the monotone part of a
// track's cost: it depends only on the delta flows (which are independent
// of the view set), so over supersets it only gains terms.
func (c *Costing) trackUpdateCost(ctx *costCtx, tr *Track, flows map[int]Flow) float64 {
	var ucost float64
	for _, e := range tr.Order {
		if !ctx.vs[e.ID] {
			continue
		}
		if c.D.IsRoot(e) && !c.CountRootUpdate {
			continue
		}
		f := flows[e.ID]
		dirty := 0
		if f.modsTouch(c.ViewIndexCols(e)) {
			dirty = 1
		}
		ucost += c.Model.Update(f.Mods, f.Ins, f.Dels, 1, dirty)
	}
	return ucost
}

// CostViewSet prices a view set for a transaction type: the cheapest
// update track (the paper's C(V, T_i)), along with every candidate track
// for reporting.
func (c *Costing) CostViewSet(vs ViewSet, t *txn.Type) (TrackCost, []TrackCost) {
	best, all, _, _, _ := c.costViewSet(newCostCtx(vs), t, true)
	return best, all
}

func (c *Costing) costViewSet(ctx *costCtx, t *txn.Type, keepAll bool) (best TrackCost, all []TrackCost, minUpdate float64, truncated bool, n int) {
	b := c.bundleFor(ctx.vs, t)
	best = TrackCost{QueryCost: math.Inf(1)}
	minUpdate = math.Inf(1)
	if keepAll {
		all = make([]TrackCost, 0, len(b.tracks))
	}
	for i, tr := range b.tracks {
		tc := c.costTrackQueries(ctx, b, i, tr)
		if keepAll {
			all = append(all, tc)
		}
		if tc.Total() < best.Total() {
			best = tc
		}
		if tc.UpdateCost < minUpdate {
			minUpdate = tc.UpdateCost
		}
	}
	if math.IsInf(minUpdate, 1) {
		minUpdate = 0
	}
	return best, all, minUpdate, b.truncated, len(b.tracks)
}

// costTrackQueries prices one bundled track for the current view set:
// only the view-set-dependent part (which posed queries remain, and
// their prices) runs here; the delta flows, posed queries and update
// charges come precomputed from the bundle, and the update cost sums the
// same charges in the same order as trackUpdateCost, so bound and full
// pricing agree bit for bit.
func (c *Costing) costTrackQueries(ctx *costCtx, b *trackBundle, i int, tr *Track) TrackCost {
	queries, qcost := c.priceQueries(ctx, posedBy(ctx.vs, b.posed[i]))
	return TrackCost{Track: tr, Queries: queries, QueryCost: qcost, UpdateCost: b.updateCost(c, i, ctx.vs), Flows: b.flows[i]}
}

// WeightedCost prices a view set across all transaction types:
// Σ C(V,T_i)·f_i / Σ f_i. Per-type results flow through the shared cost
// cache, so repeated evaluations of the same set are free.
func (c *Costing) WeightedCost(vs ViewSet, types []*txn.Type) (float64, map[string]TrackCost) {
	ctx := newCostCtx(vs)
	per := map[string]TrackCost{}
	var num, den float64
	for _, t := range types {
		sc := c.bestCost(ctx, t)
		per[t.Name] = sc.Best
		num += sc.Best.Total() * t.Weight
		den += t.Weight
	}
	if den == 0 {
		return 0, per
	}
	return num / den, per
}

// MQO merges identical queries posed along one track (the simplest form
// of the multi-query optimization the paper applies across a track's
// query set): two queries on the same target with the same binding
// columns share one evaluation.
func MQO(queries []QueryCharge) []QueryCharge {
	type key struct {
		id   int
		bind string
	}
	index := map[key]int{}
	var out []QueryCharge
	for _, q := range queries {
		k := key{q.Target.ID, strings.Join(q.Bind, ",")}
		if i, ok := index[k]; ok {
			if q.Keys > out[i].Keys {
				out[i].Keys = q.Keys
			}
			out[i].Origin += "+" + q.Origin
			continue
		}
		index[k] = len(out)
		out = append(out, q)
	}
	return out
}

// QueryCost estimates the cost of answering a point query bound on the
// given columns against an equivalence node, for keys distinct probe
// values, in the presence of the materialized views vs (the paper's
// "determining the cost of evaluating a query Q on an equivalence node
// ... in the presence of the materialized views", per Chaudhuri et al.).
func (c *Costing) QueryCost(e *dag.EqNode, bind []string, keys float64, vs ViewSet) float64 {
	return c.queryCostMemo(newCostCtx(vs), e, bind, keys)
}

func (c *Costing) queryCostMemo(ctx *costCtx, e *dag.EqNode, bind []string, keys float64) float64 {
	if keys <= 0 {
		return 0
	}
	mk := queryKey{e.ID, strings.Join(bind, ","), keys}
	if v, ok := ctx.qmemo[mk]; ok {
		return v
	}
	v := c.queryCost(ctx, e, bind, keys, map[int]bool{})
	ctx.qmemo[mk] = v
	return v
}

func (c *Costing) queryCost(ctx *costCtx, e *dag.EqNode, bind []string, keys float64, visiting map[int]bool) float64 {
	if ctx.vs.Has(e) {
		return c.lookupCost(e, bind, keys)
	}
	if visiting[e.ID] {
		return math.Inf(1)
	}
	visiting[e.ID] = true
	defer delete(visiting, e.ID)
	best := math.Inf(1)
	for _, op := range e.Ops {
		if c2 := c.opQueryCost(ctx, op, bind, keys, visiting); c2 < best {
			best = c2
		}
	}
	if math.IsInf(best, 1) {
		// No pushable plan: evaluate the expression once and filter.
		return c.evalCostMemo(ctx, e)
	}
	return best
}

// lookupCost prices probing a stored relation or materialized view.
func (c *Costing) lookupCost(e *dag.EqNode, bind []string, keys float64) float64 {
	st := c.Est.StatsOf(e)
	ix := c.indexSubset(e, bind)
	if ix == nil {
		return keys * c.Model.Scan(st.Card)
	}
	return keys * c.Model.Lookup(fanoutOf(st, ix))
}

func (c *Costing) opQueryCost(ctx *costCtx, op *dag.OpNode, bind []string, keys float64, visiting map[int]bool) float64 {
	switch t := op.Template.(type) {
	case *algebra.Select:
		return c.queryCost(ctx, op.Children[0], bind, keys, visiting)
	case *algebra.Project:
		// Pass-through columns only.
		childBind := make([]string, len(bind))
		out := t.Schema()
		for i, b := range bind {
			j, err := out.Resolve(b)
			if err != nil {
				return math.Inf(1)
			}
			cc, isCol := t.Items[j].E.(expr.Col)
			if !isCol {
				return math.Inf(1)
			}
			childBind[i] = cc.Name
		}
		return c.queryCost(ctx, op.Children[0], childBind, keys, visiting)
	case *algebra.Join:
		return c.joinQueryCost(ctx, t, op, bind, keys, visiting)
	case *algebra.Aggregate:
		out := t.Schema()
		childBind := make([]string, len(bind))
		for i, b := range bind {
			j, err := out.Resolve(b)
			if err != nil || j >= len(t.GroupBy) {
				return math.Inf(1)
			}
			childBind[i] = t.GroupBy[j]
		}
		return c.queryCost(ctx, op.Children[0], childBind, keys, visiting)
	case *algebra.Distinct:
		return c.queryCost(ctx, op.Children[0], bind, keys, visiting)
	case *algebra.Union, *algebra.Diff:
		a := c.queryCost(ctx, op.Children[0], bind, keys, visiting)
		b := c.queryCost(ctx, op.Children[1], bind, keys, visiting)
		return a + b
	default:
		return math.Inf(1)
	}
}

func (c *Costing) joinQueryCost(ctx *costCtx, j *algebra.Join, op *dag.OpNode, bind []string, keys float64, visiting map[int]bool) float64 {
	l, r := op.Children[0], op.Children[1]
	ls, rs := l.Schema(), r.Schema()
	var lbind, rbind []string
	for _, b := range bind {
		switch {
		case ls.Has(b):
			lbind = append(lbind, b)
		case rs.Has(b):
			rbind = append(rbind, b)
		default:
			return math.Inf(1)
		}
	}
	// Transfer join-column binds across the equality.
	for _, b := range lbind {
		for _, cond := range j.On {
			if sameSchemaCol(ls, cond.Left, b) && !containsStr(rbind, cond.Right) {
				rbind = append(rbind, cond.Right)
			}
		}
	}
	for _, b := range rbind {
		for _, cond := range j.On {
			if sameSchemaCol(rs, cond.Right, b) && !containsStr(lbind, cond.Left) {
				lbind = append(lbind, cond.Left)
			}
		}
	}
	switch {
	case len(lbind) > 0 && len(rbind) > 0:
		return c.queryCost(ctx, l, lbind, keys, visiting) +
			c.queryCost(ctx, r, rbind, keys, visiting)
	case len(lbind) > 0:
		drive := c.queryCost(ctx, l, lbind, keys, visiting)
		bound := fanoutOf(c.Est.StatsOf(l), lbind)
		return drive + c.queryCost(ctx, r, j.RightCols(), keys*bound, visiting)
	case len(rbind) > 0:
		drive := c.queryCost(ctx, r, rbind, keys, visiting)
		bound := fanoutOf(c.Est.StatsOf(r), rbind)
		return drive + c.queryCost(ctx, l, j.LeftCols(), keys*bound, visiting)
	default:
		return math.Inf(1)
	}
}

func sameSchemaCol(s *catalog.Schema, a, b string) bool {
	ia, ea := s.Resolve(a)
	ib, eb := s.Resolve(b)
	return ea == nil && eb == nil && ia == ib
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// EvalCost estimates fully evaluating an equivalence node (used as the
// fallback when no filtered plan exists, and by the single-tree
// heuristic's query-optimality check).
func (c *Costing) EvalCost(e *dag.EqNode, vs ViewSet) float64 {
	return c.evalCostMemo(newCostCtx(vs), e)
}

// CheapestOp returns the operation of e whose children EvalCost prices
// lowest when the nodes of vs are stored (the first on a tie), reading
// none of the nodes in path — the ones being evaluated above e. It is the
// plan a full evaluation of e follows.
func (c *Costing) CheapestOp(e *dag.EqNode, vs ViewSet, path map[int]bool) *dag.OpNode {
	ctx := newCostCtx(vs)
	visiting := map[int]bool{e.ID: true}
	maps.Copy(visiting, path)
	best, bestCost := e.Ops[0], math.Inf(1)
	for _, op := range e.Ops {
		var sum float64
		for _, ch := range op.Children {
			sum += c.evalCost(ctx, ch, visiting)
		}
		if sum < bestCost {
			best, bestCost = op, sum
		}
	}
	return best
}

func (c *Costing) evalCostMemo(ctx *costCtx, e *dag.EqNode) float64 {
	if v, ok := ctx.ememo[e.ID]; ok {
		return v
	}
	v := c.evalCost(ctx, e, map[int]bool{})
	ctx.ememo[e.ID] = v
	return v
}

func (c *Costing) evalCost(ctx *costCtx, e *dag.EqNode, visiting map[int]bool) float64 {
	if ctx.vs.Has(e) {
		return c.Model.Scan(c.Est.StatsOf(e).Card)
	}
	if visiting[e.ID] {
		return math.Inf(1)
	}
	visiting[e.ID] = true
	defer delete(visiting, e.ID)
	best := math.Inf(1)
	for _, op := range e.Ops {
		var sum float64
		for _, ch := range op.Children {
			sum += c.evalCost(ctx, ch, visiting)
		}
		if sum < best {
			best = sum
		}
	}
	if math.IsInf(best, 1) {
		return c.Model.Scan(c.Est.StatsOf(e).Card)
	}
	return best
}

// ViewIndexCols returns the (bare) columns the single hash index of a
// materialized view is built on, mirroring the paper's "assuming that
// each of the materializations has a single index on DName": the first
// grouping column for aggregates, the first join column for joins, the
// child's choice through selections/projections/distinct, the first
// declared index for base relations.
func (c *Costing) ViewIndexCols(e *dag.EqNode) []string {
	return viewIndexCols(c.D, e, map[int]bool{})
}

// ViewIndexCols is the package-level form used by the maintenance runtime
// so the physical index matches the costed one.
func ViewIndexCols(d *dag.DAG, e *dag.EqNode) []string {
	return viewIndexCols(d, e, map[int]bool{})
}

func viewIndexCols(d *dag.DAG, e *dag.EqNode, seen map[int]bool) []string {
	if seen[e.ID] {
		return nil
	}
	seen[e.ID] = true
	if e.IsLeaf() {
		if rel, ok := e.Expr.(*algebra.Rel); ok && len(rel.Def.Indexes) > 0 {
			return bareAll(rel.Def.Indexes[0].Columns)
		}
		return nil
	}
	op := e.Ops[0]
	switch t := op.Template.(type) {
	case *algebra.Aggregate:
		if len(t.GroupBy) > 0 {
			return bareAll(t.GroupBy[:1])
		}
	case *algebra.Join:
		if len(t.On) > 0 {
			return bareAll([]string{t.On[0].Left})
		}
	case *algebra.Select, *algebra.Distinct:
		return viewIndexCols(d, op.Children[0], seen)
	case *algebra.Project:
		cols := viewIndexCols(d, op.Children[0], seen)
		for _, col := range cols {
			if !schemaHasBare(e.Schema(), col) {
				return nil
			}
		}
		return cols
	}
	return nil
}

func schemaHasBare(s *catalog.Schema, bare string) bool {
	for _, c := range s.Cols {
		if c.Name == bare {
			return true
		}
	}
	return false
}

func bareAll(cols []string) []string {
	out := make([]string, 0, len(cols))
	for _, c := range cols {
		b := bareOf(c)
		if !containsStr(out, b) {
			out = append(out, b)
		}
	}
	return out
}

// indexSubset returns the indexed columns usable for a bind, or nil.
// A hash index is usable when its columns are a subset of the bind
// columns (probe with the indexed part, filter the rest for free).
func (c *Costing) indexSubset(e *dag.EqNode, bind []string) []string {
	bareBind := bareAll(bind)
	isSubset := func(cols []string) bool {
		for _, col := range cols {
			if !containsStr(bareBind, bareOf(col)) {
				return false
			}
		}
		return len(cols) > 0
	}
	if e.IsLeaf() {
		if rel, ok := e.Expr.(*algebra.Rel); ok {
			// Prefer the most selective usable index (largest column set).
			var best []string
			for _, ix := range rel.Def.Indexes {
				if isSubset(bareAll(ix.Columns)) {
					if len(ix.Columns) > len(best) {
						best = bareAll(ix.Columns)
					}
				}
			}
			return best
		}
		return nil
	}
	ix := c.ViewIndexCols(e)
	if isSubset(ix) {
		return ix
	}
	return nil
}

// FormatQueries renders query charges for reports, sorted by origin.
func FormatQueries(qs []QueryCharge) string {
	sorted := append([]QueryCharge{}, qs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Origin < sorted[j].Origin })
	var b strings.Builder
	for _, q := range sorted {
		fmt.Fprintf(&b, "  on %s bind(%s) keys=%g fanout=%.4g cost=%.4g  [%s]\n",
			q.Target, strings.Join(q.Bind, ","), q.Keys, q.Fanout, q.Cost, q.Origin)
	}
	return b.String()
}
